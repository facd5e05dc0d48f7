"""Cascade routing: sequential routing over all extensions of the computed set.

At each step the strategy routes between every supermodel that contains the
models already computed for the query: stop (the bare prefix), or extend by
any subset of the uncomputed models. Candidates whose score provably cannot
win are pruned through negative marginal gains, the winning supermodel's
cheapest uncomputed member is executed, estimates advance one step, and the
loop repeats until stopping. The answer is the computed model with the
highest quality estimate. The variants trade selection thoroughness against
per-decision runtime.

``run_cascade_route`` makes one query's decisions on candidate bitmasks; a
private core enumerates, prunes and selects them. ``enumerate_candidates``,
``prune_candidates`` and ``select_with_pick`` expose one step of that core
over ``Supermodel`` values. Whole tables run through ``BatchCascadeEngine``,
which fitting uses and which makes the same decisions. Cascading is cascade
routing restricted to chain prefixes; its per-query path is
``cascading.run_cascade``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from ._engine import BatchCascadeEngine, Variant, check_decision_inputs
from ._fitting import LAMBDA_CAP, check_budget_floor
from .cascading import StepEstimates, _fit_prices, decision_trace, estimate_sigma
from .core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    Supermodel,
    argmax_tradeoff,
)
from .montecarlo import EmaxEvaluator, MonteCarloConfig, mixing_uniform, query_normals
from .search import SearchConfig

__all__ = [
    "Variant",
    "CandidateSet",
    "enumerate_candidates",
    "prune_candidates",
    "select_with_pick",
    "run_cascade_route",
    "fit_cascade_router",
    "route_floor_cost",
]


@dataclass(frozen=True)
class CandidateSet:
    """The supermodels a step may choose from: a prefix and its extensions.

    Every extension contains the prefix; the bare prefix itself (the stop
    action) is present except at step one, where at least one model must run.
    """

    prefix: Supermodel
    extensions: tuple[Supermodel, ...]

    def __post_init__(self) -> None:
        pset = self.prefix.member_set
        for ext in self.extensions:
            if not pset <= ext.member_set:
                raise ValueError("every extension must contain the prefix")


# -- the per-step core, over candidate bitmasks ---------------------------------


def _size_then_mask(mask: int) -> tuple[int, int]:
    return mask.bit_count(), mask


@lru_cache(maxsize=None)
def _candidate_masks(prefix: int, free: tuple[int, ...], greedy: bool) -> tuple[int, ...]:
    """The bare prefix (unless empty) and its extensions, in (size, mask) order.

    GREEDY extends by single models; the other variants by every nonempty
    subset of ``free``. The lattice is static, so each (prefix, free, greedy)
    is built and sorted once; callers only read the returned tuple.
    """
    if greedy:
        masks = [prefix | 1 << m for m in free]
    else:
        masks = [prefix]
        for m in free:
            masks += [x | 1 << m for x in masks]
        masks = masks[1:]
    if prefix:
        masks.append(prefix)
    masks.sort(key=_size_then_mask)
    return tuple(masks)


class _StepScores:
    """Quality and cost of candidate masks at one decision step, memoized.

    A candidate is the computed prefix plus added models. Its cost sums
    ``StepEstimates.member_costs`` over the prefix in execution order, then
    over the added models in ascending order; each cost extends the memoized
    cost of the candidate without its highest added model.
    """

    def __init__(
        self,
        est: StepEstimates,
        evaluator: EmaxEvaluator,
        prefix: Sequence[int],
        no_expect: bool,
    ):
        self._unit_cost = est.member_costs()
        self.prefix = 0
        sunk = 0.0
        for m in prefix:
            self.prefix |= 1 << m
            sunk += self._unit_cost[m]
        self._cost = {self.prefix: sunk}
        self.quality = evaluator.max_mean_mask if no_expect else evaluator.expected_max_mask

    def cost(self, mask: int) -> float:
        hit = self._cost.get(mask)
        if hit is None:
            top = (mask & ~self.prefix).bit_length() - 1
            hit = self.cost(mask ^ (1 << top)) + self._unit_cost[top]
            self._cost[mask] = hit
        return hit


@lru_cache(maxsize=None)
def _holding(k: int) -> tuple[int, ...]:
    """Per model i < k, the masks 0..2^k - 1 that hold i, as the bits of one Python int.

    Mask bit i is set in runs of 2^i masks that alternate with runs
    without it, so each entry is one such run pair repeated.
    """
    every = (1 << (1 << k)) - 1
    return tuple((((1 << (1 << i)) - 1) << (1 << i)) * (every // ((1 << (2 << i)) - 1)) for i in range(k))


def _prune(candidates: Sequence[int], scores: _StepScores, lam: float) -> list[int]:
    """Survivors of the negative-marginal-gain sweep, in candidate order.

    Sweeping in (size, mask) order, a candidate whose score drops when one
    of its added models is removed can never be selected, nor can anything
    containing all of it; the bare prefix always survives. The masks that
    contain a flagged candidate are kept as one bitset, the union of the
    masks holding each of its added models (``_holding``), so skipping a
    candidate is one bit test whatever the number of flagged candidates.
    """
    quality, cost, prefix = scores.quality, scores.cost, scores.prefix
    holding = _holding(max(candidates, default=0).bit_length())
    tau: dict[int, float] = {}
    blocked = 0
    survivors: list[int] = []
    for cand in candidates:
        if blocked >> cand & 1:
            continue
        own = tau.get(cand)
        if own is None:
            own = tau[cand] = quality(cand) - lam * cost(cand)
        added = rest = cand & ~prefix
        while rest:
            low = rest & -rest
            parent = cand ^ low
            if parent:
                score = tau.get(parent)
                if score is None:
                    score = tau[parent] = quality(parent) - lam * cost(parent)
                if own - score < 0:
                    supersets = -1
                    while added:
                        low = added & -added
                        supersets &= holding[low.bit_length() - 1]
                        added ^= low
                    blocked |= supersets
                    break
            rest ^= low
        else:
            survivors.append(cand)
    return survivors


def _select(candidates: Sequence[int], scores: _StepScores, lam: float, pick: Pick) -> int:
    """Best score with the ``pick`` cost tie-break; residual ties to the lowest mask."""
    return argmax_tradeoff([(m, scores.quality(m), scores.cost(m)) for m in candidates], lam, pick)


# -- public per-step operations, adapters over the core -------------------------------


def _ordered_masks(candidates: CandidateSet) -> dict[int, Supermodel]:
    """The candidates keyed by mask, in (size, mask) order."""
    by_mask = {c.mask(): c for c in candidates.extensions}
    return {m: by_mask[m] for m in sorted(by_mask, key=_size_then_mask)}


def enumerate_candidates(
    prefix: Supermodel,
    uncomputed: Iterable[int],
    variant: Variant = Variant.DEFAULT,
) -> CandidateSet:
    """All prefix extensions by subsets of the uncomputed models.

    GREEDY keeps only the stop action and single-model extensions; the other
    variants enumerate every subset. Candidates are ordered by size then id.
    """
    check_decision_inputs(variant=variant)
    free = sorted(set(uncomputed))
    if prefix.member_set & set(free):
        raise ValueError("prefix and uncomputed models must be disjoint")
    pmask = prefix.mask()
    masks = _candidate_masks(pmask, tuple(free), variant is Variant.GREEDY)
    return CandidateSet(
        prefix,
        tuple(Supermodel(prefix.members + Supermodel.from_mask(m & ~pmask).members) for m in masks),
    )


def prune_candidates(
    candidates: CandidateSet,
    est: StepEstimates,
    lam: float,
    variant: Variant,
    evaluator: EmaxEvaluator,
) -> CandidateSet:
    """Drop candidates dominated through a negative marginal gain.

    Sweeping by size, a candidate whose score drops when one of its
    uncomputed members is removed can never be selected, nor can anything
    containing all of it; the bare prefix always survives. SLOW mode returns
    the candidates untouched.
    """
    check_decision_inputs(variant=variant)
    if variant is Variant.SLOW:
        return candidates
    ordered = _ordered_masks(candidates)
    scores = _StepScores(est, evaluator, candidates.prefix.members, variant is Variant.NO_EXPECT)
    survivors = _prune(list(ordered), scores, lam)
    return CandidateSet(candidates.prefix, tuple(ordered[m] for m in survivors))


def select_with_pick(
    candidates: CandidateSet,
    est: StepEstimates,
    lam: float,
    pick: Pick,
    variant: Variant,
    evaluator: EmaxEvaluator,
) -> Supermodel:
    """Deterministic branch of the selection: best score, cost tie-break."""
    check_decision_inputs(picks=(pick,), variant=variant)
    ordered = _ordered_masks(candidates)
    scores = _StepScores(est, evaluator, candidates.prefix.members, variant is Variant.NO_EXPECT)
    chosen = _select(list(ordered), scores, lam, pick)
    return ordered[chosen]


def run_cascade_route(
    table: EstimateTable,
    q: int,
    params: StrategyParams,
    sigma: np.ndarray,
    variant: Variant = Variant.DEFAULT,
    mc: Optional[MonteCarloConfig] = None,
    pick: Optional[Pick] = None,
) -> DecisionTrace:
    """Full cascade-routing loop for one query.

    The mixing coin is flipped once per query (deterministically from the
    Monte Carlo seed and the query id) unless ``pick`` forces a branch.
    The query's draw matrix is drawn once and shared by every step's
    evaluator. The answer is ``EstimateTable.best_computed``.
    """
    k = table.n_models
    check_decision_inputs(k, sigma=sigma, lambdas=params.lambdas, picks=[] if pick is None else [pick], variant=variant)
    mc = mc or MonteCarloConfig()
    qid = int(table.query_ids[q])
    if pick is None:
        u = mixing_uniform(mc.seed, qid)
        pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    z = query_normals(mc, qid, k)
    no_expect = variant is Variant.NO_EXPECT
    executed: list[int] = []
    prefix = 0
    stop_step = k
    for t in range(k):
        est = StepEstimates.from_table(table, q, t, sigma, executed)
        scores = _StepScores(
            est, EmaxEvaluator(z, est.quality_mean, est.quality_std), executed, no_expect
        )
        lam = params.lambdas[t]
        free = tuple(m for m in range(k) if not prefix >> m & 1)
        candidates = _candidate_masks(prefix, free, variant is Variant.GREEDY)
        if variant is not Variant.SLOW:
            candidates = _prune(candidates, scores, lam)
        chosen = _select(candidates, scores, lam, pick)
        if chosen == prefix:
            stop_step = t
            break
        # the cheapest added model runs first; ties to the lowest id
        added = Supermodel.from_mask(chosen & ~prefix).members
        nxt = min(added, key=lambda m: est.cost_mean[m])
        executed.append(nxt)
        prefix |= 1 << nxt
    computed = np.zeros((1, k), dtype=bool)
    computed[0, executed] = True
    answer = int(table.best_computed(np.array([q]), computed, stop_step)[0])
    return decision_trace(table, q, executed, answer)


def route_floor_cost(
    table: EstimateTable,
    sigma: np.ndarray,
    mc: Optional[MonteCarloConfig] = None,
    engine: Optional[BatchCascadeEngine] = None,
) -> float:
    """Realized cost of the cheapest strategy: pick cheap, stop immediately.

    Priced at ``LAMBDA_CAP``, the highest price the budget bisection tries,
    so the floor is what fitting can reach whatever the unit of cost. A
    given ``engine`` must be built on ``table``; ``sigma`` and ``mc`` are
    then not read.
    """
    if engine is None:
        engine = BatchCascadeEngine(table, sigma, mc)
    elif engine.table is not table:
        raise ValueError("engine was built on a different table")
    return engine.run_metrics([LAMBDA_CAP] * table.n_models, Pick.MIN_COST)[1]


def fit_cascade_router(
    table: EstimateTable,
    budget: float,
    variant: Variant = Variant.DEFAULT,
    sigma: Optional[np.ndarray] = None,
    mc: Optional[MonteCarloConfig] = None,
    search_config: Optional[SearchConfig] = None,
    engine: Optional[BatchCascadeEngine] = None,
) -> StrategyParams:
    """Same two-stage fit as cascading, with cascade routing as the kernel.

    A given ``engine`` must be a cascade-routing engine of ``variant`` built
    on ``table``; ``sigma`` and ``mc`` are then not read.
    """
    check_decision_inputs(variant=variant)
    if engine is None:
        engine = BatchCascadeEngine(table, estimate_sigma(table) if sigma is None else sigma, mc, variant)
    elif engine.variant is not variant or engine.chain_only:
        raise ValueError("engine was built for a different variant")
    elif engine.table is not table:
        raise ValueError("engine was built on a different table")
    floor = route_floor_cost(table, engine.sigma, engine=engine)
    budget = check_budget_floor(budget, floor, "infeasible budget: below the cheapest strategy cost")
    return _fit_prices(engine, budget, search_config)
