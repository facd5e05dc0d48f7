"""Cascade routing: sequential routing over all extensions of the computed set.

At each step the strategy routes between every supermodel that contains the
models already computed for the query: stop (the bare prefix), or extend by
any subset of the uncomputed models. Candidates whose score provably cannot
win are pruned through negative marginal gains, the winning supermodel's
cheapest uncomputed member is executed, estimates advance one step, and the
loop repeats until stopping. The variants trade selection thoroughness
against per-decision runtime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ._engine import BatchCascadeEngine, Variant
from ._fitting import check_budget_floor, fit_budget_mixture
from .cascading import StepEstimates, decision_trace, estimate_sigma, supermodel_estimate
from .core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    Supermodel,
    argmax_tradeoff,
)
from .montecarlo import EmaxEvaluator, MonteCarloConfig, mixing_uniform
from .search import SearchConfig, optimize

__all__ = [
    "Variant",
    "CandidateSet",
    "enumerate_candidates",
    "prune_candidates",
    "select_supermodel",
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


def enumerate_candidates(
    prefix: Supermodel,
    uncomputed: Iterable[int],
    variant: Variant = Variant.DEFAULT,
) -> CandidateSet:
    """All prefix extensions by subsets of the uncomputed models.

    GREEDY keeps only the stop action and single-model extensions; the other
    variants enumerate every subset. Candidates are ordered by size then id.
    """
    free = sorted(set(uncomputed))
    if prefix.member_set & set(free):
        raise ValueError("prefix and uncomputed models must be disjoint")
    extensions: list[Supermodel] = []
    if not prefix.is_empty:
        extensions.append(prefix)
    if variant is Variant.GREEDY:
        extensions.extend(prefix.extend([m]) for m in free)
    else:
        for bits in range(1, 1 << len(free)):
            subset = [free[i] for i in range(len(free)) if bits >> i & 1]
            extensions.append(prefix.extend(subset))
    extensions.sort(key=lambda s: (len(s.members), s.mask()))
    return CandidateSet(prefix, tuple(extensions))


def _tau(
    sm: Supermodel,
    est: StepEstimates,
    lam: float,
    evaluator: EmaxEvaluator,
    no_expect: bool,
    memo: dict,
) -> float:
    key = sm.member_set
    hit = memo.get(key)
    if hit is None:
        se = supermodel_estimate(sm, est, evaluator, no_expect)
        hit = se.quality_mean - lam * se.cost_mean
        memo[key] = hit
    return hit


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
    if variant is Variant.SLOW:
        return candidates
    no_expect = variant is Variant.NO_EXPECT
    memo: dict = {}
    flagged: list[frozenset] = []
    survivors: list[Supermodel] = []
    for cand in sorted(candidates.extensions, key=lambda s: (len(s.members), s.mask())):
        members = cand.member_set
        if any(base <= members for base in flagged):
            continue
        own_tau = _tau(cand, est, lam, evaluator, no_expect, memo)
        negative = False
        for m in cand.members:
            if est.computed[m]:
                continue
            parent = Supermodel(tuple(x for x in cand.members if x != m))
            if parent.is_empty:
                continue
            if own_tau - _tau(parent, est, lam, evaluator, no_expect, memo) < 0:
                negative = True
                break
        if negative:
            flagged.append(members)
            continue
        survivors.append(cand)
    return CandidateSet(candidates.prefix, tuple(survivors))


def select_with_pick(
    candidates: CandidateSet,
    est: StepEstimates,
    lam: float,
    pick: Pick,
    variant: Variant,
    evaluator: EmaxEvaluator,
) -> Supermodel:
    """Deterministic branch of the selection: best score, cost tie-break."""
    if not candidates.extensions:
        raise ValueError("no candidates")
    no_expect = variant is Variant.NO_EXPECT
    scored = []
    by_mask = {}
    for cand in candidates.extensions:
        se = supermodel_estimate(cand, est, evaluator, no_expect)
        mask = cand.mask()
        scored.append((mask, se.quality_mean, se.cost_mean))
        by_mask[mask] = cand
    return by_mask[argmax_tradeoff(scored, lam, pick)]


def select_supermodel(
    candidates: CandidateSet,
    est: StepEstimates,
    lam: float,
    gamma: float,
    u: float,
    variant: Variant,
    evaluator: EmaxEvaluator,
) -> Supermodel:
    """Mixed selection: the cheap branch with probability ``gamma``."""
    pick = Pick.MIN_COST if u < gamma else Pick.MAX_COST
    return select_with_pick(candidates, est, lam, pick, variant, evaluator)


def run_cascade_route(
    table: EstimateTable,
    q: int,
    params: StrategyParams,
    sigma: np.ndarray,
    variant: Variant = Variant.DEFAULT,
    mc: Optional[MonteCarloConfig] = None,
    pick: Optional[Pick] = None,
    chain_only: bool = False,
    answer_mode: str = "best",
) -> DecisionTrace:
    """Full cascade-routing loop for one query.

    The mixing coin is flipped once per query (deterministically from the
    Monte Carlo seed and the query id) unless ``pick`` forces a branch.
    Cascade routing answers with the best-estimated computed model;
    ``answer_mode='last'`` restores the plain-cascading convention.
    """
    mc = mc or MonteCarloConfig()
    qid = int(table.query_ids[q])
    if pick is None:
        u = mixing_uniform(mc.seed, qid)
        pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    k = table.n_models
    executed: list[int] = []
    stop_step = k
    for t in range(k):
        est = StepEstimates.from_table(table, q, t, sigma, executed)
        evaluator = EmaxEvaluator.for_query(mc, qid, est.quality_mean, est.quality_std)
        prefix = Supermodel(tuple(executed))
        if chain_only:
            candidates = CandidateSet(
                prefix, tuple(Supermodel.chain(i) for i in range(max(t, 1), k + 1))
            )
        else:
            free = [m for m in range(k) if m not in prefix.member_set]
            candidates = enumerate_candidates(prefix, free, variant)
            candidates = prune_candidates(candidates, est, params.lambdas[t], variant, evaluator)
        selection = select_with_pick(
            candidates, est, params.lambdas[t], pick, variant, evaluator
        )
        if selection.member_set == prefix.member_set:
            stop_step = t
            break
        if chain_only:
            nxt = t
        else:
            new = sorted(selection.member_set - prefix.member_set)
            costs = est.cost_mean[new]
            nxt = new[int(np.argmin(costs))]
        executed.append(int(nxt))
    if answer_mode == "best":
        # answer with the computed model whose current estimate is highest;
        # exact ties fall to the lowest model index
        ordered = sorted(executed)
        ests = [table.quality_mean[q, max(stop_step, m + 1), m] for m in ordered]
        answer = ordered[int(np.argmax(ests))]
    else:
        answer = executed[-1]
    return decision_trace(table, q, executed, answer)


def route_floor_cost(
    table: EstimateTable,
    sigma: np.ndarray,
    mc: Optional[MonteCarloConfig] = None,
    variant: Variant = Variant.DEFAULT,
    chain_only: bool = False,
    engine: Optional[BatchCascadeEngine] = None,
) -> float:
    """Realized cost of the cheapest strategy: pick cheap, stop immediately."""
    engine = engine or BatchCascadeEngine(table, sigma, mc, variant, chain_only)
    huge = 2.0**40
    return engine.run_metrics([huge] * table.n_models, Pick.MIN_COST)[1]


def fit_cascade_router(
    table: EstimateTable,
    budget: float,
    variant: Variant = Variant.DEFAULT,
    sigma: Optional[np.ndarray] = None,
    mc: Optional[MonteCarloConfig] = None,
    search_config: Optional[SearchConfig] = None,
    chain_only: bool = False,
    engine: Optional[BatchCascadeEngine] = None,
) -> StrategyParams:
    """Same two-stage fit as cascading, with cascade routing as the kernel."""
    k = table.n_models
    mc = mc or MonteCarloConfig()
    if sigma is None:
        sigma = estimate_sigma(table)
    if engine is None:
        engine = BatchCascadeEngine(table, sigma, mc, variant, chain_only)
    elif engine.variant is not variant or engine.chain_only != chain_only:
        raise ValueError("engine was built for a different variant")
    floor = route_floor_cost(table, sigma, mc, engine=engine)
    budget = check_budget_floor(budget, floor, "infeasible budget: below the cheapest strategy cost")

    def cost_fn(lam: float, pick: Pick) -> float:
        return engine.run_metrics([lam] * k, pick)[1]

    lam_star, gamma, _, _, _ = fit_budget_mixture(cost_fn, budget)
    init = StrategyParams.equal(lam_star, k, gamma)
    return optimize(engine.params_metrics, budget, search_config or SearchConfig(), init=init)
