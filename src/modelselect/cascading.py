"""Optimal cascading over chain supermodels, plus the threshold baseline.

A cascade walks the fixed model chain and, before each potential model run,
routes between "stop now" (the chain prefix computed so far) and "keep
going" (every longer chain prefix). The quality of a chain prefix is the
expected maximum of its members' noisy quality estimates; its cost charges
the observed cost of computed members plus the estimated cost of the rest.
The answer is always the last computed model's.

One query's decision (``run_cascade``) draws the first antithetic half of
the query's Monte Carlo draws once and, at each step, scores every chain
prefix it routes between from one block of samples (``_stops``): the
arithmetic of ``BatchCascadeEngine``'s chain fill, so both paths give the
same expected maxima to the last bit and make the same decisions.

Fitting is two-stage: an equal-price bisection meets the budget, then a
constrained local search refines the per-step prices and the mixing weight.
The prior-work baseline that stops on a per-step quality threshold is also
implemented, with the analogous fit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._engine import BatchCascadeEngine, check_decision_inputs
from ._fitting import check_budget_floor, fit_budget_mixture, halve_bracket
from .core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    argmax_tradeoff,
    regime_steps,
)
from .montecarlo import (
    MonteCarloConfig,
    antithetic_samples,
    expected_max,
    expected_max_stderr,
    mixing_uniform,
    query_normals,
)
from . import search
from .search import SearchConfig

__all__ = [
    "FittedCascade",
    "StepEstimates",
    "MonteCarloConfig",
    "expected_max",
    "expected_max_stderr",
    "estimate_sigma",
    "run_cascade",
    "fit_cascade",
    "threshold_cascade",
    "fit_threshold_cascade",
    "cascade_floor_cost",
]


@dataclass(frozen=True)
class FittedCascade:
    params: StrategyParams
    sigma: np.ndarray


@dataclass(frozen=True)
class StepEstimates:
    """One query's estimates at one decision step.

    ``quality_std`` carries the fitted per-(model, step) uncertainty
    (``estimate_sigma``), since the table holds means only. ``known_cost``
    is what a computed model is charged, ``EstimateTable.computed_cost``.
    """

    quality_mean: np.ndarray
    quality_std: np.ndarray
    cost_mean: np.ndarray
    known_cost: np.ndarray
    computed: np.ndarray

    @staticmethod
    def from_table(
        table: EstimateTable,
        q: int,
        step_t: int,
        sigma: np.ndarray,
        executed: Sequence[int],
    ) -> "StepEstimates":
        """Query ``q`` after ``executed`` ran, read with ``regime_steps``."""
        k = table.n_models
        computed = np.zeros(k, dtype=bool)
        computed[list(executed)] = True
        idx = np.arange(k)
        steps = regime_steps(computed, step_t)
        return StepEstimates(
            quality_mean=table.quality_mean[q, steps, idx],
            quality_std=np.asarray(sigma, dtype=np.float64)[idx, steps],
            cost_mean=table.cost_mean[q, steps, idx],
            known_cost=table.computed_cost[q].copy(),
            computed=computed,
        )

    def member_costs(self) -> list[float]:
        """Per model, the observed cost if computed, else the estimate."""
        return np.where(self.computed, self.known_cost, self.cost_mean).tolist()


def estimate_sigma(table: EstimateTable, validation_indices=None) -> np.ndarray:
    """Per (model, step) std of (step estimate - final estimate) over queries.

    Population convention (divide by n). Shape ``(k, k + 1)``; the final
    step's entries are zero exactly when the estimates coincide.
    """
    idx = np.arange(table.n_queries) if validation_indices is None else np.asarray(validation_indices)
    if idx.size < 2:
        raise ValueError("insufficient data for variance")
    qm = table.quality_mean[idx]
    diff = qm - qm[:, -1:, :]
    return diff.std(axis=0, ddof=0).T.copy()


def _stops(
    table: EstimateTable,
    q: int,
    t: int,
    lam: float,
    pick: Pick,
    sigma: np.ndarray,
    z: np.ndarray,
) -> bool:
    """Whether the cascade stops with the first ``t >= 1`` chain models computed.

    Routes between the stop candidate (the chain prefix of length ``t``) and
    each of the f = k - t longer chain prefixes, as the engine's chain fill
    scores them. With the chain prefix computed, every model reads step
    slice ``t`` (``core.regime_steps``), so the query's ``(k, half)`` draws
    ``z`` scale into one ``(k, S)`` block (``antithetic_samples``). The
    members' sample maximum, then its running maximum over models
    t..k - 1, fill one ``(f + 1, S)`` block, whose row sums over S give the
    f + 1 expected maxima, each equal to ``EmaxEvaluator.expected_max_mask``
    of its chain prefix to the last bit. Chain costs are running sums in
    chain order of the members' ``computed_cost`` and then the open models'
    ``cost_mean`` at step t. Candidate ids are chain lengths, so
    ``argmax_tradeoff`` breaks residual ties toward the shorter chain.
    """
    vals = antithetic_samples(table.quality_mean[q, t], z * sigma[:, t, None])
    block = vals[t - 1 :]  # row 0 becomes the members' maximum, row j adds models t..t + j - 1
    if t > 1:
        np.maximum.reduce(vals[:t], axis=0, out=block[0])
    for j in range(1, block.shape[0]):
        np.maximum(block[j - 1], block[j], out=block[j])
    quality = (np.add.reduce(block, axis=1) / vals.shape[1]).tolist()
    costs = table.computed_cost[q, :t].tolist() + table.cost_mean[q, t, t:].tolist()
    cost = 0.0
    candidates = []
    for length, c in enumerate(costs, start=1):
        cost += c
        if length >= t:
            candidates.append((length, quality[length - t], cost))
    return argmax_tradeoff(candidates, lam, pick) == t


def run_cascade(
    table: EstimateTable,
    q: int,
    params: StrategyParams,
    sigma: np.ndarray,
    mc: Optional[MonteCarloConfig] = None,
    u: Optional[float] = None,
) -> DecisionTrace:
    """Walk the chain for one query and record what happened.

    The mixing coin ``u`` is flipped from the Monte Carlo seed and the query
    id unless given. The first antithetic half of the query's draw matrix is
    drawn once, model-major, and every step scales it (``_stops``).
    """
    k = table.n_models
    check_decision_inputs(k, sigma=sigma, lambdas=params.lambdas)
    sigma = np.asarray(sigma, dtype=np.float64)
    mc = mc or MonteCarloConfig()
    qid = int(table.query_ids[q])
    if u is None:
        u = mixing_uniform(mc.seed, qid)
    pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    z = np.ascontiguousarray(query_normals(mc, qid, k)[: mc.half].T)
    executed = [0]
    for t in range(1, k):
        if _stops(table, q, t, params.lambdas[t], pick, sigma, z):
            break
        executed.append(t)
    return decision_trace(table, q, executed, executed[-1])


def decision_trace(
    table: EstimateTable, q: int, executed: Sequence[int], answer: int
) -> DecisionTrace:
    """What running ``executed`` on query ``q`` and answering with ``answer`` realized.

    The cost is a running sum in execution order, as the batch paths sum it.
    """
    charges = table.computed_cost[q]
    cost = 0.0
    for m in executed:
        cost += float(charges[m])
    quality = float(table.true_quality[q, answer]) if table.true_quality is not None else float("nan")
    return DecisionTrace(
        query=int(table.query_ids[q]),
        executed=tuple(executed),
        answer_model=int(answer),
        realized_cost=cost,
        realized_quality=quality,
    )


def cascade_floor_cost(table: EstimateTable) -> float:
    """Cost of the cheapest cascade: run the first chain model and stop."""
    return float(table.computed_cost[:, 0].mean())


def fit_cascade(
    table: EstimateTable,
    budget: float,
    sigma: Optional[np.ndarray] = None,
    mc: Optional[MonteCarloConfig] = None,
    search_config: Optional[SearchConfig] = None,
    engine: Optional[BatchCascadeEngine] = None,
) -> FittedCascade:
    """Fit per-step prices and the mixing weight against the budget.

    The two-stage fit of ``_fit_prices``, on a chain-only engine, for a
    budget no lower than the cheapest cascade's cost. A given ``engine``
    must be a chain-only engine built on ``table``; its sigma is the one the
    fit uses and returns, and ``sigma`` and ``mc`` are not read.
    """
    if engine is None:
        engine = BatchCascadeEngine(table, estimate_sigma(table) if sigma is None else sigma, mc, chain_only=True)
    elif not engine.chain_only:
        raise ValueError("fit_cascade needs a chain-only engine")
    elif engine.table is not table:
        raise ValueError("engine was built on a different table")
    floor = cascade_floor_cost(table)
    budget = check_budget_floor(budget, floor, "infeasible budget: below the cheapest cascade cost")
    best = _fit_prices(engine, budget, search_config)
    return FittedCascade(params=best, sigma=engine.sigma)


def _fit_prices(
    engine: BatchCascadeEngine, budget: float, search_config: Optional[SearchConfig]
) -> StrategyParams:
    """The two-stage price fit shared by cascading and cascade routing.

    An equal-price bisection on the engine's realized cost meets the budget,
    then the constrained local search refines the per-step prices and the
    mixing weight from that point, its proposals run in batches through
    ``engine.params_metrics_many`` for either engine kind. ``budget`` must
    already be checked against the strategy's floor.
    """
    k = engine.table.n_models

    def cost_fn(lam: float, pick: Pick) -> float:
        return engine.run_metrics([lam] * k, pick)[1]

    lam_star, gamma, _, _, _ = fit_budget_mixture(cost_fn, budget)
    init = StrategyParams.equal(lam_star, k, gamma)
    return search.optimize(engine.params_metrics_many, budget, search_config or SearchConfig(), init)


# -- threshold baseline ------------------------------------------------------


def _check_thresholds(table: EstimateTable, thresholds) -> np.ndarray:
    """The thresholds as a ``(k,)`` float array; NaN is rejected, ``±inf`` kept."""
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.shape != (table.n_models,):
        raise ValueError("thresholds must have one entry per model")
    if np.isnan(thr).any():
        raise ValueError("thresholds must not be NaN")
    return thr


def threshold_cascade(table: EstimateTable, q: int, thresholds: Sequence[float]) -> DecisionTrace:
    """Run the chain, stopping once the last answer's estimate clears its bar.

    ``thresholds[t]`` is compared after ``t`` models have been computed, so
    the first entry is never consulted (the first model always runs) and the
    cascade is forced to stop after the last model.
    """
    thr = _check_thresholds(table, thresholds)
    executed = [0]
    for t in range(1, table.n_models):
        last = executed[-1]
        if table.quality_mean[q, t, last] >= thr[t]:
            break
        executed.append(t)
    return decision_trace(table, q, executed, executed[-1])


def _threshold_batch(table: EstimateTable, thresholds: np.ndarray) -> list[tuple[float, float]]:
    """Realized (quality, cost) of the threshold cascade at each row of the ``(P, k)`` thresholds.

    A query still running at step t has run models 0..t - 1, so it stops
    there when its estimate of model t - 1 clears ``thresholds[:, t]``: one
    ``(P, n, k - 1)`` comparison gives every row's stop step, and its cost
    is the running sum of the chain's costs in chain order. Each vector's
    means are taken over its own contiguous ``(n,)`` row, so they equal a
    one-vector batch's to the last bit.
    """
    if table.true_quality is None:
        raise ValueError("realized quality needs ground truth in the table")
    n, k = table.n_queries, table.n_models
    rows = np.arange(n)
    est = table.quality_mean[:, np.arange(1, k), np.arange(k - 1)]  # (n, k - 1): model t - 1 at step t
    stops = np.concatenate([est >= thresholds[:, None, 1:], np.ones((len(thresholds), n, 1), dtype=bool)], axis=2)
    answer = stops.argmax(axis=2)  # the first step that stops, less one
    quality = table.true_quality[rows, answer]
    cost = np.cumsum(table.computed_cost, axis=1)[rows, answer]
    return [(float(q.mean()), float(c.mean())) for q, c in zip(quality, cost)]


def threshold_metrics(table: EstimateTable, thresholds) -> tuple[float, float]:
    """Realized (quality, cost) of a threshold cascade on the whole table: a batch of one vector."""
    return _threshold_batch(table, _check_thresholds(table, thresholds)[None])[0]


def fit_threshold_cascade(
    table: EstimateTable,
    budget: float,
    search_config: Optional[SearchConfig] = None,
) -> np.ndarray:
    """Equal-threshold bisection on cost, then per-step local search.

    Cost rises with the threshold (higher bars mean more continuing), so the
    bisection finds the largest shared threshold still within budget. The
    search hands its proposals to ``_threshold_batch`` a batch at a time.
    """
    k = table.n_models
    floor = cascade_floor_cost(table)
    budget = check_budget_floor(budget, floor, "infeasible budget: below the cheapest cascade cost")

    def cost_at(tau: float) -> float:
        return threshold_metrics(table, np.full(k, tau))[1]

    lo = float(table.quality_mean.min()) - 1.0
    hi = float(table.quality_mean.max()) + 1.0
    if cost_at(hi) <= budget:
        init = np.full(k, hi)
    else:
        scale = max(1.0, abs(hi), abs(lo))
        lo, _ = halve_bracket(lambda tau: cost_at(tau) <= budget, lo, hi, lambda _: 1e-9 * scale)
        init = np.full(k, lo)

    def objective(points: list[np.ndarray]) -> list[tuple[float, float]]:
        return _threshold_batch(table, np.array(points))

    return search.optimize_thresholds(objective, budget, init, search_config or SearchConfig())
