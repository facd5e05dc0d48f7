"""Optimal cascading over chain supermodels, plus the threshold baseline.

A cascade walks the fixed model chain and, before each potential model run,
routes between "stop now" (the chain prefix computed so far) and "keep
going" (every longer chain prefix). The quality of a chain prefix is the
expected maximum of its members' noisy quality estimates; its cost charges
the observed cost of computed members plus the estimated cost of the rest.
The answer is always the last computed model's.

Fitting is two-stage: an equal-price bisection meets the budget, then a
constrained local search refines the per-step prices and the mixing weight.
The prior-work baseline that stops on a per-step quality threshold is also
implemented, with the analogous fit.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ._engine import BatchCascadeEngine, RunResult, Variant, check_decision_inputs
from ._fitting import check_budget_floor, fit_budget_mixture
from .core import (
    DecisionTrace,
    EstimateTable,
    Pick,
    StrategyParams,
    Supermodel,
    argmax_tradeoff,
)
from .montecarlo import (
    EmaxEvaluator,
    MonteCarloConfig,
    expected_max,
    expected_max_stderr,
    mixing_uniform,
    query_normals,
)
from .search import SearchConfig, optimize, optimize_thresholds

__all__ = [
    "Decision",
    "FittedCascade",
    "SupermodelEstimate",
    "StepEstimates",
    "MonteCarloConfig",
    "expected_max",
    "expected_max_stderr",
    "estimate_sigma",
    "cascade_step",
    "run_cascade",
    "fit_cascade",
    "threshold_cascade",
    "fit_threshold_cascade",
    "cascade_floor_cost",
]


class Decision(Enum):
    CONTINUE = "continue"
    STOP = "stop"


@dataclass(frozen=True)
class SupermodelEstimate:
    """Aggregate quality/cost estimate of a set of models run as a unit."""

    supermodel: Supermodel
    quality_mean: float
    cost_mean: float


@dataclass(frozen=True)
class FittedCascade:
    params: StrategyParams
    sigma: np.ndarray


@dataclass(frozen=True)
class StepEstimates:
    """One query's estimates at one decision step.

    ``quality_std`` carries the fitted per-(model, step) uncertainty, not the
    table's informational stds. ``known_cost`` is what a computed model
    actually cost (observed when ground truth exists).
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
        """Regime-correct view: each model is read from the nearest step slice
        whose convention has it in its true computed/uncomputed state.

        Step ``t`` of the table means "the first t models computed", so when
        execution followed that chain order every model is read from step
        ``t`` exactly. When models were computed out of order, a computed
        model is read from the first slice where it counts as computed and an
        uncomputed one from the last slice where it counts as uncomputed.
        """
        k = table.n_models
        computed = np.zeros(k, dtype=bool)
        computed[list(executed)] = True
        idx = np.arange(k)
        steps = np.where(computed, np.maximum(step_t, idx + 1), np.minimum(step_t, idx))
        if table.true_cost is not None:
            known = table.true_cost[q].copy()
        else:
            known = table.cost_mean[q, k, :].copy()
        sigma = np.asarray(sigma, dtype=np.float64)
        return StepEstimates(
            quality_mean=table.quality_mean[q, steps, idx].copy(),
            quality_std=sigma[idx, steps].copy(),
            cost_mean=table.cost_mean[q, steps, idx].copy(),
            known_cost=known,
            computed=computed,
        )

    def member_costs(self) -> list[float]:
        """Per model, the observed cost if computed, else the estimate."""
        return np.where(self.computed, self.known_cost, self.cost_mean).tolist()

    def supermodel_cost(self, members: Sequence[int]) -> float:
        """Observed cost of computed members plus estimates for the rest."""
        costs = self.member_costs()
        total = 0.0
        for m in members:
            total += costs[m]
        return total


def supermodel_estimate(
    supermodel: Supermodel,
    est: StepEstimates,
    evaluator: EmaxEvaluator,
    no_expect: bool = False,
) -> SupermodelEstimate:
    if supermodel.is_empty:
        raise ValueError("the empty supermodel has no estimate")
    members = list(supermodel.members)
    if no_expect:
        quality = evaluator.max_mean(members)
    else:
        quality = evaluator.expected_max(members)
    return SupermodelEstimate(supermodel, quality, est.supermodel_cost(members))


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
    every longer chain prefix, scored against the query's draw matrix ``z``.
    Chain costs are running sums in chain order, the order
    ``StepEstimates.supermodel_cost`` sums them in.
    """
    k = table.n_models
    est = StepEstimates.from_table(table, q, t, sigma, range(t))
    evaluator = EmaxEvaluator(z, est.quality_mean, est.quality_std)
    costs = est.member_costs()
    cost = 0.0
    candidates = []
    for length in range(1, k + 1):
        cost += costs[length - 1]
        if length >= t:
            mask = (1 << length) - 1
            candidates.append((mask, evaluator.expected_max_mask(mask), cost))
    return argmax_tradeoff(candidates, lam, pick) == (1 << t) - 1


def cascade_step(
    table: EstimateTable,
    q: int,
    step_j: int,
    params: StrategyParams,
    sigma: np.ndarray,
    mc: Optional[MonteCarloConfig] = None,
    u: Optional[float] = None,
) -> Decision:
    """Decide whether the cascade stops before computing model ``step_j``.

    At step one there is no stop candidate. ``u`` is the query's mixing draw;
    omitted, it is derived deterministically from the Monte Carlo seed and
    the query id.
    """
    k = table.n_models
    if not 1 <= step_j <= k:
        raise ValueError("step must lie in [1, n_models]")
    check_decision_inputs(k, sigma=sigma, lambdas=params.lambdas)
    if step_j == 1:
        return Decision.CONTINUE
    mc = mc or MonteCarloConfig()
    qid = int(table.query_ids[q])
    if u is None:
        u = mixing_uniform(mc.seed, qid)
    pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    z = query_normals(mc, qid, k)
    stop = _stops(table, q, step_j - 1, params.lambdas[step_j - 1], pick, sigma, z)
    return Decision.STOP if stop else Decision.CONTINUE


def run_cascade(
    table: EstimateTable,
    q: int,
    params: StrategyParams,
    sigma: np.ndarray,
    mc: Optional[MonteCarloConfig] = None,
    u: Optional[float] = None,
) -> DecisionTrace:
    """Walk the chain for one query and record what happened.

    The query's draw matrix is drawn once and shared by every step.
    """
    k = table.n_models
    check_decision_inputs(k, sigma=sigma, lambdas=params.lambdas)
    mc = mc or MonteCarloConfig()
    qid = int(table.query_ids[q])
    if u is None:
        u = mixing_uniform(mc.seed, qid)
    pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    z = query_normals(mc, qid, k)
    executed = [0]
    for t in range(1, k):
        if _stops(table, q, t, params.lambdas[t], pick, sigma, z):
            break
        executed.append(t)
    return decision_trace(table, q, executed, executed[-1])


def decision_trace(
    table: EstimateTable, q: int, executed: Sequence[int], answer: int
) -> DecisionTrace:
    """What running ``executed`` on query ``q`` and answering with ``answer`` realized."""
    if table.true_cost is not None:
        cost = float(table.true_cost[q, list(executed)].sum())
    else:
        cost = float(table.cost_mean[q, table.n_models, list(executed)].sum())
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
    if table.true_cost is not None:
        return float(table.true_cost[:, 0].mean())
    return float(table.cost_mean[:, table.n_models, 0].mean())


def fit_cascade(
    table: EstimateTable,
    budget: float,
    sigma: Optional[np.ndarray] = None,
    mc: Optional[MonteCarloConfig] = None,
    search_config: Optional[SearchConfig] = None,
    engine: Optional[BatchCascadeEngine] = None,
) -> FittedCascade:
    """Fit per-step prices and the mixing weight against the budget.

    Stage one bisects a shared price with the simulated cascade's realized
    cost as the functional; stage two runs the constrained local search from
    that point, maximizing realized quality on the fitting data.
    """
    k = table.n_models
    mc = mc or MonteCarloConfig()
    if sigma is None:
        sigma = estimate_sigma(table)
    if engine is None:
        engine = BatchCascadeEngine(table, sigma, mc, Variant.DEFAULT, chain_only=True)
    elif not engine.chain_only:
        raise ValueError("fit_cascade needs a chain-only engine")
    floor = cascade_floor_cost(table)
    budget = check_budget_floor(budget, floor, "infeasible budget: below the cheapest cascade cost")

    def cost_fn(lam: float, pick: Pick) -> float:
        return engine.run_metrics([lam] * k, pick)[1]

    lam_star, gamma, _, _, _ = fit_budget_mixture(cost_fn, budget)
    init = StrategyParams.equal(lam_star, k, gamma)
    best = optimize(engine.params_metrics, budget, search_config or SearchConfig(), init=init)
    return FittedCascade(params=best, sigma=np.asarray(sigma, dtype=np.float64))


# -- threshold baseline ------------------------------------------------------


def threshold_cascade(table: EstimateTable, q: int, thresholds: Sequence[float]) -> DecisionTrace:
    """Run the chain, stopping once the last answer's estimate clears its bar.

    ``thresholds[t]`` is compared after ``t`` models have been computed, so
    the first entry is never consulted (the first model always runs) and the
    cascade is forced to stop after the last model.
    """
    k = table.n_models
    thr = np.asarray(thresholds, dtype=np.float64)
    if thr.shape != (k,):
        raise ValueError("thresholds must have one entry per model")
    executed = [0]
    for t in range(1, k):
        last = executed[-1]
        if table.quality_mean[q, t, last] >= thr[t]:
            break
        executed.append(t)
    return decision_trace(table, q, executed, executed[-1])


def _threshold_batch(table: EstimateTable, thresholds: np.ndarray) -> RunResult:
    n, k = table.n_queries, table.n_models
    known = table.true_cost if table.true_cost is not None else table.cost_mean[:, k, :]
    last = np.zeros(n, dtype=np.int64)
    sunk = known[:, 0].copy()
    n_exec = np.ones(n, dtype=np.int64)
    exec_order = np.full((n, k), -1, dtype=np.int64)
    exec_order[:, 0] = 0
    active = np.ones(n, dtype=bool)
    for t in range(1, k):
        est = table.quality_mean[np.arange(n), t, last]
        stop_now = active & (est >= thresholds[t])
        active &= ~stop_now
        go = np.flatnonzero(active)
        if go.size == 0:
            break
        last[go] = t
        sunk[go] += known[go, t]
        exec_order[go, t] = t
        n_exec[go] += 1
    return RunResult(answer=last, exec_order=exec_order, n_executed=n_exec, realized_cost=sunk)


def threshold_metrics(table: EstimateTable, thresholds) -> tuple[float, float]:
    """Realized (quality, cost) of a threshold cascade on the whole table."""
    if table.true_quality is None:
        raise ValueError("realized quality needs ground truth in the table")
    result = _threshold_batch(table, np.asarray(thresholds, dtype=np.float64))
    quality = table.true_quality[np.arange(table.n_queries), result.answer]
    return float(quality.mean()), float(result.realized_cost.mean())


def fit_threshold_cascade(
    table: EstimateTable,
    budget: float,
    search_config: Optional[SearchConfig] = None,
) -> np.ndarray:
    """Equal-threshold bisection on cost, then per-step local search.

    Cost rises with the threshold (higher bars mean more continuing), so the
    bisection finds the largest shared threshold still within budget.
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
        while hi - lo > 1e-9 * scale:
            mid = 0.5 * (lo + hi)
            if cost_at(mid) <= budget:
                lo = mid
            else:
                hi = mid
        init = np.full(k, lo)

    def objective(thr: np.ndarray) -> tuple[float, float]:
        return threshold_metrics(table, thr)

    return optimize_thresholds(objective, budget, init, search_config or SearchConfig())
