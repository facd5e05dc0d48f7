"""Optimal single-step routing under an expected-cost budget.

For a price ``lam`` on cost, the deterministic strategies pick, per query,
the cheapest (or most expensive) model among those maximizing the tradeoff
score. The cost of the cheap strategy is nonincreasing in the price, so a
budget is met by bisecting the price to the breakpoint where the cheap
strategy becomes affordable, then mixing the cheap and expensive strategies
with a weight chosen so the blend's validation cost lands on the budget
exactly. The mixing coin is flipped once per query.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fitting import check_budget_floor, fit_budget_mixture, mixing_weight
from .core import EstimateTable, Pick, argmax_tradeoff_rows


@dataclass(frozen=True)
class FittedRouter:
    """A budget-fitted mix of the cheap and expensive tradeoff maximizers.

    ``lambda_star`` prices the cheap branch; ``lambda_max`` prices the
    expensive branch (it differs only when the budget sits exactly at a
    breakpoint that bisection cannot represent from one side).
    """

    lambda_star: float
    gamma: float
    budget: float
    fit_cost_min: float
    fit_cost_max: float
    lambda_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")
        for lam in (self.lambda_star, self.lambda_max):
            if not (math.isfinite(lam) and lam >= 0):
                raise ValueError("lambda must be finite and >= 0")


def _step_one(table: EstimateTable) -> tuple[np.ndarray, np.ndarray]:
    if table.n_queries == 0:
        raise ValueError("estimate table is empty")
    return table.quality_mean[:, 0, :], table.cost_mean[:, 0, :]


def choose_models(table: EstimateTable, lam: float, pick: Pick) -> np.ndarray:
    """Per-query chosen model index at step one."""
    quality, cost = _step_one(table)
    tau = quality - lam * cost
    valid = np.ones_like(tau, dtype=bool)
    return argmax_tradeoff_rows(tau, cost, valid, pick)


def strategy_cost(table: EstimateTable, lam: float, pick: Pick) -> float:
    """Mean estimated cost of the model chosen per query."""
    _, cost = _step_one(table)
    chosen = choose_models(table, lam, pick)
    return float(cost[np.arange(table.n_queries), chosen].mean())


def strategy_quality(table: EstimateTable, lam: float, pick: Pick) -> float:
    """Mean estimated quality of the model chosen per query."""
    quality, _ = _step_one(table)
    chosen = choose_models(table, lam, pick)
    return float(quality[np.arange(table.n_queries), chosen].mean())


def cheapest_strategy_cost(table: EstimateTable) -> float:
    """Cost of the cheapest admissible strategy: per-query cheapest model."""
    _, cost = _step_one(table)
    return float(cost.min(axis=1).mean())


def fit_router(table: EstimateTable, budget: float) -> FittedRouter:
    """Fit the price and mixing weight so validation cost meets the budget.

    Returns a zero-price router when even the expensive zero-price strategy
    is affordable; otherwise bisects the price until the cheap strategy fits
    and interpolates the mixing weight between the two strategies' costs.
    Raises for budgets below the cheapest admissible strategy.
    """
    floor = cheapest_strategy_cost(table)
    budget = check_budget_floor(budget, floor, "budget below cheapest strategy")

    def cost_fn(lam: float, pick: Pick) -> float:
        return strategy_cost(table, lam, pick)

    lam_star, gamma, cost_min, cost_max, lam_lo = fit_budget_mixture(cost_fn, budget)
    lam_max = lam_star
    if lam_lo < lam_star and cost_max < budget:
        # The breakpoint's expensive maximizer is only tied within
        # tolerance on the low side of the bracket.
        cost_max_lo = strategy_cost(table, lam_lo, Pick.MAX_COST)
        if cost_max_lo >= budget:
            lam_max, cost_max = lam_lo, cost_max_lo
            gamma = mixing_weight(cost_min, cost_max, budget)
    return FittedRouter(lam_star, gamma, budget, cost_min, cost_max, lam_max)


def route(router: FittedRouter, quality_means, cost_means, u: float) -> int:
    """Pick a model for one query from its step-one estimates.

    ``u`` is the query's uniform draw; below ``gamma`` the cheap branch is
    taken, otherwise the expensive branch.
    """
    quality = np.asarray(quality_means, dtype=np.float64)[None, :]
    cost = np.asarray(cost_means, dtype=np.float64)[None, :]
    if u < router.gamma:
        lam, pick = router.lambda_star, Pick.MIN_COST
    else:
        lam, pick = router.lambda_max, Pick.MAX_COST
    tau = quality - lam * cost
    return int(argmax_tradeoff_rows(tau, cost, np.ones_like(tau, dtype=bool), pick)[0])


def route_query(router: FittedRouter, table: EstimateTable, q: int, u: float) -> int:
    return route(router, table.quality_mean[q, 0, :], table.cost_mean[q, 0, :], u)


def expected_metrics(router: FittedRouter, table: EstimateTable) -> tuple[float, float]:
    """Expected (estimated quality, estimated cost) of the fitted mix."""
    g = router.gamma
    q = g * strategy_quality(table, router.lambda_star, Pick.MIN_COST) + (
        1.0 - g
    ) * strategy_quality(table, router.lambda_max, Pick.MAX_COST)
    c = g * strategy_cost(table, router.lambda_star, Pick.MIN_COST) + (
        1.0 - g
    ) * strategy_cost(table, router.lambda_max, Pick.MAX_COST)
    return float(q), float(c)
