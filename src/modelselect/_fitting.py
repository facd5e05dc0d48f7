"""Shared budget bisection for every strategy fitted by a price.

The cost of the cheap deterministic strategy falls as the price rises, so a
budget is met by doubling the price until the cheap strategy is affordable
and bisecting, then interpolating the mixing weight between the cheap and
expensive strategies' costs.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import Pick

LAMBDA_CAP = 2.0**64

# The relative cost tolerance of every budget check: a budget may sit this
# far below the floor (``check_budget_floor``), and a search point's cost
# this far above the budget (``search._local_search``).
FEASIBILITY_SLACK = 1e-9

# Bracketing leaves the two deterministic strategies straddling a breakpoint
# price; the expensive side may only be visible just below it.
_BISECT_REL_WIDTH = 1e-9


def check_budget_floor(budget: float, floor: float, infeasible_msg: str) -> float:
    """The budget to fit against: ``max(budget, floor)``.

    Raises ``ValueError(infeasible_msg)`` when the budget is below the floor
    by more than a relative ``FEASIBILITY_SLACK``; a budget within it is raised
    to the floor, so rounding in the floor cannot reject a budget set to it.
    The tolerance scales with the floor, so it holds at any cost unit. A
    NaN or infinite budget raises ``ValueError``.
    """
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget < floor - FEASIBILITY_SLACK * floor:
        raise ValueError(infeasible_msg)
    return max(budget, floor)


def mixing_weight(cost_min: float, cost_max: float, budget: float) -> float:
    """Probability of the cheap branch that puts the blend's cost on the budget."""
    if cost_max <= cost_min:
        return 1.0
    return float(np.clip((cost_max - budget) / (cost_max - cost_min), 0.0, 1.0))


def halve_bracket(
    affordable: Callable[[float], bool], good: float, bad: float, width: Callable[[float], float]
) -> tuple[float, float]:
    """Halve the bracket between an affordable end ``good`` and an unaffordable end ``bad``.

    Either end may be the lower one. Each step replaces ``good`` with the
    midpoint when ``affordable`` holds there and ``bad`` otherwise, until
    the bracket is no wider than ``width(good)``. The price bisection of
    ``fit_budget_mixture`` and the threshold bisection of
    ``cascading.fit_threshold_cascade`` both take it. Returns ``(good, bad)``.
    """
    while abs(bad - good) > width(good):
        mid = 0.5 * (good + bad)
        if affordable(mid):
            good = mid
        else:
            bad = mid
    return good, bad


def fit_budget_mixture(
    cost_fn: Callable[[float, Pick], float],
    budget: float,
) -> tuple[float, float, float, float, float]:
    """Find ``(lambda_star, gamma, cost_min, cost_max, lambda_lo)`` meeting the budget.

    ``cost_fn(lam, pick)`` is the fitting-data cost of the deterministic
    strategy at price ``lam``. The returned mixture is always feasible:
    either the interpolated cost equals the budget, or gamma is clamped on
    the affordable side. ``lambda_lo`` is the bisection bracket's infeasible
    end, a price at which the cheap strategy is over budget; it equals
    ``lambda_star`` when price zero already fits.
    """
    cost_max0 = cost_fn(0.0, Pick.MAX_COST)
    if cost_max0 <= budget:
        return 0.0, 0.0, cost_fn(0.0, Pick.MIN_COST), cost_max0, 0.0

    cost_min0 = cost_fn(0.0, Pick.MIN_COST)
    if cost_min0 <= budget:
        lo = lam = 0.0
        cost_min, cost_max = cost_min0, cost_max0
    else:
        lo, hi = 0.0, 1.0
        while cost_fn(hi, Pick.MIN_COST) > budget:
            lo = hi
            hi *= 2.0
            if hi > LAMBDA_CAP:
                raise ValueError("budget below cheapest strategy")
        hi, lo = halve_bracket(
            lambda lam: cost_fn(lam, Pick.MIN_COST) <= budget, hi, lo, lambda good: _BISECT_REL_WIDTH * (1.0 + good)
        )
        lam = hi
        cost_min = cost_fn(hi, Pick.MIN_COST)
        cost_max = cost_fn(hi, Pick.MAX_COST)
    return lam, mixing_weight(cost_min, cost_max, budget), cost_min, cost_max, lo
