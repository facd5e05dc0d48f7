"""Budget-constrained derivative-free search over strategy hyperparameters.

A deliberately simple random local search: propose a perturbation of the
incumbent, evaluate, accept only if the proposal stays within the cost
budget and strictly improves quality. Cost prices are perturbed in log space
(they span orders of magnitude across budgets); the mixing weight is
perturbed additively and reflected back into [0, 1]. Deterministic under the
config seed, and the returned point is always feasible.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import StrategyParams

_STREAM_SEARCH = 0x53

# A point is feasible when its cost is at most budget * (1 + FEASIBILITY_SLACK).
FEASIBILITY_SLACK = 1e-9

# Floor for log-space proposals so a zero price can still move.
_LAMBDA_FLOOR = 1e-12


@dataclass(frozen=True)
class SearchConfig:
    max_evals: int = 200
    seed: int = 0
    lambda_log_scale: float = 0.6
    gamma_scale: float = 0.15
    threshold_scale: float = 0.1

    def __post_init__(self) -> None:
        if isinstance(self.max_evals, bool) or not isinstance(self.max_evals, numbers.Integral):
            raise ValueError(f"max_evals must be an integer, got {self.max_evals!r}")
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        for name in ("lambda_log_scale", "gamma_scale", "threshold_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


def _reflect_unit(x: float) -> float:
    r = abs(x) % 2.0
    return 2.0 - r if r > 1.0 else r


def _local_search(
    evaluate: Callable[[np.ndarray], tuple[float, float]],
    propose: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    x0: np.ndarray,
    budget: float,
    max_evals: int,
    rng: np.random.Generator,
) -> np.ndarray:
    quality, cost = evaluate(x0)
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    if cost > limit:
        raise ValueError("initial point violates budget")
    best_x, best_q = x0, quality
    for _ in range(max_evals):
        cand = propose(best_x, rng)
        q, c = evaluate(cand)
        if c <= limit and q > best_q:
            best_x, best_q = cand, q
    return best_x


def optimize(
    objective: Callable[[StrategyParams], tuple[float, float]],
    budget: float,
    config: SearchConfig,
    init: StrategyParams,
) -> StrategyParams:
    """Maximize quality subject to ``cost <= budget`` near ``init``.

    ``objective`` maps params to ``(quality, cost)`` on the fitting data.
    Infeasible proposals still consume evaluations. Raises if the initial
    point itself violates the budget.
    """
    k = len(init.lambdas)

    def pack(p: StrategyParams) -> np.ndarray:
        return np.array(list(p.lambdas) + [p.gamma])

    def unpack(x: np.ndarray) -> StrategyParams:
        return StrategyParams(lambdas=tuple(float(v) for v in x[:k]), gamma=float(x[k]))

    def evaluate(x: np.ndarray) -> tuple[float, float]:
        return objective(unpack(x))

    def propose(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        # Perturb a random coordinate subset with a heavy-tailed step size:
        # most proposals fine-tune near the incumbent, occasional large moves
        # hop between modes of the piecewise-constant objective.
        out = x.copy()
        move = rng.random(k + 1) < max(1.0 / (k + 1), float(rng.random()))
        amplitude = np.exp(rng.standard_normal())
        lam = np.maximum(x[:k], _LAMBDA_FLOOR)
        scaled = lam * np.exp(config.lambda_log_scale * amplitude * rng.standard_normal(k))
        out[:k] = np.where(move[:k], scaled, x[:k])
        if move[k]:
            out[k] = _reflect_unit(x[k] + config.gamma_scale * amplitude * rng.standard_normal())
        return out

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SEARCH)))
    best = _local_search(evaluate, propose, pack(init), budget, config.max_evals, rng)
    return unpack(best)


def optimize_thresholds(
    objective: Callable[[np.ndarray], tuple[float, float]],
    budget: float,
    init: Sequence[float],
    config: SearchConfig,
) -> np.ndarray:
    """Same search, over a vector of stop thresholds perturbed additively."""
    x0 = np.asarray(init, dtype=np.float64)

    def propose(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return x + config.threshold_scale * rng.standard_normal(x.size)

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SEARCH, 1)))
    return _local_search(objective, propose, x0, budget, config.max_evals, rng)
