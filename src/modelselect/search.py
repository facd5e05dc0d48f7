"""Budget-constrained derivative-free search over strategy hyperparameters.

A deliberately simple random local search: propose a perturbation of the
incumbent, evaluate, accept only if the proposal stays within the cost
budget and strictly improves quality. Cost prices are perturbed in log space
(they span orders of magnitude across budgets); the mixing weight is
perturbed additively and reflected back into [0, 1]. Deterministic under the
config seed, and the returned point is always feasible.

Each proposal is split into its random draws and their application to the
incumbent. All draws are made up front, in the order the one-at-a-time
search makes them, and proposal i applies draw i to whatever the incumbent
is when it is evaluated. That is exact because no draw depends on the
incumbent: the coordinate mask, the step amplitude and the price steps are
drawn every time, and the mixing-weight step is drawn exactly when the mask
moves the mixing weight.

The search has one evaluation loop over one batch objective: every
objective maps a list of points to their ``(quality, cost)`` pairs, and the
search hands it ``PROPOSAL_BATCH`` proposals at a time (the engine runs them
in one pass, ``BatchCascadeEngine.params_metrics_many``, for cascading and
cascade routing alike; the threshold search runs them as one ``(P, k)``
array). The start point goes through the same objective, alone. Each pass
applies the next batch's draws to the incumbent, accepts the first feasible
improvement and starts the next pass at the proposal after it, whose draw
is applied again to the new incumbent. The proposals after an accepted one
are evaluated and discarded, so the accepted proposals, and the result, are
those of the one-at-a-time search. A fit accepts few of its proposals, so
little work is wasted. A point is feasible when its cost is at most
``budget * (1 + FEASIBILITY_SLACK)``, the relative tolerance that
``_fitting.check_budget_floor`` also allows below a floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._fitting import FEASIBILITY_SLACK
from .core import StrategyParams, check_integer, check_number

_STREAM_SEARCH = 0x53

# Floor for log-space proposals so a zero price can still move.
_LAMBDA_FLOOR = 1e-12

# Proposals evaluated in one pass of the objective.
PROPOSAL_BATCH = 8

# Every objective maps a list of points to their (quality, cost) pairs.
Objective = Callable[[list], list[tuple[float, float]]]


@dataclass(frozen=True)
class SearchConfig:
    max_evals: int = 200
    seed: int = 0
    lambda_log_scale: float = 0.6
    gamma_scale: float = 0.15
    threshold_scale: float = 0.1

    def __post_init__(self) -> None:
        check_integer("max_evals", self.max_evals)
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        for name in ("lambda_log_scale", "gamma_scale", "threshold_scale"):
            check_number(name, getattr(self, name))


def _reflect_unit(x: float) -> float:
    r = abs(x) % 2.0
    return 2.0 - r if r > 1.0 else r


def _local_search(
    evaluate: Objective,
    apply: Callable[[np.ndarray, object], np.ndarray],
    draws: Sequence[object],
    x0: np.ndarray,
    budget: float,
) -> tuple[np.ndarray, list[int]]:
    """The best feasible point, and the numbers of the proposals it accepted, in order.

    ``evaluate`` maps a list of points to their (quality, cost) pairs; the
    start point ``x0`` is its first pass. Proposal i is
    ``apply(incumbent, draws[i])``. Each later pass evaluates the next
    ``PROPOSAL_BATCH`` proposals from the incumbent together, accepts the
    first feasible improvement and goes on from the proposal after it
    (module docstring).
    """
    ((quality, cost),) = evaluate([x0])
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    if cost > limit:
        raise ValueError("initial point violates budget")
    best_x, best_q = x0, quality
    accepted = []
    i = 0
    while i < len(draws):
        cands = [apply(best_x, d) for d in draws[i : i + PROPOSAL_BATCH]]
        for j, (q, c) in enumerate(evaluate(cands)):
            if c <= limit and q > best_q:
                best_x, best_q = cands[j], q
                accepted.append(i + j)
                break
        i += j + 1
    return best_x, accepted


def optimize(objective: Objective, budget: float, config: SearchConfig, init: StrategyParams) -> StrategyParams:
    """Maximize quality subject to ``cost <= budget`` near ``init``.

    ``objective`` maps a list of params to their ``(quality, cost)`` pairs
    on the fitting data, and is handed up to ``PROPOSAL_BATCH`` of them at
    once. Infeasible proposals still consume evaluations. Raises if the
    initial point itself violates the budget.
    """
    k = len(init.lambdas)

    def pack(p: StrategyParams) -> np.ndarray:
        return np.array(list(p.lambdas) + [p.gamma])

    def unpack(x: np.ndarray) -> StrategyParams:
        return StrategyParams(lambdas=tuple(float(v) for v in x[:k]), gamma=float(x[k]))

    def draw(rng: np.random.Generator):
        # Perturb a random coordinate subset with a heavy-tailed step size:
        # most proposals fine-tune near the incumbent, occasional large moves
        # hop between modes of the piecewise-constant objective.
        move = rng.random(k + 1) < max(1.0 / (k + 1), float(rng.random()))
        amplitude = np.exp(rng.standard_normal())
        z = rng.standard_normal(k)
        return move, amplitude, z, rng.standard_normal() if move[k] else None

    def apply(x: np.ndarray, d) -> np.ndarray:
        move, amplitude, z, z_gamma = d
        out = x.copy()
        lam = np.maximum(x[:k], _LAMBDA_FLOOR)
        scaled = lam * np.exp(config.lambda_log_scale * amplitude * z)
        out[:k] = np.where(move[:k], scaled, x[:k])
        if move[k]:
            out[k] = _reflect_unit(x[k] + config.gamma_scale * amplitude * z_gamma)
        return out

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SEARCH)))
    draws = [draw(rng) for _ in range(config.max_evals)]
    best, _ = _local_search(lambda xs: objective([unpack(x) for x in xs]), apply, draws, pack(init), budget)
    return unpack(best)


def optimize_thresholds(objective: Objective, budget: float, init: Sequence[float], config: SearchConfig) -> np.ndarray:
    """Same search, over a vector of stop thresholds perturbed additively.

    ``objective`` maps a list of ``(k,)`` threshold arrays to their
    ``(quality, cost)`` pairs.
    """
    x0 = np.asarray(init, dtype=np.float64)

    def apply(x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return x + config.threshold_scale * z

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SEARCH, 1)))
    draws = [rng.standard_normal(x0.size) for _ in range(config.max_evals)]
    return _local_search(objective, apply, draws, x0, budget)[0]
