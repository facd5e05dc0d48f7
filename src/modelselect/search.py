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

The search has one evaluation loop over a batch evaluator. An objective
that evaluates several points at once (cascade routing's
``BatchCascadeEngine.params_metrics_many``, which runs them in one engine
pass) takes the proposals in batches of ``PROPOSAL_BATCH``, any other in
batches of 1: each pass applies the next batch's draws to the incumbent,
accepts the first feasible improvement and starts the next pass at the
proposal after it, whose draw is applied again to the new incumbent. The
proposals after an accepted one are evaluated and discarded, so the
accepted proposals, and the result, are those of the one-at-a-time search.
A fit accepts few of its proposals, so little work is wasted. Cascading and
the threshold search take one proposal at a time: a chain run is one cheap
pass over certified thresholds. A point is feasible when its cost is at
most ``budget * (1 + FEASIBILITY_SLACK)``, the relative tolerance that
``_fitting.check_budget_floor`` also allows below a floor.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._fitting import FEASIBILITY_SLACK
from .core import StrategyParams, check_integer, check_number

_STREAM_SEARCH = 0x53

# Floor for log-space proposals so a zero price can still move.
_LAMBDA_FLOOR = 1e-12

# Proposals evaluated in one pass when the objective takes a batch.
PROPOSAL_BATCH = 8


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
    evaluate_many: Callable[[list[np.ndarray]], list[tuple[float, float]]],
    batch: int,
    apply: Callable[[np.ndarray, object], np.ndarray],
    draws: Sequence[object],
    x0: np.ndarray,
    start: tuple[float, float],
    budget: float,
) -> tuple[np.ndarray, list[int]]:
    """The best feasible point, and the numbers of the proposals it accepted, in order.

    ``start`` is the (quality, cost) of ``x0``. Proposal i is
    ``apply(incumbent, draws[i])``. Each pass evaluates the next ``batch``
    proposals from the incumbent together, accepts the first feasible
    improvement and goes on from the proposal after it (module docstring);
    a batch of 1 is the one-at-a-time search.
    """
    quality, cost = start
    limit = budget * (1.0 + FEASIBILITY_SLACK)
    if cost > limit:
        raise ValueError("initial point violates budget")
    best_x, best_q = x0, quality
    accepted = []
    i = 0
    while i < len(draws):
        cands = [apply(best_x, d) for d in draws[i : i + batch]]
        for j, (q, c) in enumerate(evaluate_many(cands)):
            if c <= limit and q > best_q:
                best_x, best_q = cands[j], q
                accepted.append(i + j)
                break
        i += j + 1
    return best_x, accepted


def optimize(
    objective: Callable[[StrategyParams], tuple[float, float]],
    budget: float,
    config: SearchConfig,
    init: StrategyParams,
    objective_many: Optional[Callable[[list[StrategyParams]], list[tuple[float, float]]]] = None,
) -> StrategyParams:
    """Maximize quality subject to ``cost <= budget`` near ``init``.

    ``objective`` maps params to ``(quality, cost)`` on the fitting data.
    ``objective_many``, when given, maps a list of params to their
    ``(quality, cost)`` pairs at once and takes the proposals in batches;
    the result is the same. Infeasible proposals still consume evaluations.
    Raises if the initial point itself violates the budget.
    """
    k = len(init.lambdas)

    def pack(p: StrategyParams) -> np.ndarray:
        return np.array(list(p.lambdas) + [p.gamma])

    def unpack(x: np.ndarray) -> StrategyParams:
        return StrategyParams(lambdas=tuple(float(v) for v in x[:k]), gamma=float(x[k]))

    many = objective_many or (lambda points: [objective(p) for p in points])

    def evaluate_many(xs: list[np.ndarray]) -> list[tuple[float, float]]:
        return many([unpack(x) for x in xs])

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
    batch = 1 if objective_many is None else PROPOSAL_BATCH
    best, _ = _local_search(evaluate_many, batch, apply, draws, pack(init), objective(init), budget)
    return unpack(best)


def optimize_thresholds(
    objective: Callable[[np.ndarray], tuple[float, float]],
    budget: float,
    init: Sequence[float],
    config: SearchConfig,
) -> np.ndarray:
    """Same search, over a vector of stop thresholds perturbed additively, one proposal at a time."""
    x0 = np.asarray(init, dtype=np.float64)

    def apply(x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return x + config.threshold_scale * z

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_SEARCH, 1)))
    draws = [rng.standard_normal(x0.size) for _ in range(config.max_evals)]
    return _local_search(lambda xs: [objective(x) for x in xs], 1, apply, draws, x0, objective(x0), budget)[0]
