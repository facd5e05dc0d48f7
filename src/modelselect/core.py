"""Shared domain types and the cost-quality tradeoff primitive.

Every selection strategy in this package scores a candidate with the same
scalar: estimated quality minus a nonnegative price ``lam`` per unit of
estimated cost. Strategies differ only in which candidates they score
(single models, chain prefixes, or arbitrary model subsets) and in how the
price is tuned against a cost budget. The types here are immutable values
and safe to share across threads.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Optional, Sequence

import numpy as np

ModelId = int

# Tie detection on tradeoff scores. Budget fitting bisects the price to the
# breakpoint where the score-maximizing set changes; the cheap and expensive
# maximizers must both be recognized there despite float rounding.
TIE_REL = 1e-9
TIE_ABS = 1e-12


def check_integer(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_number(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a finite real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def from_mapping(cls, entries, what: str):
    """``cls(**entries)`` for a dataclass ``cls``, or a ``ValueError`` naming a bad, unknown or missing entry.

    ``what`` names the mapping in the message; ``cls`` checks each value.
    """
    if not isinstance(entries, Mapping):
        raise ValueError(f"{what} must be a mapping, got {entries!r}")
    unknown = set(entries) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(map(str, unknown))}")
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    missing = [name for name in required if name not in entries]
    if missing:
        raise ValueError(f"{what} requires {', '.join(missing)}")
    return cls(**entries)


class Pick(Enum):
    """Tie-break direction among candidates sharing the best tradeoff."""

    MIN_COST = "min_cost"
    MAX_COST = "max_cost"


def tradeoff(quality_mean: float, cost_mean: float, lam: float) -> float:
    """Score a candidate: ``quality_mean - lam * cost_mean``.

    ``lam`` prices cost in quality units and must be nonnegative.
    """
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if not (math.isfinite(quality_mean) and math.isfinite(cost_mean) and math.isfinite(lam)):
        raise ValueError("tradeoff inputs must be finite")
    return quality_mean - lam * cost_mean


def tie_tolerance(tau_star: float) -> float:
    return max(TIE_REL * abs(tau_star), TIE_ABS)


def argmax_tradeoff(
    candidates: Sequence[tuple],
    lam: float,
    pick: Pick,
) -> object:
    """Return the id of the best candidate under the tradeoff score.

    ``candidates`` is a nonempty sequence of ``(id, quality_mean, cost_mean)``.
    Among candidates whose score is within tie tolerance of the maximum, the
    one with the smallest (``Pick.MIN_COST``) or largest (``Pick.MAX_COST``)
    cost wins; residual ties go to the lowest id.
    """
    if not isinstance(pick, Pick):
        raise ValueError(f"pick must be a Pick, got {pick!r}")
    if len(candidates) == 0:
        raise ValueError("no candidates")
    taus = [tradeoff(q, c, lam) for (_, q, c) in candidates]
    tau_star = max(taus)
    tol = tie_tolerance(tau_star)
    tied = [i for i, t in enumerate(taus) if t >= tau_star - tol]
    if pick is Pick.MIN_COST:
        best = min(tied, key=lambda i: (candidates[i][2], candidates[i][0]))
    else:
        best = min(tied, key=lambda i: (-candidates[i][2], candidates[i][0]))
    return candidates[best][0]


def argmax_tradeoff_rows(
    tau: np.ndarray,
    cost: np.ndarray,
    valid: np.ndarray,
    pick: Pick | np.ndarray,
) -> np.ndarray:
    """Row-wise ``argmax_tradeoff`` over score/cost matrices.

    ``pick`` is one ``Pick`` for every row, or a bool array with one entry
    per row, true for ``Pick.MIN_COST``. The tie mask is built once either
    way: a per-row pick takes the cheap argmin of every row, then the dear
    argmax of the rows that are false. Columns are candidates in
    ascending-id order, so ``argmin``/``argmax`` first-hit semantics
    implement the lowest-id residual tie-break. Rows with no valid column
    raise; no rows give an empty result.
    """
    per_row = not isinstance(pick, Pick)
    if per_row and not (isinstance(pick, np.ndarray) and pick.dtype == bool and pick.shape == tau.shape[:1]):
        raise ValueError("pick must be a Pick or a bool array with one entry per row")
    if tau.shape[0] == 0:
        return np.zeros(0, dtype=np.intp)
    if not valid.any(axis=1).all():
        raise ValueError("no candidates")
    tau = np.where(valid, tau, -np.inf)
    tau_star = tau.max(axis=1, keepdims=True)
    tol = np.maximum(TIE_REL * np.abs(tau_star), TIE_ABS)
    tied = valid & (tau >= tau_star - tol)
    if pick is Pick.MAX_COST:
        return np.where(tied, cost, -np.inf).argmax(axis=1)
    choice = np.where(tied, cost, np.inf).argmin(axis=1)
    if per_row:
        dear = np.flatnonzero(~pick)
        choice[dear] = np.where(tied[dear], cost[dear], -np.inf).argmax(axis=1)
    return choice


@dataclass(frozen=True)
class Supermodel:
    """An unordered set of models run as one unit.

    Estimates of a supermodel are order-independent; execution order is
    decided at run time (cheapest first).
    """

    members: tuple[ModelId, ...]

    def __post_init__(self) -> None:
        if len(set(self.members)) != len(self.members):
            raise ValueError("supermodel members must be distinct")

    @property
    def member_set(self) -> frozenset[ModelId]:
        return frozenset(self.members)

    def mask(self) -> int:
        m = 0
        for i in self.members:
            m |= 1 << i
        return m

    @staticmethod
    def from_mask(mask: int) -> "Supermodel":
        return Supermodel(tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


@dataclass(frozen=True)
class StrategyParams:
    """Fitted hyperparameters shared by the sequential strategies.

    ``lambdas`` holds one cost price per decision step and ``gamma`` is the
    probability of the cheap tie-break branch.
    """

    lambdas: tuple[float, ...]
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if any(l < 0 or not math.isfinite(l) for l in self.lambdas):
            raise ValueError("lambdas must be finite and >= 0")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")

    @staticmethod
    def equal(lam: float, k: int, gamma: float = 1.0) -> "StrategyParams":
        return StrategyParams(lambdas=(float(lam),) * k, gamma=gamma)


@dataclass(frozen=True)
class DecisionTrace:
    """Per-query record of what a strategy actually did."""

    query: int
    executed: tuple[ModelId, ...]
    answer_model: ModelId
    realized_cost: float
    realized_quality: float

    def __post_init__(self) -> None:
        if self.answer_model not in self.executed:
            raise ValueError("answer model must be one of the executed models")


def regime_steps(computed: np.ndarray, t: int) -> np.ndarray:
    """Step slice to read each model's estimates from at decision step ``t``.

    Step ``t`` of an estimate table means "the first t chain models
    computed". Each model is read from the nearest slice whose convention
    has it in its true state: a computed model from the first slice where it
    counts as computed, an uncomputed one from the last slice where it
    counts as uncomputed. When execution followed the chain order this is
    slice ``t`` for every model. ``computed`` is a bool mask over models on
    its last axis; the result has its shape.
    """
    idx = np.arange(computed.shape[-1])
    return np.where(computed, np.maximum(t, idx + 1), np.minimum(t, idx))


def _require_ids(table) -> None:
    """Reject negative query ids: they seed per-query random streams, which need ids >= 0."""
    if np.any(table.query_ids < 0):
        raise ValueError("query_ids must be >= 0")


def _require_finite(table, names: Sequence[str]) -> None:
    """Reject NaN and infinite entries before they can reach a decision."""
    for name in names:
        if not np.isfinite(getattr(table, name)).all():
            raise ValueError(f"{name} must be finite")


@dataclass
class TrueTable:
    """Ground-truth quality/cost per (query, model), before any estimation.

    ``query_ids`` are stable integer ids; they survive subsetting so that
    per-query random streams stay aligned across splits.
    """

    query_ids: np.ndarray
    quality: np.ndarray
    cost: np.ndarray
    split_labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.query_ids = np.asarray(self.query_ids, dtype=np.int64)
        self.quality = np.asarray(self.quality, dtype=np.float64)
        self.cost = np.asarray(self.cost, dtype=np.float64)
        n, k = self.quality.shape
        if self.cost.shape != (n, k) or self.query_ids.shape != (n,):
            raise ValueError("true table shapes disagree")
        if n < 1 or k < 1:
            raise ValueError("true table needs at least one query and one model")
        _require_ids(self)
        _require_finite(self, ("quality", "cost"))
        if np.any(self.cost < 0):
            raise ValueError("true costs must be >= 0")

    @property
    def n_queries(self) -> int:
        return self.quality.shape[0]

    @property
    def n_models(self) -> int:
        return self.quality.shape[1]

    def subset(self, indices: np.ndarray) -> "TrueTable":
        idx = np.asarray(indices)
        labels = None if self.split_labels is None else self.split_labels[idx]
        return TrueTable(self.query_ids[idx], self.quality[idx], self.cost[idx], labels)

    def reorder_models(self, perm: Sequence[int]) -> "TrueTable":
        p = list(perm)
        return TrueTable(self.query_ids, self.quality[:, p], self.cost[:, p], self.split_labels)


@dataclass
class EstimateTable:
    """Step-indexed quality/cost estimates plus optional ground truth.

    Arrays are shaped ``(n_queries, k + 1, k)``; the middle axis is the
    decision step, where step index ``t`` means ``t`` models have been
    computed so far (under the chain convention, models ``0..t-1``). The
    final index ``t = k`` holds the all-computed estimates used when
    calibrating estimate uncertainty. The table holds means only: the
    strategies read one uncertainty per (model, step), fitted on validation
    data by ``cascading.estimate_sigma``.
    """

    query_ids: np.ndarray
    quality_mean: np.ndarray
    cost_mean: np.ndarray
    true_quality: Optional[np.ndarray] = None
    true_cost: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.query_ids = np.asarray(self.query_ids, dtype=np.int64)
        for name in ("quality_mean", "cost_mean"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n, s, k = self.quality_mean.shape
        if s != k + 1:
            raise ValueError("step axis must have length n_models + 1")
        if self.cost_mean.shape != (n, s, k):
            raise ValueError("cost_mean shape disagrees with quality_mean")
        if self.query_ids.shape != (n,):
            raise ValueError("query_ids length disagrees with estimates")
        _require_ids(self)
        _require_finite(self, ("quality_mean", "cost_mean"))
        if np.any(self.cost_mean < 0):
            raise ValueError("cost estimate means must be >= 0")
        for name in ("true_quality", "true_cost"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=np.float64)
                if arr.shape != (n, k):
                    raise ValueError(f"{name} must be (n_queries, n_models)")
                setattr(self, name, arr)
                _require_finite(self, (name,))
        if self.true_cost is not None and np.any(self.true_cost < 0):
            raise ValueError("true costs must be >= 0")

    @staticmethod
    def build(
        quality_mean,
        cost_mean,
        true_quality=None,
        true_cost=None,
        query_ids=None,
    ) -> "EstimateTable":
        """Build a table from per-(query, model) arrays, broadcast over steps.

        Convenience for tests and for data whose estimates do not change as
        models are computed. 2-D means of shape ``(n, k)`` are repeated on
        the step axis; 3-D means are taken as-is.
        """
        qm = np.asarray(quality_mean, dtype=np.float64)
        if qm.ndim != 2 and qm.ndim != 3:
            raise ValueError("quality_mean must be 2-D or 3-D")
        n, k = (qm.shape[0], qm.shape[-1])

        def expand(x):
            a = np.asarray(x, dtype=np.float64)
            if a.ndim == 3:
                return a.copy()
            a = np.broadcast_to(a, (n, k))
            return np.repeat(a[:, None, :], k + 1, axis=1)

        if query_ids is None:
            query_ids = np.arange(n)
        return EstimateTable(
            query_ids=np.asarray(query_ids),
            quality_mean=expand(qm),
            cost_mean=expand(cost_mean),
            true_quality=None if true_quality is None else np.asarray(true_quality, dtype=np.float64),
            true_cost=None if true_cost is None else np.asarray(true_cost, dtype=np.float64),
        )

    @property
    def n_queries(self) -> int:
        return self.quality_mean.shape[0]

    @property
    def n_models(self) -> int:
        return self.quality_mean.shape[2]

    @property
    def computed_cost(self) -> np.ndarray:
        """(n, k) cost charged for a computed model.

        The observed cost when the table carries ground truth, else the
        all-computed estimate. A view: copy before writing to it.
        """
        if self.true_cost is not None:
            return self.true_cost
        return self.cost_mean[:, self.n_models, :]

    def best_computed(self, rows: np.ndarray, computed: np.ndarray, t: int) -> np.ndarray:
        """Per row, the computed model whose quality estimate at step ``t`` is highest.

        ``computed`` is a ``(len(rows), k)`` bool mask with at least one model
        set per row; estimates are read with ``regime_steps``. Exact ties fall
        to the lowest model index.
        """
        idx = np.arange(self.n_models)
        est = self.quality_mean[rows[:, None], regime_steps(computed, t), idx]
        return np.where(computed, est, -np.inf).argmax(axis=1)

    def subset(self, indices) -> "EstimateTable":
        idx = np.asarray(indices, dtype=np.int64)
        return EstimateTable(
            query_ids=self.query_ids[idx],
            quality_mean=self.quality_mean[idx],
            cost_mean=self.cost_mean[idx],
            true_quality=None if self.true_quality is None else self.true_quality[idx],
            true_cost=None if self.true_cost is None else self.true_cost[idx],
        )

    def reorder_models(self, perm: Sequence[int]) -> "EstimateTable":
        """Permute model columns; step semantics follow the new order."""
        p = list(perm)
        if sorted(p) != list(range(self.n_models)):
            raise ValueError("perm must be a permutation of model indices")
        return EstimateTable(
            query_ids=self.query_ids,
            quality_mean=self.quality_mean[:, :, p],
            cost_mean=self.cost_mean[:, :, p],
            true_quality=None if self.true_quality is None else self.true_quality[:, p],
            true_cost=None if self.true_cost is None else self.true_cost[:, p],
        )
