"""Vectorized cascade simulation over an estimate table.

Candidate supermodels are bitmasks over model indices. At decision step t
every still-active query has computed exactly t models, so every query
scores the same number of candidates: its computed prefix plus each submask
of its f = k - t free models. One step is therefore one selection over an
``(active rows, 2^f)`` score matrix, whatever mix of prefixes the rows hold.

Everything about a prefix that does not depend on the price is cached per
step, as two ``(C(k, t), n, 2^f)`` tables indexed by prefix rank (the
prefix's position among the C(k, t) masks with t bits), table row and
free-model submask:

- the expected-max quality of every candidate, from the query's shared
  Monte Carlo draws;
- the block threshold ``beta``: the smallest marginal gain per unit cost,
  ``(q(T) - q(T - {j})) / c_j``, over every subset T of the candidate and
  member j of T. The sunk cost cancels from a marginal gain, so pruning at
  price ``lam`` is the single test ``lam > beta``; it removes each candidate
  with a negative marginal gain together with all its supersets.

A step's tables are allocated when the step is first reached, and a
(prefix, row) pair is filled the first time its query reaches the prefix, so
only reached pairs are ever computed, and every later run at any price,
pick or budget reads them back with one gather. That reuse is what makes
fitting affordable. The pairs a run reaches for the first time at a step
are filled together, whatever prefixes they hold: every row has f free
models, so one depth-first walk over f free-model slots serves them all.
Chain-only engines cache the expected maxima of chain prefixes per step
instead, built with a running elementwise maximum. Both cold fills work
through the rows in chunks, so their working copy of the scaled draws is
one cache-sized ``(chunk, k, S)`` block.

``run_metrics`` keeps the realized (quality, cost) means of every
(prices, pick) it has run, since fitting asks for the same run again.

The Monte Carlo draws are held as one ``(n, k, S)`` tensor: row r holds the
transposed ``query_normals`` matrix of query ``query_ids[r]``, so the S
samples of each model are contiguous. Reading a model's samples is then a
contiguous slice, and every expected maximum is a mean over a contiguous
run of S samples, which sums in the same order as
``EmaxEvaluator.expected_max`` and so gives the same value to the last bit.

This module is internal; the public per-query operations live in
``cascading`` and ``cascade_routing`` and are cross-checked against it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import EstimateTable, Pick, StrategyParams, argmax_tradeoff_rows, regime_steps
from .montecarlo import MonteCarloConfig, query_normals


class Variant(Enum):
    """Cascade-routing execution variants.

    DEFAULT prunes via negative marginal gains; SLOW skips pruning and scores
    the full lattice; GREEDY only considers stopping or adding one model;
    NO_EXPECT scores a candidate by its best single mean instead of the
    expected maximum.
    """

    DEFAULT = "default"
    SLOW = "slow"
    GREEDY = "greedy"
    NO_EXPECT = "no_expect"


def check_decision_inputs(
    n_models: int,
    sigma: Optional[np.ndarray] = None,
    lambdas: Optional[Sequence[float]] = None,
) -> None:
    """Reject inputs that would otherwise become a silent wrong decision.

    Shared by the engine and the per-query paths: ``sigma`` must be a finite,
    nonnegative ``(n_models, n_models + 1)`` matrix and ``lambdas`` must hold
    one price per model. Arguments left as None are not checked.
    """
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (n_models, n_models + 1):
            raise ValueError("sigma must be shaped (n_models, n_models + 1)")
        if not (np.isfinite(sigma) & (sigma >= 0)).all():
            raise ValueError("sigma must be finite and >= 0")
    if lambdas is not None and np.shape(lambdas) != (n_models,):
        raise ValueError("lambdas must have one entry per model")


@dataclass(frozen=True)
class _LatticeTables:
    masks: np.ndarray  # (2^k,) ascending
    bits: np.ndarray  # (2^k, k) float, bits[mask, m]
    bit_set: np.ndarray  # (k, 2^k) bool
    parent: np.ndarray  # (k, 2^k) int, mask with bit m cleared
    popcount: np.ndarray  # (2^k,)
    rank: np.ndarray  # (2^k,) position of a mask among the masks of its popcount


@lru_cache(maxsize=None)
def _lattice_tables(k: int) -> _LatticeTables:
    masks = np.arange(1 << k, dtype=np.int64)
    bit_set = ((masks[None, :] >> np.arange(k)[:, None]) & 1).astype(bool)
    bits = bit_set.T.astype(np.float64)
    parent = masks[None, :] & ~(np.int64(1) << np.arange(k, dtype=np.int64))[:, None]
    popcount = bit_set.sum(axis=0)
    rank = np.empty_like(masks)
    for t in range(k + 1):
        rank[popcount == t] = np.arange(np.count_nonzero(popcount == t))
    return _LatticeTables(masks, bits, bit_set, parent, popcount, rank)


@dataclass(frozen=True)
class _StepLayout:
    """The prefixes of step t (t models computed) in rank order, and their lattices."""

    prefixes: np.ndarray  # (C(k,t),) ascending
    free: np.ndarray  # (C(k,t), f) free models of each prefix, ascending
    full_masks: np.ndarray  # (C(k,t), 2^f) candidate mask of each free-model submask


@lru_cache(maxsize=None)
def _step_layout(k: int, t: int) -> _StepLayout:
    tabs = _lattice_tables(k)
    prefixes = tabs.masks[tabs.popcount == t]
    free = np.nonzero(~tabs.bit_set[:, prefixes].T)[1].reshape(prefixes.size, k - t)
    submasks = _lattice_tables(k - t).bit_set.T.astype(np.int64)
    full_masks = prefixes[:, None] + (np.int64(1) << free) @ submasks.T
    return _StepLayout(prefixes, free, full_masks)


@dataclass(frozen=True)
class _StepTables:
    """Price-independent tables of every prefix of one step, filled by (prefix, row).

    Axes are prefix rank, the engine's table row and the free-model submask;
    only pairs whose ``filled`` flag is set hold computed values.
    """

    quality: np.ndarray  # (C(k,t), n, 2^f) expected-max quality of prefix | submask
    beta: Optional[np.ndarray]  # (C(k,t), n, 2^f) block threshold; None when not pruning
    filled: np.ndarray  # (C(k,t), n) bool


def _block_threshold(quality: np.ndarray, cost: np.ndarray, empty_prefix: bool) -> np.ndarray:
    """Largest price at which each submask survives pruning, per row.

    ``beta(S) = min over T ⊆ S, j ∈ T of (q(T) - q(T - {j})) / c_j``: a
    candidate is blocked at price ``lam`` exactly when ``lam > beta(S)``,
    i.e. when some subset of it loses score by adding one of its members.
    The sunk cost cancels from every marginal gain, so ``beta`` does not
    depend on the price. A zero-cost member blocks at every price when its
    gain is negative and never otherwise. Against the empty prefix a
    singleton has no marginal gain, and the bare prefix is never blocked.
    """
    f = cost.shape[1]
    tabs = _lattice_tables(f)
    beta = np.full(quality.shape, np.inf)
    for j in range(f):
        cols = tabs.masks[tabs.bit_set[j]]
        par = tabs.parent[j][cols]
        if empty_prefix:
            cols, par = cols[par != 0], par[par != 0]
        dq = quality[:, cols] - quality[:, par]
        c = cost[:, j : j + 1]
        ratio = np.divide(dq, c, out=np.where(dq < 0, -np.inf, np.inf), where=c > 0)
        beta[:, cols] = np.minimum(beta[:, cols], ratio)
    for j in range(f):
        cols = tabs.masks[tabs.bit_set[j]]
        beta[:, cols] = np.minimum(beta[:, cols], beta[:, tabs.parent[j][cols]])
    return beta


# Rows per chunk of a cold fill: one (chunk, k, S) block of scaled draws
# stays cache-sized, 64 rows at S = 512.
_CHUNK_CELLS = 1 << 15


def _row_chunks(n: int, n_samples: int):
    """Contiguous slices covering ``range(n)``, ``_CHUNK_CELLS // n_samples`` rows each."""
    chunk = max(1, _CHUNK_CELLS // n_samples)
    return [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]


def _descend(out: np.ndarray, vals: np.ndarray, sub: int, low: int, block: Optional[np.ndarray]) -> None:
    """Fill ``out`` for each submask that extends ``sub`` by free models below ``low``.

    ``vals[:, j]`` holds the (rows, S) samples of free model j and ``block``
    the running sample maximum of ``sub`` (None for the empty submask). Each
    child ``sub | 1 << j`` takes one more bit below ``sub``'s lowest, so the
    submask tree is walked depth first and only the blocks on one
    root-to-leaf path, at most f + 1, are alive.
    """
    for j in range(low):
        child = sub | 1 << j
        sm = vals[:, j] if block is None else np.maximum(block, vals[:, j])
        out[:, child] = sm.mean(axis=1)
        _descend(out, vals, child, j, sm)


@dataclass
class RunResult:
    """Per-query outcome of one deterministic cascade run."""

    answer: np.ndarray
    exec_order: np.ndarray
    n_executed: np.ndarray
    realized_cost: np.ndarray

    def executed_list(self, q: int) -> tuple[int, ...]:
        return tuple(int(m) for m in self.exec_order[q, : self.n_executed[q]])


class BatchCascadeEngine:
    """Runs a whole table through a cascade (routing) strategy at once.

    ``chain_only`` restricts candidates to chain prefixes of the model order
    and always executes the next chain model, which is exactly the plain
    cascading strategy. Plain cascading answers with the last computed
    model; cascade routing is not bound by that restriction and answers
    with ``EstimateTable.best_computed``. Expected-max columns depend only
    on the table, the uncertainty matrix and the step, so one engine
    instance can be reused across budgets and hyperparameter evaluations.
    """

    def __init__(
        self,
        table: EstimateTable,
        sigma: np.ndarray,
        mc: Optional[MonteCarloConfig] = None,
        variant: Variant = Variant.DEFAULT,
        chain_only: bool = False,
    ):
        self.table = table
        check_decision_inputs(table.n_models, sigma=sigma)
        self.sigma = np.asarray(sigma, dtype=np.float64)
        self.mc = mc or MonteCarloConfig()
        self.variant = variant
        self.chain_only = chain_only
        self._z: Optional[np.ndarray] = None
        self._chain_quality_cache: dict[int, np.ndarray] = {}
        self._step_cache: dict[int, _StepTables] = {}
        self._cost_open_cache: dict[int, np.ndarray] = {}
        self._metrics_cache: dict[tuple[tuple[float, ...], Pick], tuple[float, float]] = {}

    # -- expected-max columns -------------------------------------------------

    def _draws(self) -> np.ndarray:
        if self._z is None:
            n, k = self.table.n_queries, self.table.n_models
            z = np.empty((n, k, 2 * self.mc.half))
            for row, qid in enumerate(self.table.query_ids):
                z[row] = query_normals(self.mc, int(qid), k).T
            self._z = z
        return self._z

    def _chain_quality(self, t: int) -> np.ndarray:
        """(n, k) column i: quality of the chain prefix of length i + 1.

        Built row chunk by row chunk, so the working copy of the scaled draws
        is one cache-sized ``(chunk, k, S)`` block, not a copy of the tensor.
        """
        cached = self._chain_quality_cache.get(t)
        if cached is not None:
            return cached
        means = self.table.quality_mean[:, t, :]
        stds = self.sigma[:, t]
        if self.variant is Variant.NO_EXPECT or np.all(stds == 0):
            out = np.maximum.accumulate(means, axis=1)
        else:
            z = self._draws()
            out = np.empty(means.shape)
            for part in _row_chunks(z.shape[0], z.shape[2]):
                vals = z[part] * stds[None, :, None]
                vals += means[part, :, None]
                for i in range(1, vals.shape[1]):
                    np.maximum(vals[:, i - 1], vals[:, i], out=vals[:, i])
                out[part] = vals.mean(axis=2)
        self._chain_quality_cache[t] = out
        return out

    def _cost_open(self, t: int) -> np.ndarray:
        """(n, k) estimated cost of model i while still uncomputed at step t."""
        cached = self._cost_open_cache.get(t)
        if cached is None:
            k = self.table.n_models
            cached = self.table.cost_mean[:, regime_steps(np.zeros(k, dtype=bool), t), np.arange(k)]
            self._cost_open_cache[t] = cached
        return cached

    def _step_tables(
        self, t: int, ranks: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(quality, beta) of each row given its prefix rank at step t, each (rows, 2^f).

        Both tables are price-independent and cached per step; a (prefix, row)
        pair is computed the first time the row reaches the prefix and read
        afterwards. All pairs a step reaches for the first time are filled by
        one ``_lattice_quality`` call, whatever prefixes they hold. ``beta``
        is None for the SLOW variant, which never prunes.
        """
        k = self.table.n_models
        layout = _step_layout(k, t)
        tables = self._step_cache.get(t)
        if tables is None:
            shape = (layout.prefixes.size, self.table.n_queries, 1 << (k - t))
            tables = _StepTables(
                quality=np.empty(shape),
                beta=None if self.variant is Variant.SLOW else np.empty(shape),
                filled=np.zeros(shape[:2], dtype=bool),
            )
            self._step_cache[t] = tables
        todo = ~tables.filled[ranks, rows]
        if todo.any():
            new_ranks, fill = ranks[todo], rows[todo]
            quality = self._lattice_quality(t, layout.prefixes[new_ranks], fill)
            tables.quality[new_ranks, fill] = quality
            if tables.beta is not None:
                cost = self._cost_open(t)[fill[:, None], layout.free[new_ranks]]
                tables.beta[new_ranks, fill] = _block_threshold(quality, cost, t == 0)
            tables.filled[new_ranks, fill] = True
        beta = None if tables.beta is None else tables.beta[ranks, rows]
        return tables.quality[ranks, rows], beta

    def _lattice_quality(self, t: int, prefixes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(rows, 2^f) candidate quality per free-model submask of each row's prefix.

        Row i has computed the t models set in ``prefixes[i]``; its column
        ``s`` scores the supermodel ``prefixes[i] | spread(s)`` over that
        row's f = k - t free models in ascending order, and column 0 (the
        bare prefix) is NaN at t = 0. Each row is read in its own regime
        (``core.regime_steps``) and its draws are gathered as (row, model)
        blocks, members first, so one depth-first walk over f free models
        (``_descend``) serves every prefix. Row chunks keep one
        ``(chunk, k, S)`` block cache-sized. Rows without sampling (NO_EXPECT,
        or no uncertainty in their regime) take the same walk with S = 1 on
        the means.
        """
        k = self.table.n_models
        idx = np.arange(k)
        computed = (prefixes[:, None] >> idx) & 1 == 1
        # per row, its t members then its f free models, each ascending
        cols = np.argsort(~computed, axis=1, kind="stable")
        steps = np.take_along_axis(regime_steps(computed, t), cols, axis=1)
        means = self.table.quality_mean[rows[:, None], steps, cols]
        stds = self.sigma[cols, steps]
        sampled = (stds != 0).any(axis=1) & (self.variant is not Variant.NO_EXPECT)
        f = k - t
        out = np.empty((rows.size, 1 << f))
        for group, n_samples in ((np.flatnonzero(~sampled), 1), (np.flatnonzero(sampled), 2 * self.mc.half)):
            for part in _row_chunks(group.size, n_samples):
                sel = group[part]
                if n_samples == 1:
                    vals = means[sel, :, None]
                else:
                    vals = self._draws()[rows[sel, None], cols[sel]]
                    vals *= stds[sel, :, None]
                    vals += means[sel, :, None]
                block = np.empty((sel.size, 1 << f))
                root = vals[:, :t].max(axis=1) if t else None
                block[:, 0] = np.nan if root is None else root.mean(axis=1)
                _descend(block, vals[:, t:], 0, f, root)
                out[sel] = block
        return out

    # -- one decision step ----------------------------------------------------

    def _select_chain(self, t, lam, pick, act, sunk):
        k = self.table.n_models
        qc = self._chain_quality(t)[act]
        cm_t = self.table.cost_mean[act, t, :]
        cum = np.cumsum(cm_t, axis=1)
        n_act = act.size
        n_cont = k - t
        has_stop = t >= 1
        width = n_cont + (1 if has_stop else 0)
        tau = np.empty((n_act, width))
        cost = np.empty((n_act, width))
        col = 0
        if has_stop:
            cost[:, 0] = sunk[act]
            tau[:, 0] = qc[:, t - 1] - lam * cost[:, 0]
            col = 1
        prior = cum[:, t - 1] if t >= 1 else 0.0
        for i0 in range(t, k):
            added = cum[:, i0] - prior
            cost[:, col] = sunk[act] + added
            tau[:, col] = qc[:, i0] - lam * cost[:, col]
            col += 1
        valid = np.ones_like(tau, dtype=bool)
        choice = argmax_tradeoff_rows(tau, cost, valid, pick)
        if has_stop:
            length = np.where(choice == 0, t, t + choice)
        else:
            length = t + choice + 1
        chain_masks = (np.int64(1) << length.astype(np.int64)) - 1
        return chain_masks

    def _select_lattice(self, t, lam, pick, act, prefix_mask, sunk):
        """Pick one candidate supermodel per active query.

        Every active query has computed exactly t models, so each scores the
        same 2^(k-t) columns: its prefix plus each submask of its free models,
        in ascending free-submask order, which is ascending in the full
        candidate mask and so implements the lowest-id residual tie-break.
        Quality and block thresholds are gathered from the step's tables by
        (prefix rank, row); a candidate is pruned when ``lam > beta``, which
        is the negative-marginal-gain rule closed over supersets. One
        selection covers all prefixes of the step.
        """
        k = self.table.n_models
        layout = _step_layout(k, t)
        ranks = _lattice_tables(k).rank[prefix_mask[act]]
        quality, beta = self._step_tables(t, ranks, act)
        tabs = _lattice_tables(k - t)
        added = np.take_along_axis(self._cost_open(t)[act], layout.free[ranks], axis=1) @ tabs.bits.T
        cost = sunk[act][:, None] + added
        tau = quality - lam * cost

        selectable = np.ones(tau.shape, dtype=bool)
        if t == 0:
            selectable[:, 0] = False  # running nothing is never a candidate
        if self.variant is Variant.GREEDY:
            selectable &= tabs.popcount[None, :] <= 1
        if beta is not None:
            selectable &= ~(lam > beta)

        choice = argmax_tradeoff_rows(tau, cost, selectable, pick)
        return layout.full_masks[ranks, choice]

    # -- full run ---------------------------------------------------------------

    def run(self, lambdas: Sequence[float], pick: Pick) -> RunResult:
        table = self.table
        n, k = table.n_queries, table.n_models
        check_decision_inputs(k, lambdas=lambdas)
        lams = np.asarray(lambdas, dtype=np.float64)
        prefix_mask = np.zeros(n, dtype=np.int64)
        prefix_bits = np.zeros((n, k), dtype=bool)
        sunk = np.zeros(n)
        last_model = np.full(n, -1, dtype=np.int64)
        exec_order = np.full((n, k), -1, dtype=np.int64)
        n_exec = np.zeros(n, dtype=np.int64)
        stopped = np.zeros(n, dtype=bool)

        answer = np.full(n, -1, dtype=np.int64)

        def finish(rows: np.ndarray, t: int) -> None:
            stopped[rows] = True
            if self.chain_only or rows.size == 0:
                answer[rows] = last_model[rows]
            else:
                answer[rows] = table.best_computed(rows, prefix_bits[rows], t)

        for t in range(k + 1):
            act = np.flatnonzero(~stopped)
            if act.size == 0:
                break
            if t == k:
                finish(act, t)
                break
            lam = float(lams[t])
            if self.chain_only:
                chosen = self._select_chain(t, lam, pick, act, sunk)
            else:
                chosen = self._select_lattice(t, lam, pick, act, prefix_mask, sunk)
            stay = chosen == prefix_mask[act]
            finish(act[stay], t)
            go = act[~stay]
            if go.size == 0:
                continue
            if self.chain_only:
                nxt = np.full(go.size, t, dtype=np.int64)
            else:
                chosen_go = chosen[~stay]
                cand_bits = ((chosen_go[:, None] >> np.arange(k)[None, :]) & 1).astype(bool)
                cand_bits &= ~prefix_bits[go]
                cm_open = self._cost_open(t)[go]
                nxt = np.where(cand_bits, cm_open, np.inf).argmin(axis=1)
            prefix_mask[go] |= np.int64(1) << nxt
            prefix_bits[go, nxt] = True
            sunk[go] += table.computed_cost[go, nxt]
            exec_order[go, t] = nxt
            last_model[go] = nxt
            n_exec[go] += 1

        if np.any(n_exec == 0):
            raise RuntimeError("a query finished without executing any model")
        return RunResult(
            answer=answer,
            exec_order=exec_order,
            n_executed=n_exec,
            realized_cost=sunk,
        )

    def realized_quality(self, result: RunResult) -> np.ndarray:
        if self.table.true_quality is None:
            raise ValueError("realized quality needs ground truth in the table")
        return self.table.true_quality[np.arange(self.table.n_queries), result.answer]

    def run_metrics(self, lambdas: Sequence[float], pick: Pick) -> tuple[float, float]:
        """Realized mean (quality, cost) of one run, memoized per (prices, pick).

        A run is deterministic, so a repeated call returns the stored pair of
        floats without running again; no ``RunResult`` is kept.
        """
        check_decision_inputs(self.table.n_models, lambdas=lambdas)
        key = (tuple(float(lam) for lam in lambdas), pick)
        metrics = self._metrics_cache.get(key)
        if metrics is None:
            result = self.run(lambdas, pick)
            metrics = (
                float(self.realized_quality(result).mean()),
                float(result.realized_cost.mean()),
            )
            self._metrics_cache[key] = metrics
        return metrics

    def params_metrics(self, params: StrategyParams) -> tuple[float, float]:
        """Realized (quality, cost) of the mixed strategy, exact in gamma.

        The mixing coin is flipped once per query, so the mixture's averages
        are the gamma-weighted averages of the two deterministic runs.
        """
        g = params.gamma
        if g == 0.0:
            return self.run_metrics(params.lambdas, Pick.MAX_COST)
        q_min, c_min = self.run_metrics(params.lambdas, Pick.MIN_COST)
        if g == 1.0:
            return q_min, c_min
        q_max, c_max = self.run_metrics(params.lambdas, Pick.MAX_COST)
        return g * q_min + (1 - g) * q_max, g * c_min + (1 - g) * c_max
