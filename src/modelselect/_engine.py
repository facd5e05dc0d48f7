"""Vectorized cascade simulation over an estimate table.

Candidate supermodels are bitmasks over model indices. At decision step t
every still-active query has computed exactly t models, so queries can be
grouped by their computed prefix and each group scored on the shared lattice
of free-model submasks at once.

Everything about a prefix that does not depend on the price is cached with
the prefix, as two ``(n, 2^f)`` tables over the f free models:

- the expected-max quality of every candidate, from the query's shared
  Monte Carlo draws;
- the block threshold ``beta``: the smallest marginal gain per unit cost,
  ``(q(T) - q(T - {j})) / c_j``, over every subset T of the candidate and
  member j of T. The sunk cost cancels from a marginal gain, so pruning at
  price ``lam`` is the single test ``lam > beta``; it removes each candidate
  with a negative marginal gain together with all its supersets.

A table row is filled the first time its query reaches the prefix, so only
reached (prefix, query) pairs are ever computed, and every later run at any
price, pick or budget reads them back. That reuse is what makes fitting
affordable. Chain-only engines cache the expected maxima of chain prefixes
per step instead, built with a running elementwise maximum in one buffer.

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


@lru_cache(maxsize=None)
def _lattice_tables(k: int) -> _LatticeTables:
    masks = np.arange(1 << k, dtype=np.int64)
    bit_set = ((masks[None, :] >> np.arange(k)[:, None]) & 1).astype(bool)
    bits = bit_set.T.astype(np.float64)
    parent = masks[None, :] & ~(np.int64(1) << np.arange(k, dtype=np.int64))[:, None]
    popcount = bit_set.sum(axis=0)
    return _LatticeTables(masks, bits, bit_set, parent, popcount)


@dataclass(frozen=True)
class _PrefixTables:
    """Price-independent tables of one computed prefix, filled row by row.

    Rows index the engine's table and columns the free-model submasks; only
    rows whose ``filled`` flag is set hold computed values.
    """

    quality: np.ndarray  # (n, 2^f) expected-max quality of prefix | submask
    beta: Optional[np.ndarray]  # (n, 2^f) block threshold; None when not pruning
    filled: np.ndarray  # (n,) bool


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
        self._prefix_cache: dict[int, _PrefixTables] = {}
        self._cost_open_cache: dict[int, np.ndarray] = {}

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
        """(n, k) column i: quality of the chain prefix of length i + 1."""
        cached = self._chain_quality_cache.get(t)
        if cached is not None:
            return cached
        means = self.table.quality_mean[:, t, :]
        stds = self.sigma[:, t]
        if self.variant is Variant.NO_EXPECT or np.all(stds == 0):
            out = np.maximum.accumulate(means, axis=1)
        else:
            vals = self._draws() * stds[None, :, None]
            vals += means[:, :, None]
            for i in range(1, vals.shape[1]):
                np.maximum(vals[:, i - 1], vals[:, i], out=vals[:, i])
            out = vals.mean(axis=2)
        self._chain_quality_cache[t] = out
        return out

    def _regime_state(self, prefix: int, t: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Effective (means (rows, k), stds (k,)) given the computed set."""
        idx = np.arange(self.table.n_models)
        steps = regime_steps((prefix >> idx) & 1 == 1, t)
        means = self.table.quality_mean[rows[:, None], steps[None, :], idx[None, :]]
        stds = self.sigma[idx, steps]
        return means, stds

    def _cost_open(self, t: int) -> np.ndarray:
        """(n, k) estimated cost of model i while still uncomputed at step t."""
        cached = self._cost_open_cache.get(t)
        if cached is None:
            k = self.table.n_models
            cached = self.table.cost_mean[:, regime_steps(np.zeros(k, dtype=bool), t), np.arange(k)]
            self._cost_open_cache[t] = cached
        return cached

    def _prefix_tables(
        self, prefix: int, t: int, rows: np.ndarray
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """(quality, beta) of ``rows`` given a prefix, each (rows, 2^f).

        Both tables are price-independent and cached per prefix; a row is
        computed the first time it reaches the prefix and read afterwards.
        ``beta`` is None for the SLOW variant, which never prunes.
        """
        tables = self._prefix_cache.get(prefix)
        if tables is None:
            n = self.table.n_queries
            width = 1 << (self.table.n_models - bin(prefix).count("1"))
            tables = _PrefixTables(
                quality=np.empty((n, width)),
                beta=None if self.variant is Variant.SLOW else np.empty((n, width)),
                filled=np.zeros(n, dtype=bool),
            )
            self._prefix_cache[prefix] = tables
        todo = rows[~tables.filled[rows]]
        if todo.size:
            quality = self._lattice_quality(prefix, t, todo)
            tables.quality[todo] = quality
            if tables.beta is not None:
                free = [i for i in range(self.table.n_models) if not prefix >> i & 1]
                cost = self._cost_open(t)[todo][:, free]
                tables.beta[todo] = _block_threshold(quality, cost, prefix == 0)
            tables.filled[todo] = True
        beta = None if tables.beta is None else tables.beta[rows]
        return tables.quality[rows], beta

    def _lattice_quality(self, prefix: int, t: int, rows: np.ndarray) -> np.ndarray:
        """(rows, 2^f) candidate quality per free-model submask given a prefix.

        Column ``s`` scores the supermodel ``prefix | spread(s)``; column 0
        (the bare prefix) is NaN when the prefix is empty. Sample maxima are
        accumulated up the sublattice, one elementwise maximum per submask.
        """
        k = self.table.n_models
        means, stds = self._regime_state(prefix, t, rows)
        free = [i for i in range(k) if not prefix >> i & 1]
        pcols = [i for i in range(k) if prefix >> i & 1]
        f = len(free)
        n = rows.size
        out = np.full((n, 1 << f), np.nan)
        low_idx = [0] * (1 << f)
        for sub in range(1, 1 << f):
            low_idx[sub] = (sub & -sub).bit_length() - 1

        if self.variant is Variant.NO_EXPECT or np.all(stds == 0):
            if pcols:
                out[:, 0] = means[:, pcols].max(axis=1)
            for sub in range(1, 1 << f):
                j = low_idx[sub]
                rest = sub ^ (1 << j)
                if rest == 0 and not pcols:
                    out[:, sub] = means[:, free[j]]
                else:
                    np.maximum(out[:, rest], means[:, free[j]], out=out[:, sub])
        else:
            n_samples = 2 * self.mc.half
            chunk = max(8, int(4_000_000 // (n_samples * (1 << f))) or 8)
            draws = self._draws()
            for start in range(0, n, chunk):
                part = slice(start, min(start + chunk, n))
                vals = means[part, :, None] + stds[None, :, None] * draws[rows[part]]
                store: list = [None] * (1 << f)
                if pcols:
                    store[0] = vals[:, pcols].max(axis=1)
                    out[part, 0] = store[0].mean(axis=1)
                for sub in range(1, 1 << f):
                    j = low_idx[sub]
                    rest = sub ^ (1 << j)
                    prev = store[rest]
                    sm = vals[:, free[j]] if prev is None else np.maximum(prev, vals[:, free[j]])
                    store[sub] = sm
                    out[part, sub] = sm.mean(axis=1)
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

        Queries are grouped by their computed prefix; within a group every
        candidate is the prefix plus a submask of the free models, scored on
        the shared free-model sublattice. The group's rows of the prefix's
        quality and block-threshold tables are filled on first use and read
        afterwards; a candidate is pruned when ``lam > beta``, which is the
        negative-marginal-gain rule closed over supersets. Submask order is
        ascending in the full candidate mask, which implements the lowest-id
        residual tie-break.
        """
        k = self.table.n_models
        pmask = prefix_mask[act]
        cost_open = self._cost_open(t)
        chosen = np.empty(act.size, dtype=np.int64)

        for prefix in np.unique(pmask):
            in_group = pmask == prefix
            rows = act[in_group]
            free = [i for i in range(k) if not prefix >> i & 1]
            f = len(free)
            tabs = _lattice_tables(f)
            spread = np.array([1 << i for i in free], dtype=np.int64)
            full_masks = prefix + (tabs.bit_set.T.astype(np.int64) @ spread)

            quality, beta = self._prefix_tables(int(prefix), t, rows)
            added = cost_open[rows][:, free] @ tabs.bits.T if f else np.zeros((rows.size, 1))
            cost = sunk[rows][:, None] + added
            tau = quality - lam * cost

            selectable = np.ones((rows.size, 1 << f), dtype=bool)
            if prefix == 0:
                selectable[:, 0] = False  # running nothing is never a candidate
            if self.variant is Variant.GREEDY:
                selectable &= tabs.popcount[None, :] <= 1
            if beta is not None:
                selectable &= ~(lam > beta)

            choice = argmax_tradeoff_rows(tau, cost, selectable, pick)
            chosen[in_group] = full_masks[choice]
        return chosen

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
        result = self.run(lambdas, pick)
        return (
            float(self.realized_quality(result).mean()),
            float(result.realized_cost.mean()),
        )

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
