"""Vectorized cascade simulation over an estimate table.

Candidate supermodels are bitmasks over model indices. At decision step t
every still-active query has computed exactly t models, so every query
scores the same number of candidates: its computed prefix extended by each
column of the step's layout (``_StepLayout``). Cascade routing scores every
submask of its f = k - t free models, 2^f columns; cascading is cascade
routing restricted to chain prefixes, so a chain-only step has the one
prefix of the first t models and f + 1 columns, the bare prefix and each
longer chain prefix. One cascade-routing step is therefore one selection
over an ``(active rows, columns)`` score matrix, whatever mix of prefixes
the rows hold. Cascading scores the same columns, but a chain's choice is
only stop or continue, so its runs take one pass over per-step price
thresholds instead of the step loop (below, "Cascading runs").

Everything about a cascade-routing prefix that does not depend on the price
is cached per step, in ``(prefixes, n, columns)`` tables indexed by prefix
rank (the prefix's position in the layout), table row and column:

- the expected-max quality of every candidate, from the query's shared
  Monte Carlo draws;
- for pruning variants, the block threshold ``beta``: the smallest
  marginal gain per unit cost, ``(q(T) - q(T - {j})) / c_j``, over every
  subset T of the candidate and member j of T. The sunk cost cancels from a
  marginal gain, so pruning at price ``lam`` is the single test
  ``lam > beta``; it removes each candidate with a negative marginal gain
  together with all its supersets. It is packed one ``(columns,)`` row per
  filled pair, in fill order, and found through a ``(prefixes, n)`` row
  index;
- the model each column runs next: the cheapest added model by open cost,
  lowest id on ties;
- per (prefix, row), the answer of a query that stops there:
  ``EstimateTable.best_computed`` at step t;
- per compiled (prefix, row), its price cells: float32 ``lo`` and ``hi``
  and the unsigned column ``win``, 9 bytes per slot, as many slots as the
  step's widest envelope plus a sentinel.

Both model tables are int8: candidate and prefix masks are int64, so k is
at most 64 and every id, and the -1 of "no model", fits.

Each layout also holds the next step's rank of every prefix plus each of
its free models. A run therefore tracks a query by its prefix rank: a step
picks a column per row, then either stops the query (column 0) with the
cached answer or runs the cached next model and moves to that model's child
rank.

Price cells. Once a (prefix, row) pair is filled, its choice is piecewise
constant in the price: every candidate is the line ``q_S - lam * c_S``, and
the sunk cost shifts all lines alike. When a fill is compiled (below), each
pair's upper envelope of the lines of its allowed columns is walked from
price 0 up (``_envelope_path``), and each piece becomes a certified cell
``[lo, hi]`` with the column ``win`` that the full selection returns, under
either pick, at every price in it (``_price_cells``). A step then looks up,
per row, the cell holding its price: one gather of the pair's ``lo`` slots,
one count and two gathers. Only rows that hit no cell (near a breakpoint,
in a guard band, or where columns tie) go through the full selection over
every column, still one ``argmax_tradeoff_rows`` call per step, with no
rows when every row hit; in a step that compiles no fill, every row
does.

Why a cell is exact. A cell certifies ``win`` only where ``tau_win`` beats
every other allowed column ``s`` by more than ``m0 + m1 * lam``, i.e. where
``(q_win - q_s - m0) - lam * (c_win - c_s + m1) > 0``, one linear bound on
the price per column. With ``Q = max |q|`` over the allowed columns and
``C = |sunk| + max added cost``, where ``|sunk|`` is bounded by the sum of
the prefix members' ``|computed_cost|``, every score a selection compares has
``|tau| <= Q + lam * C``, so its tie tolerance ``max(TIE_REL * |tau*|,
TIE_ABS)`` is at most ``TIE_ABS + TIE_REL * (Q + lam * C)``. The margin is
``_CELL_SAFETY = 2`` times that: ``m0 = 2 * (TIE_ABS + TIE_REL * Q)`` and
``m1 = 2 * TIE_REL * C``, computed in one place (``_margins``). The second half covers float error: each score is
a handful of float64 operations on sums of at most k costs, so it is off by
under ``(k + 3) * 2^-53 * (Q + lam * C)``, below 1e-14 of the bound for k up
to 64, against ``TIE_REL = 1e-9``; the bounds of the cell are computed to the
same accuracy. When the step prunes, the cell also ends at ``beta_win``, so
``win`` is selectable throughout. Inside a cell, then, ``win`` is valid,
``tau* = tau_win`` and the tie set is ``{win}``, and both picks return
``win``. Pruned columns only leave the tie set, so the bound over every
allowed column holds with pruning too. Cells are stored as float32 rounded
one float32 step inward (``nextafter``), so rounding only shrinks them, and
a price is compared with them in float64. Cells of one pair are disjoint and
ascending, ``lo`` is made non-decreasing over the slots (which can only
shrink a cell), and slot 0 is a sentinel no price hits, so the slot of the
last ``lo <= lam`` is the one cell that can hold ``lam``.

Which fills are compiled. One rule, per step: a step compiles all its
fills or none, as its first fill decides. It compiles them when that fill
holds ``rows >= max(columns, 64)`` pairs at a step of ``columns`` columns
(``_compiles``), or when step 0 has cells; then every later fill of the
step is compiled too, however small, by one ``_price_cells`` call over the
quality, open cost and block thresholds the fill has just computed. Step
0's first fill holds every row, so a table with ``n >= max(2^k, 64)`` rows
compiles every fill of every step, and a smaller one compiles only the
steps whose first fill is large enough on its own. A step that compiles
no fill skips the lookup. The walk costs about ten numpy calls per
envelope piece and the bounds one pass over ``(pieces, columns)`` per row,
once per fill; a lookup saves the full selection's passes over ``(rows,
columns)`` on every later visit. A small fill, like the handful of pairs a
bisection run or a search proposal reaches for the first time, does not
pay that back through its own lookups alone: on 41-row, 8-model validation
tables, compiling every fill with as many rows as columns made
cascade-routing engine runs 16-20% slower, and no step of theirs compiles
(41 rows are fewer than 64). In a step that compiles, it pays back
through the rows it lets a warm run keep (below, "Delta runs"): a row is
kept only when every step it reached gave it a cell. ``_price_cells``
works row by row (a fill's widest envelope sets its slot count, and ``lo =
+inf`` pads the rest), so a pair's cells do not depend on the fill that
compiled it. On 8 sweeps shaped like the 1000-query, 5-model bench
workload, compiling every fill of such steps, instead of gathering small
fills into batches of ``max(columns, 64)`` pairs, cut the rows taken
through the full selection from 26,928 to 2,532, at 758 ``_price_cells``
calls instead of 234, and the share of the step loop's rows kept from the
reference rose from 74.4% to 76.3%. Where step 0 has no cells, deciding
per step and not per fill matters too: compiling every fill of a step
whose first fill compiled took 17% less process CPU than compiling only
the fills that met ``_compiles`` on their own, and 31% less than
compiling none, in default-config cascade-routing sweeps of a 500-query,
8-model workload (174- and 175-row tables against 256 step-0 columns;
medians of 4 runs each, 2 shared vCPUs).

Block thresholds follow one rule: every filled pair of a pruning step
keeps the ``beta`` row its fill computed, which its compile takes as it
is, so ``_block_threshold`` runs once per pair, in its fill, and no row is
ever released. A row is ``8 * 2^(k - t)`` bytes at step t, so a step holds
``8 * 2^(k - t)`` bytes per filled pair, and its packed table, which
doubles when full, at most as much again in spare capacity: at most
``8 * n * (3^k - 1)`` bytes in use if every pair of every step were filled.

A step's tables are allocated when the step is first reached, and a
(prefix, row) pair is filled the first time its query reaches the prefix, so
only reached pairs are ever computed, and every later run at any price,
pick or budget reads them back with one gather. That reuse is what makes
fitting affordable. The pairs a run reaches for the first time at a step
are filled together, whatever prefixes they hold: every row has f free
models, so one walk over f free-model slots serves them all, depth first
over the submask tree for the lattice and a running maximum for a chain.
The cold fill works through the rows in chunks, model-major: a chunk's
samples are one cache-sized ``(k, chunk, S)`` block, so the walk reads each
model's samples as one contiguous ``(chunk, S)`` block at every node of the
tree. The block is written into one workspace per group of rows (below),
allocated once, the size of the group's first and largest chunk, and reused
by every chunk of the group, so a fill's sample memory does not grow with
its row count.

In the simulated workloads (``estimators.simulate_estimates``) a model's
estimate stops moving once it has run, so ``estimate_sigma`` gives every
computed model zero std in its regime. A sampled row whose t
members all have zero std builds samples for its f free models only, an
``(f, chunk, S)`` block, and the root of its walk, the members' sample
maximum, is its largest member mean written into a contiguous ``(chunk,
S)`` block. That root holds the values the full build gives: with std 0,
``m + 0 * z`` and ``m - 0 * z`` equal ``m`` for every finite mean but
-0.0, and a maximum is exact. A -0.0 mean can only flip the sign of a zero
expected maximum, which no comparison sees. Rows with a varying member,
and unsampled rows, keep the full build; at t = 0 there are no members,
so every sampled row draws all k models. On a 1400-row, 5-model split of
the tall bench workload this cut a fill's time per row at steps 1, 2, 3 and
4 by 6%, 23%, 38% and 61% for the lattice and by 4%, 14%, 45% and 64% for
chains.

Metrics. Fitting asks one question of the engine, again and again: the
realized mean (quality, cost) of a (prices, pick) pair. ``run_many``
answers it for a ``(P, k)`` block of prices and a pick per row, and it is
the engine's one path for it: ``run_metrics`` is ``run_many`` of one pair,
and ``params_metrics`` is ``params_metrics_many`` of one point, whose
mixtures read their deterministic runs from one ``run_many``. A run is
deterministic, so ``run_many`` memoizes every pair's means, keyed by its
prices as floats and whether its pick is the cheap one; it checks the
prices of only the distinct pairs it has not stored and runs each of them
once, so a bisection price asked again, or a search proposal repeated
within a batch, is run once.
The pairs it runs go to the engine's one runner (``_run``), which takes
the same ``(P, k)`` prices and P picks for either engine kind: the step
loop of ``_run_lattice`` for cascade routing and the threshold pass of
``_run_chain`` for a chain. ``run`` is a pass of one pair.

Delta runs. Fitting runs the whole table again and again at nearby prices:
bisection steps, search proposals, the second pick of a pair. So a
cascade-routing engine keeps the outcome of its last one-pair run as a
reference (``_Reference``): per row the answer, execution order and
realized cost, and per step the row reached the float32 cell ``[lo, hi]``
its choice came from. Only an engine whose step 0 has cells keeps a
reference, and there every step compiles, so every reached pair has cells:
a step decided by the full selection is a cell miss and holds the empty
cell, and a step the row never reached holds ``[-inf, +inf]``. A new run
compares every
row's cells with its prices in one ``(n, k)`` comparison, the float32
bounds against the prices as a float64 array. Rows whose cells all hold keep
the reference outcome; only the others go through the steps, written into
copies of the reference arrays, so a run's means are taken over full arrays
as before. When every row is kept, no step runs.

One rule, read off ``_run_lattice``'s input, says which runs replace the
reference: a pass of one pair replaces it when its step 0 has cells, and a
pass of several pairs only reads it. A ``run``, a bisection price, the
floor's run and a search pass that holds one new pair are one-pair passes.

Batched runs. Each step of a run costs a fixed number of numpy calls, so
a warm run on the 1000-query bench sweeps took about 0.45 ms whether it
re-decided 1 row or 10. The local search's proposals are therefore run
several at a time, by either runner. The step loop's rows are (pair,
query) rows, row ``p * n + q``, each with its own price per step and pick.
The rows to re-decide come from one ``(P, n)`` comparison against the
reference; each step then makes one cell lookup and one full selection
over the re-decided rows of every pair, with one ``argmax_tradeoff_rows``
call per pick present (``_argmax_by_pick``), and a (prefix, row) pair that
several pairs reach for the first time is filled once, in rank-major
order. Outcomes go into ``(P, n)`` copies of the
reference arrays, and each pair's means are taken over its own contiguous
``(n,)`` row, so they are a one-pair pass's to the last bit. A single
``run`` is the same step loop with one pair. The counters
``batched_passes`` and ``batched_pairs`` count the passes of more than one
pair, of either engine kind, and the pairs they held, so one-pair passes,
such as the bisection's, are not counted.

Why a kept row is exact. Its cell at step 0 certifies that the full
selection picks the same column at the new price under either pick, so the
row runs the same next model and reaches the same prefix with the same sunk
cost; by induction it makes the same choice at every step it reaches, with
the same stop step, next models, cached answer and running cost sum. Its
``RunResult`` row is therefore identical, even when the pick changes. The
engine's choices always equal the full selection's, so which cell a lookup
would have found does not matter. Nor does which run left the reference:
every run's outcome is exact, so a search pass of one pair leaves the
reference a ``run`` at its prices and pick would leave.

When no reference is kept. Every row reaches step 0, so a run whose step 0
has no compiled fill could keep no row: such an engine keeps no reference
and does no copies or bookkeeping, though its later steps may compile.
That holds for every table too small to compile its first fill, such as
41-row, 8-model validation tables, and for chains, which take no steps
(below). A run that
raises leaves the reference as it was. The reference takes
``9 * n * (k + 1)`` bytes: int8 answers and execution orders, float64 costs
and two float32 cells per step. The counters ``kept_rows`` and
``kept_row_steps`` count what was kept, next to ``cell_hits`` and
``fallback_rows``, so the selections a run would have made are
``cell_hits + fallback_rows + kept_row_steps``.

Cascading runs. A chain row at step t has computed exactly models
0..t - 1, whatever the earlier prices were, so its columns, quality, sunk
cost and stop answer (model t - 1) are fixed per (step, row), and every
column but the bare prefix runs model t next. A chain's choice at step t
therefore depends only on the row, the step and ``lambdas[t]``, and its
outcome only on the step s where it stops: it ran models 0..s - 1, answers
with model s - 1 and paid the running sum of their costs, kept as one
``(k + 1, n)`` table summed in chain order (``0.0 + c0``, then ``+ c1``, and
so on), so it is the step loop's sum to the last bit. Step 0 cannot stop
(running nothing is no candidate), so every row runs model 0 without a
selection, as ``cascading.run_cascade`` does, and step 0 is never filled.

When a (step t >= 1, row) pair is filled, three float64 thresholds are
computed from its columns (``_chain_thresholds``): continuing is certified
at every price ``lam < cont_hi`` and stopping at every price
``stop_lo < lam < stop_hi``. Continuing is certified where some longer
chain c beats stopping by more than the price cells' margin,
``(q_c - q_0 - m0) - lam * (a_c + m1) > 0`` with ``a_c`` the cost chain c
adds; stopping where stopping beats every longer chain by that margin. The
margin is ``_price_cells``' (``_margins``, with ``Q = max |q|`` over the step's columns,
``C`` the members' summed ``|computed_cost|`` plus the largest added cost),
so as there the tie set holds no column 0 in the first case and only
column 0 in the second, and both picks agree with the full selection. The
comparisons are strict and in float64; an unfilled pair certifies nothing.

A pass's rows are (pair, query) rows, row ``p * n + q``, as in the step
loop. It compares every pair's prices with the ``(k + 1, n)`` ``cont_hi``
table in one ``(k + 1, P, n)`` comparison, whose step 0 always continues
and whose step k always stops, and takes each row's first step that is not
a certified continue. A row that certainly stops there is done. The others
take the full selection at that step, the lowest such step first: one
``_chain_continues`` call per step over the rows of every pair at that
step, each with its pair's price and pick, over the same ``(tau, cost,
valid)`` arrays as the step loop (one ``argmax_tradeoff_rows`` call per
pick present). It fills the (step, row) pairs reached for the first time,
each once however many pairs reach it, so each step is filled at most once
per pass; the rows that continue move on to their next such step. A row's outcome depends only on its step, its table row and its
pair's prices, so every pair's outcome is its one-pair pass's, bit for bit.
Counters: ``threshold_row_steps`` and ``exact_selections`` count the
row-steps decided each way (a row decides at steps 1..s, except at step k).

Memory: per (step, row) over steps 0..k, three float64 thresholds and a
fill flag, plus the ``(k + 1, n)`` running costs, and per filled step t an
``(n, f + 1)`` quality table. Chains keep no step tables, price cells,
block thresholds or reference.

The Monte Carlo draws are antithetic: the last S/2 samples of a query are
the negated first S/2. The engine holds only the first half, as one
``(n, k, S/2)`` tensor: row r holds the transposed first half of the
``query_normals`` matrix of query ``query_ids[r]``, bit for bit, drawn by
``montecarlo.half_normals`` with every query's seed computed in one pass.
A fill chunk's block is ``(k, chunk, S)``, or ``(f, chunk, S)`` for rows
with constant members: the stored halves are gathered straight into that
order and scaled, and ``montecarlo.antithetic_samples`` writes
``means + stds * z`` and ``means - stds * z`` into the group's workspace.
That equals scaling the full draws to the last bit, because IEEE negation
is exact: ``(-z) * s == -(z * s)`` and ``m + -(x) == m - x``. The S samples
of each model stay contiguous, so every expected maximum is a mean over a
contiguous run of S samples, which sums in the same order as
``EmaxEvaluator.expected_max`` and so gives the same value to the last bit;
a maximum is exact, whichever axis it runs over. Against the
``(chunk, k, S)`` layout, where one model's samples were strided across the
block, the model-major walk cut a fill's time over all steps by 15-19%
for the lattice and 6-9% for chains, on 1400-, 349- and 41-row subsets of
a 5-model split of the tall bench workload (two in-process A/B runs, best
of 5 calls, 2 shared vCPUs). The saving is largest at step 0, up to 26%,
and none at step k - 1, whose walk reads one free model. ``_block_threshold``
and ``_cheapest_added`` likewise work on ``(columns, rows)`` copies, so
each lattice column they gather is one contiguous row, and return the
``(rows, columns)`` view: 30-41% and 32-45% less time at f = 3 to 5.

This module is internal; the public per-query operations live in
``cascading`` and ``cascade_routing`` and are cross-checked against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import TIE_ABS, TIE_REL, EstimateTable, Pick, StrategyParams, argmax_tradeoff_rows, regime_steps
from .montecarlo import MonteCarloConfig, antithetic_samples, half_normals


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
    one finite, nonnegative price per model. Arguments left as None are not
    checked.
    """
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.shape != (n_models, n_models + 1):
            raise ValueError("sigma must be shaped (n_models, n_models + 1)")
        if not (np.isfinite(sigma) & (sigma >= 0)).all():
            raise ValueError("sigma must be finite and >= 0")
    if lambdas is not None:
        if np.shape(lambdas) != (n_models,):
            raise ValueError("lambdas must have one entry per model")
        if not all(math.isfinite(lam) and lam >= 0 for lam in lambdas):
            raise ValueError("lambdas must be finite and >= 0")


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
    return _LatticeTables(masks, bits, bit_set, parent, bit_set.sum(axis=0))


@dataclass(frozen=True)
class _StepLayout:
    """The prefixes of step t (t models computed) in rank order, and their candidates.

    Column s of a prefix is the candidate that adds the free models set in
    ``bits[s]``. The lattice has every prefix with t bits and every submask
    of its f = k - t free models, in ascending submask order, which is
    ascending in the full candidate mask. A chain has the one prefix
    ``(1 << t) - 1`` and f + 1 columns, the bare prefix and each longer chain
    prefix, so its ``bits`` are lower-triangular. Column 0 is always the bare
    prefix. ``child[p, m]`` is the step-(t + 1) rank of prefix p plus its
    free model m, where a query goes once it runs m.
    """

    prefixes: np.ndarray  # (P,) ascending: C(k, t) for the lattice, 1 for a chain
    free: np.ndarray  # (P, f) free models of each prefix, ascending
    bits: np.ndarray  # (columns, f) float, free models each column adds
    child: np.ndarray  # (P, k) next-step rank of prefix | 1 << m; unused for members m


@lru_cache(maxsize=None)
def _step_layout(k: int, t: int, chain: bool) -> _StepLayout:
    f = k - t
    if chain:
        prefixes = np.array([(1 << t) - 1], dtype=np.int64)
        free = np.arange(t, k, dtype=np.int64)[None, :]
        bits = np.tri(f + 1, f, -1)
        child = np.zeros((1, k), dtype=np.int64)
    else:
        tabs = _lattice_tables(k)
        prefixes = tabs.masks[tabs.popcount == t]
        free = np.nonzero(~tabs.bit_set[:, prefixes].T)[1].reshape(prefixes.size, f)
        bits = _lattice_tables(f).bits
        next_rank = np.cumsum(tabs.popcount == t + 1) - 1
        child = next_rank[prefixes[:, None] | np.int64(1) << np.arange(k)]
    return _StepLayout(prefixes, free, bits, child)


@dataclass
class _StepTables:
    """Price-independent tables of every prefix of one step, filled by (prefix, row).

    Axes are prefix rank, the engine's table row and the layout column, or
    for the price cells the cell slot; only pairs whose ``filled`` flag is
    set hold computed values. In a step that compiles, every filled pair
    holds its cells, and the cell tables widen when a fill needs more slots
    than any earlier one; in any other step they stay one sentinel wide.
    """

    quality: np.ndarray  # (P, n, columns) expected-max quality of each candidate
    beta: Optional[np.ndarray]  # (rows, columns) packed block thresholds; None when not pruning
    beta_row: np.ndarray  # (P, n) int32: 1 + the pair's row of ``beta``, 0 where unfilled or not pruning
    beta_used: int  # rows of ``beta`` in use; the rest is spare capacity
    next_model: np.ndarray  # (P, n, columns) int8 model each column runs next; -1 in column 0
    answer: np.ndarray  # (P, n) int8 answer of a query that stops here; -1 at t = 0
    filled: np.ndarray  # (P, n) bool
    allowed: np.ndarray  # (columns,) bool: not the empty prefix, and one added model for GREEDY
    lo: np.ndarray  # (P, n, slots) float32 lowest price of each cell, ascending; +inf pads
    hi: np.ndarray  # (P, n, slots) float32 highest price of each cell
    win: np.ndarray  # (P, n, slots) unsigned column every price of the cell picks


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
    # column-major: each gather below copies whole contiguous rows
    quality, cost = quality.T.copy(), cost.T.copy()
    beta = np.full(quality.shape, np.inf)
    for j in range(f):
        cols = tabs.masks[tabs.bit_set[j]]
        par = tabs.parent[j][cols]
        if empty_prefix:
            cols, par = cols[par != 0], par[par != 0]
        dq = quality[cols] - quality[par]
        c = cost[j]
        ratio = np.divide(dq, c, out=np.where(dq < 0, -np.inf, np.inf), where=c > 0)
        beta[cols] = np.minimum(beta[cols], ratio)
    for j in range(f):
        cols = tabs.masks[tabs.bit_set[j]]
        beta[cols] = np.minimum(beta[cols], beta[tabs.parent[j][cols]])
    return beta.T


# Rows per chunk of a cold fill: its (k, chunk, S) sample block stays
# cache-sized, 64 rows at S = 512, so each model's block is 256 KB.
_CHUNK_CELLS = 1 << 15


def _row_chunks(n: int, n_samples: int):
    """Contiguous slices covering ``range(n)``, ``_CHUNK_CELLS // n_samples`` rows each."""
    chunk = max(1, _CHUNK_CELLS // n_samples)
    return [slice(start, min(start + chunk, n)) for start in range(0, n, chunk)]


def _descend(out: np.ndarray, vals: np.ndarray, sub: int, low: int, block: Optional[np.ndarray]) -> None:
    """Sum the sample maxima of each submask that extends ``sub`` by free models below ``low``.

    ``vals[j]`` holds the contiguous (rows, S) samples of free model j and ``block``
    the running sample maximum of ``sub`` (None for the empty submask); each
    submask's sum over its S samples goes to its column of ``out``. Each
    child ``sub | 1 << j`` takes one more bit below ``sub``'s lowest, so the
    submask tree is walked depth first and only the blocks on one
    root-to-leaf path, at most f + 1, are alive.
    """
    for j in range(low):
        child = sub | 1 << j
        sm = vals[j] if block is None else np.maximum(block, vals[j])
        np.add.reduce(sm, axis=1, out=out[:, child])
        _descend(out, vals, child, j, sm)


def _ascend(out: np.ndarray, vals: np.ndarray, block: Optional[np.ndarray]) -> None:
    """Sum the sample maxima of the chain that adds free models 0..j into ``out[:, j + 1]``.

    ``vals[j]`` holds the contiguous (rows, S) samples of free model j and
    ``block`` is as in ``_descend``; the chain's blocks are one running
    sample maximum over the free models in order.
    """
    for j in range(vals.shape[0]):
        block = vals[j] if block is None else np.maximum(block, vals[j])
        np.add.reduce(block, axis=1, out=out[:, j + 1])


def _cheapest_added(cost: np.ndarray, free: np.ndarray) -> np.ndarray:
    """(rows, 2^f) int8 model each lattice column runs next: its cheapest added model.

    ``cost[:, j]`` is the open cost of free model ``free[:, j]`` (ascending
    ids). Ties go to the lowest id: the lowest free model j of column s runs
    next unless the column without it holds a cheaper one, so columns are
    filled from highest j down, one pass per free model. Column 0 adds
    nothing and holds -1.
    """
    f = cost.shape[1]
    # column-major, as in _block_threshold
    cost, free = cost.T.copy(), free.T.copy()
    out = np.full((1 << f, cost.shape[1]), -1, dtype=np.int8)
    best = np.full(out.shape, np.inf)
    for j in reversed(range(f)):
        cols = np.arange(1 << j, 1 << f, 2 << j)
        rest = cols - (1 << j)
        take = cost[j] <= best[rest]
        best[cols] = np.where(take, cost[j], best[rest])
        out[cols] = np.where(take, free[j], out[rest])
    return out.T


# Fewer pairs than this never pay for compiling them (module docstring).
_MIN_COMPILE_ROWS = 64

# A cell's margin is this many tie tolerances; one covers the selection's
# tie band, the rest covers float error (module docstring).
_CELL_SAFETY = 2.0


def _rows(value, idx):
    """A per-row array at rows ``idx``; a value shared by every row as it is."""
    return value[idx] if isinstance(value, np.ndarray) else value


def _column(lam):
    """Per-row prices as a column against ``(rows, columns)`` arrays; a shared price as it is.

    A shared price is a float64 scalar, which numpy broadcasts faster than
    a column of equal prices; the products are the same bits.
    """
    return lam[:, None] if isinstance(lam, np.ndarray) else lam


def _pair_picks(picks: Sequence[Pick]):
    """The Pick every pair of a pass shares; for mixed picks, a per-pair bool, true for ``Pick.MIN_COST``."""
    first = picks[0]
    return first if all(each is first for each in picks) else np.array([each is Pick.MIN_COST for each in picks])


def _argmax_by_pick(scores, pick, size: int) -> np.ndarray:
    """``argmax_tradeoff_rows`` of each of ``size`` rows under its pick: one call per pick present.

    ``pick`` is the Pick of every row or, in a pass that mixes picks, a
    per-row bool array, true for ``Pick.MIN_COST``. ``scores(sel)`` gives
    the ``(tau, cost, valid)`` of rows ``sel``, a slice of every row or an
    index array, so a mixed pass builds each pick's scores for its own rows
    only. Rows are independent, so splitting them by pick changes no row's
    column.
    """
    if isinstance(pick, Pick):
        return argmax_tradeoff_rows(*scores(slice(None)), pick)
    choice = np.empty(size, dtype=np.intp)
    for each, part in ((Pick.MIN_COST, pick), (Pick.MAX_COST, ~pick)):
        sel = np.flatnonzero(part)
        choice[sel] = argmax_tradeoff_rows(*scores(sel), each)
    return choice


def _compiles(rows: int, columns: int) -> bool:
    """Whether a step's first fill of ``rows`` pairs, at a step of ``columns`` columns, makes the step compile.

    It does when they are at least as many as the step has columns, and at
    least ``_MIN_COMPILE_ROWS``; the module docstring says why.
    """
    return rows >= max(columns, _MIN_COMPILE_ROWS)


def _envelope_path(quality: np.ndarray, added: np.ndarray) -> np.ndarray:
    """(rows, m) columns of each row's upper envelope of ``quality - lam * added``, price ascending.

    The walk starts at the best quality, the winner at price 0, and moves to
    the cheaper column whose line crosses the current one first. Added cost
    falls at every move, so at most ``columns`` moves are made; a row whose
    walk has ended repeats its last column. Ties and rounding may make the
    walk skip a piece; that only leaves its prices to the full selection.
    """
    rows = np.arange(quality.shape[0])
    lines = np.stack([quality, added])
    cur = quality.argmax(axis=1)
    path = [cur]
    for _ in range(quality.shape[1] - 1):
        dq, da = lines[:, rows, cur][:, :, None] - lines
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = np.where(da > 0, dq / da, np.inf)
        nxt = cross.argmin(axis=1)
        more = cross[rows, nxt] < np.inf
        if not more.any():
            break
        cur = np.where(more, nxt, cur)
        path.append(cur)
    return np.stack(path, axis=1)


def _margins(quality: np.ndarray, added: np.ndarray, sunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's certification margin ``m0 + m1 * lam`` over the (rows, columns) it compares.

    ``quality`` and ``added`` are the columns' quality and added cost, and
    ``sunk`` a bound on each row's absolute sunk cost. Every score has
    ``|tau| <= max|q| + lam * (|sunk| + max added)``, so the selection's tie
    tolerance is below ``m0 + m1 * lam`` before the ``_CELL_SAFETY`` factor
    (module docstring, "Why a cell is exact").
    """
    m0 = _CELL_SAFETY * (TIE_ABS + TIE_REL * np.abs(quality).max(axis=1))
    m1 = _CELL_SAFETY * TIE_REL * (sunk + added.max(axis=1))
    return m0, m1


def _inward(x: np.ndarray, toward: float) -> np.ndarray:
    """float32 values strictly between ``x`` and ``toward`` (+inf or -inf), one float32 step in."""
    with np.errstate(over="ignore"):
        return np.nextafter(x.astype(np.float32), np.float32(toward))


def _price_cells(
    quality: np.ndarray,
    added: np.ndarray,
    beta: Optional[np.ndarray],
    allowed: np.ndarray,
    sunk: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified price cells ``(lo, hi, win)`` of each row, each ``(rows, slots)``.

    ``quality`` and ``added`` are one step's (rows, columns) candidate
    quality and added cost, ``beta`` the block thresholds (None when the
    step does not prune) and ``sunk`` a bound on each row's absolute sunk
    cost. At every price ``lam`` with ``lo <= lam <= hi`` the step's full
    selection picks column ``win`` under either pick. Slot 0 of every row
    is a sentinel that no price hits (``lo = hi = -inf``); the cells follow
    in ascending price, and slots past a row's last cell hold ``lo = +inf``.
    So the slot of the last ``lo <= lam`` is the only cell that can hold a
    price. Rows without cells (NaN scores, exact ties) hold the sentinel and
    padding only.
    """
    cols = np.flatnonzero(allowed)
    q, a = quality[:, cols], added[:, cols]
    cand = _envelope_path(q, a)
    n, m = cand.shape
    m0, m1 = _margins(q, a, sunk)
    # per candidate, win beats column s by more than the margin where
    # d - lam * e > 0, d = q_win - q_s - m0 and e = added_win - added_s + m1;
    # the column axis leads, so the bounds reduce over the first axis
    qc = np.take_along_axis(q, cand, 1) - m0[:, None]
    ac = np.take_along_axis(a, cand, 1) + m1[:, None]
    qT, aT = q.T, a.T
    lo = np.empty((n, m))
    hi = np.empty((n, m))
    for part in _row_chunks(n, m * cols.size):
        d = qc[None, part] - qT[:, part, None]
        d[cand[part], np.arange(d.shape[1])[:, None], np.arange(m)] = np.inf  # no bound from win itself
        # m1 >= +0, so e is never -0.0: where e == 0, d / e is +inf (no
        # bound), -inf (no price) or NaN (d == 0, no price)
        e = ac[None, part] - aT[:, part, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.divide(d, e, out=d)
        # an upper bound lam < x where e >= 0, a lower bound lam > x where e < 0
        down = e < 0
        hi[part] = np.where(down, np.inf, x).min(axis=0)
        np.copyto(x, -np.inf, where=~down)
        lo[part] = x.max(axis=0)
    if beta is not None:  # win stays selectable while lam <= beta
        np.minimum(hi, np.take_along_axis(beta[:, cols], cand, 1), out=hi)
    # stored one float32 step inward, so rounding never widens a cell
    lo32, hi32 = _inward(lo, np.inf), _inward(hi, -np.inf)
    keep = lo32 <= hi32
    keep[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    count = keep.sum(axis=1)
    # at least one cell slot, so a step that compiled a fill is wider than its sentinel
    order = np.argsort(~keep, axis=1, kind="stable")[:, : max(int(count.max()), 1)]
    cells_lo = np.where(np.arange(order.shape[1]) < count[:, None], np.take_along_axis(lo32, order, 1), np.inf)
    sentinel = np.full((n, 1), -np.inf, dtype=np.float32)
    win = np.zeros((n, order.shape[1] + 1), dtype=np.min_scalar_type(allowed.size - 1))
    win[:, 1:] = cols[np.take_along_axis(cand, order, 1)]
    return (
        np.concatenate([sentinel, np.maximum.accumulate(cells_lo, axis=1)], axis=1),
        np.concatenate([sentinel, np.take_along_axis(hi32, order, 1)], axis=1),
        win,
    )


def _chain_thresholds(
    quality: np.ndarray, added: np.ndarray, sunk: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified price bounds ``(cont_hi, stop_lo, stop_hi)`` of each row of one chain step.

    ``quality`` and ``added`` are the step's (rows, f + 1) candidate quality
    and added cost, column 0 stopping and column c the chain that runs c more
    models, and ``sunk`` a bound on each row's absolute sunk cost. The
    step's full selection continues, under either pick, at every price
    ``lam < cont_hi``, and stops at every price ``stop_lo < lam < stop_hi``.
    The margin is ``_price_cells``' (``_margins``); NaN bounds certify nothing.
    """
    m0, m1 = (m[:, None] for m in _margins(quality, added, sunk))
    gain, extra = quality[:, 1:] - quality[:, :1], added[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        # continue: some chain has d - lam * e > 0, where e >= 0
        d, e = gain - m0, extra + m1
        cont_hi = np.where(e > 0, d / e, np.where(d > 0, np.inf, -np.inf)).max(axis=1)
        # stop: every chain has d + lam * e > 0, a lower bound on lam where
        # e > 0, an upper bound where e < 0, and all or no prices where e == 0
        d, e = -gain - m0, extra - m1
        x = -d / e
        stop_lo = np.where(e > 0, x, np.where((e < 0) | (d > 0), -np.inf, np.inf)).max(axis=1)
        stop_hi = np.where(e < 0, x, np.inf).min(axis=1)
    return cont_hi, stop_lo, stop_hi


@dataclass
class _ChainTables:
    """What a chain engine keeps per (step, row), steps 0..k; only steps 1..k - 1 are ever filled.

    Step 0 always continues and step k always stops, so a run's search for
    each row's first step that is not a certified continue ends at step k.
    An unfilled pair certifies nothing.
    """

    cost: np.ndarray  # (k + 1, n) running sum of computed costs in chain order: the sunk cost at step t
    cont_hi: np.ndarray  # (k + 1, n) continue is certified below this price
    stop_lo: np.ndarray  # (k + 1, n) stop is certified strictly between stop_lo and stop_hi
    stop_hi: np.ndarray  # (k + 1, n)
    filled: np.ndarray  # (k + 1, n) bool
    quality: dict[int, np.ndarray]  # step t -> (n, f + 1) quality of stopping and of each longer chain


@dataclass
class RunResult:
    """Per-query outcome of one deterministic cascade run."""

    answer: np.ndarray
    exec_order: np.ndarray
    n_executed: np.ndarray
    realized_cost: np.ndarray

    def executed_list(self, q: int) -> tuple[int, ...]:
        return tuple(int(m) for m in self.exec_order[q, : self.n_executed[q]])


@dataclass
class _Reference:
    """The last run's outcome per row, and the cell each step it reached chose from.

    Kept only by an engine whose step 0 has cells, so every reached pair
    holds cells: a step the row never reached holds ``[-inf, +inf]``, and a
    step decided by the full selection, a cell miss, the empty ``[+inf, -inf]``.
    """

    answer: np.ndarray  # (n,) int8
    exec_order: np.ndarray  # (n, k) int8, -1 past the executed models
    realized_cost: np.ndarray  # (n,) float64
    lo: np.ndarray  # (n, k) float32
    hi: np.ndarray  # (n, k) float32


class BatchCascadeEngine:
    """Runs a whole table through a cascade (routing) strategy at once.

    ``chain_only`` restricts candidates to chain prefixes of the model order
    (the chain ``_StepLayout``) and always executes the next chain model,
    which is exactly the plain cascading strategy. Plain cascading answers
    with the last computed model; cascade routing is not bound by that
    restriction and answers with ``EstimateTable.best_computed``. Both
    score the step layout's columns with the same expected-max fill;
    cascade routing selects through the step tables and cascading through
    its stop/continue thresholds. Expected-max columns depend only on the
    table, the uncertainty matrix and the step, so one engine instance can
    be reused across budgets and hyperparameter evaluations.
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
        self._step_cache: dict[int, _StepTables] = {}
        self._cost_open_cache: dict[int, np.ndarray] = {}
        self._full_answer: Optional[np.ndarray] = None
        self._metrics_cache: dict[tuple[tuple[float, ...], bool], tuple[float, float]] = {}
        self._reference: Optional[_Reference] = None
        self._chain_tables: Optional[_ChainTables] = None
        # lattice: (prefix, row) pairs compiled into cells; row selections
        # read from a cell or made by the full selection; rows, and the row
        # selections they would have made, kept from the reference
        self.compiled_pairs = 0
        self.cell_hits = 0
        self.fallback_rows = 0
        self.kept_rows = 0
        self.kept_row_steps = 0
        # ``run_many`` passes holding more than one (prices, pick) pair, and
        # the pairs they held
        self.batched_passes = 0
        self.batched_pairs = 0
        # chain: row-steps decided by a certified threshold, and by the full selection
        self.threshold_row_steps = 0
        self.exact_selections = 0

    # -- expected-max columns -------------------------------------------------

    def _draws(self) -> np.ndarray:
        """(n, k, half): the first, un-negated half of each query's antithetic draws."""
        if self._z is None:
            self._z = half_normals(self.mc, self.table.query_ids, self.table.n_models)
        return self._z

    def _layout(self, t: int) -> _StepLayout:
        return _step_layout(self.table.n_models, t, self.chain_only)

    def _cost_open(self, t: int) -> np.ndarray:
        """(n, k) estimated cost of model i while still uncomputed at step t."""
        cached = self._cost_open_cache.get(t)
        if cached is None:
            k = self.table.n_models
            cached = self.table.cost_mean[:, regime_steps(np.zeros(k, dtype=bool), t), np.arange(k)]
            self._cost_open_cache[t] = cached
        return cached

    def _stop_answer(self, t: int, computed: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Answer of each row that stops at step t with ``computed`` models: ``best_computed``, -1 at t = 0."""
        if t == 0:
            return np.full(rows.size, -1)
        return self.table.best_computed(rows, computed, t)

    def _step_tables(self, t: int, ranks: np.ndarray, rows: np.ndarray) -> _StepTables:
        """Step t's tables, with every (prefix rank, row) pair of ``ranks`` and ``rows`` filled.

        Everything a step needs but the price is cached per step in
        ``self._step_cache[t]``; a (prefix, row) pair is computed the first
        time the row reaches the prefix and read afterwards. All pairs a step
        reaches for the first time are filled together, each once however
        often ``ranks`` and ``rows`` repeat it, in rank-major order: their
        qualities by one ``_lattice_quality`` call, whatever prefixes they
        hold, then their block thresholds, next models and stop answers.
        A step's first fill decides whether the step compiles: it does when
        that fill meets ``_compiles`` or step 0 has cells. Every fill of a
        step that compiles gets its pairs' price cells from one
        ``_price_cells`` call over the quality, open cost and block
        thresholds it has just computed; no fill of any other step does
        (module docstring, "Which fills are compiled"). Cascade routing only;
        ``beta`` is None for SLOW, which never prunes.
        """
        layout = self._layout(t)
        tables = self._step_cache.get(t)
        first = tables is None
        if first:
            shape = (layout.prefixes.size, self.table.n_queries, layout.bits.shape[0])
            allowed = np.ones(shape[2], dtype=bool)
            allowed[0] = t > 0  # running nothing is never a candidate
            if self.variant is Variant.GREEDY:
                allowed &= _lattice_tables(layout.free.shape[1]).popcount <= 1
            tables = _StepTables(
                quality=np.empty(shape),
                beta=None if self.variant is Variant.SLOW else np.empty((1, shape[2])),
                beta_row=np.zeros(shape[:2], dtype=np.int32),
                beta_used=0,
                next_model=np.empty(shape, dtype=np.int8),
                answer=np.empty(shape[:2], dtype=np.int8),
                filled=np.zeros(shape[:2], dtype=bool),
                allowed=allowed,
                lo=np.full(shape[:2] + (1,), -np.inf, dtype=np.float32),
                hi=np.full(shape[:2] + (1,), -np.inf, dtype=np.float32),
                win=np.zeros(shape[:2] + (1,), dtype=np.min_scalar_type(shape[2] - 1)),
            )
            self._step_cache[t] = tables
        todo = ~tables.filled[ranks, rows]
        if todo.any():
            # a pass of several pairs may reach one new pair more than once
            reached = np.zeros_like(tables.filled)
            reached[ranks[todo], rows[todo]] = True
            new_ranks, fill = np.nonzero(reached)
            prefixes, free = layout.prefixes[new_ranks], layout.free[new_ranks]
            quality = self._lattice_quality(t, prefixes, fill)
            tables.quality[new_ranks, fill] = quality
            cost = self._cost_open(t)[fill[:, None], free]
            beta = None if tables.beta is None else _block_threshold(quality, cost, t == 0)
            if beta is not None:
                self._keep_beta(tables, new_ranks, fill, beta)
            computed = (prefixes[:, None] >> np.arange(self.table.n_models)) & 1 == 1
            # a step is wider than its sentinel once compiled, and step 0 is every run's first step
            if tables.lo.shape[2] > 1 or first and (
                _compiles(fill.size, tables.allowed.size) or self._step_cache[0].lo.shape[2] > 1
            ):
                sunk = np.abs(np.where(computed, self.table.computed_cost[fill], 0.0)).sum(axis=1)
                cells = _price_cells(quality, cost @ layout.bits.T, beta, tables.allowed, sunk)
                self._store_cells(tables, new_ranks, fill, cells)
                self.compiled_pairs += fill.size
            tables.next_model[new_ranks, fill] = _cheapest_added(cost, free)
            tables.answer[new_ranks, fill] = self._stop_answer(t, computed, fill)
            tables.filled[new_ranks, fill] = True
        return tables

    @staticmethod
    def _keep_beta(tables: _StepTables, ranks: np.ndarray, rows: np.ndarray, beta: np.ndarray) -> None:
        """Append new pairs' block thresholds to the step's ``beta`` rows, doubling its capacity as needed.

        Rows are packed in the order pairs are filled, so memory grows with
        the filled pairs and not with the ``(P, n, columns)`` extent.
        """
        start, stop = tables.beta_used, tables.beta_used + rows.size
        if stop > tables.beta.shape[0]:
            grown = np.empty((max(stop, 2 * tables.beta.shape[0]), beta.shape[1]))
            grown[:start] = tables.beta[:start]
            tables.beta = grown
        tables.beta[start:stop] = beta
        tables.beta_row[ranks, rows] = np.arange(start + 1, stop + 1)
        tables.beta_used = stop

    @staticmethod
    def _store_cells(tables: _StepTables, ranks: np.ndarray, rows: np.ndarray, cells) -> None:
        """Write new pairs' cells, widening the step's cell tables when they need more slots.

        Slots past a pair's last cell hold ``lo = +inf``: widening pads the
        filled pairs with it, and new pairs narrower than the table too.
        """
        lo, hi, win = cells
        width = tables.lo.shape[2]
        if lo.shape[1] > width:
            old_ranks, old_rows = np.nonzero(tables.filled)
            for name in ("lo", "hi", "win"):
                old = getattr(tables, name)
                new = np.empty(old.shape[:2] + (lo.shape[1],), dtype=old.dtype)
                new[old_ranks, old_rows, :width] = old[old_ranks, old_rows]
                setattr(tables, name, new)
            tables.lo[old_ranks, old_rows, width:] = np.inf
            width = lo.shape[1]
        slots = lo.shape[1]
        tables.lo[ranks, rows, :slots] = lo
        tables.hi[ranks, rows, :slots] = hi
        tables.win[ranks, rows, :slots] = win
        if slots < width:
            tables.lo[ranks, rows, slots:] = np.inf

    def _lattice_quality(self, t: int, prefixes: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """(rows, columns) quality of each layout column of each row's prefix.

        Row i has computed the t models set in ``prefixes[i]``; its column
        ``s`` scores that prefix plus the free models set in the layout's
        ``bits[s]``, over the row's f = k - t free models in ascending order,
        and column 0 (the bare prefix) is NaN at t = 0. Each row is read in
        its own regime (``core.regime_steps``) and its draws are gathered as
        (row, model) blocks, members first, so one walk over f free models
        serves every prefix: depth first over the submask tree
        (``_descend``) or along the chain (``_ascend``). Each row chunk's
        samples are one cache-sized, model-major ``(k, chunk, S)`` block, so
        the walk reads each model's samples as one contiguous ``(chunk, S)``
        block. The stored half of the draws is gathered straight into that
        order, and ``antithetic_samples`` writes ``means + stds * z`` and
        ``means - stds * z`` into one workspace per group of rows, reused by
        every chunk of the group. A row
        whose members all have zero std builds only its f free models'
        samples, and its walk starts from S copies of its largest member
        mean, the values the members' samples would give (module
        docstring). Rows without sampling (NO_EXPECT, or no uncertainty in
        their regime) take the same walk with S = 1 on the means.
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
        constant = sampled & (stds[:, :t] == 0).all(axis=1)
        f = k - t
        drawn_samples = 2 * self.mc.half
        width = self._layout(t).bits.shape[0]
        out = np.empty((rows.size, width))
        # (rows, samples per model, first model drawn): unsampled rows, rows
        # whose members all have zero std, and rows with a varying member
        groups = ((~sampled, 1, 0), (constant, drawn_samples, t), (sampled & ~constant, drawn_samples, 0))
        for mask, n_samples, drawn in groups:
            group = np.flatnonzero(mask)
            chunks = _row_chunks(group.size, n_samples)
            # one sample block per group, the size of its first and largest
            # chunk, reused by every chunk; the last group's is freed first
            samples = vals = None
            if n_samples > 1 and chunks:
                samples = np.empty((k - drawn, chunks[0].stop, n_samples))
            for part in chunks:
                sel = group[part]
                if n_samples == 1:
                    vals = means[sel].T[:, :, None]
                else:
                    z = self._draws()[rows[sel], cols[sel, drawn:].T]
                    z *= stds[sel, drawn:].T[:, :, None]
                    vals = antithetic_samples(means[sel, drawn:].T, z, out=samples[:, : sel.size])
                block = np.empty((sel.size, width))
                if drawn:  # every sample of a constant member is its mean
                    root = np.repeat(means[sel, :t].max(axis=1, keepdims=True), n_samples, axis=1)
                else:
                    root = vals[:t].max(axis=0) if t else None
                block[:, 0] = np.nan if root is None else np.add.reduce(root, axis=1)
                if self.chain_only:
                    _ascend(block, vals[t - drawn :], root)
                else:
                    _descend(block, vals[t - drawn :], 0, f, root)
                # np.mean divides the sum by S, so one division per block gives the same bits
                out[sel] = np.divide(block, n_samples, out=block)
        return out

    # -- one decision step ----------------------------------------------------

    def _select(self, t, lam, pick, ranks, rows, sunk):
        """The layout column each row picks at step t, and the cell it came from; column 0 stops.

        ``lam`` is a float64 price shared by every row or each row's price,
        ``pick`` likewise one Pick or a per-row bool (``_argmax_by_pick``),
        and ``sunk`` each row's sunk cost. A row whose (prefix, row) pair
        holds a price cell containing its price takes the cell's column.
        Every other row goes through the full selection, one
        ``argmax_tradeoff_rows`` call per pick present even when no row needs
        it. Every row has computed exactly t models, so each scores the same
        columns of the step's layout, its prefix plus each submask of its
        free models (cascade routing only). Columns are ascending in the full
        candidate mask, which implements the lowest-id residual tie-break.
        The step's ``allowed`` columns leave out running nothing at step 0
        and, for GREEDY, every lattice column adding more than one model.

        Returns ``(choice, cells)``. ``cells`` is None when the step
        compiles no fill, and otherwise the float32 ``(lo, hi)`` of each
        row's cell, empty (``+inf``, ``-inf``) for rows of the full selection.
        """
        tables = self._step_tables(t, ranks, rows)
        if tables.lo.shape[2] == 1:  # the step compiles no fill
            self.fallback_rows += rows.size
            return self._full_selection(t, lam, pick, tables, ranks, rows, sunk), None
        # float32 bounds against float64 prices compare in float64
        lo = tables.lo[ranks, rows]
        slot = (lo <= _column(lam)).sum(axis=1) - 1
        cell_lo = lo[np.arange(rows.size), slot]
        cell_hi = tables.hi[ranks, rows, slot]
        choice = tables.win[ranks, rows, slot]
        miss = (cell_hi < lam).nonzero()[0]
        self.cell_hits += rows.size - miss.size
        self.fallback_rows += miss.size
        choice[miss] = self._full_selection(
            t, _rows(lam, miss), _rows(pick, miss), tables, ranks[miss], rows[miss], sunk[miss]
        )
        cell_lo[miss] = np.inf
        cell_hi[miss] = -np.inf
        return choice, (cell_lo, cell_hi)

    def _full_selection(self, t, lam, pick, tables, ranks, rows, sunk):
        """The full selection's column for each row under its pick (``_argmax_by_pick``)."""
        return _argmax_by_pick(
            lambda sel: self._full_scores(t, _rows(lam, sel), tables, ranks[sel], rows[sel], sunk[sel]), pick, rows.size
        )

    def _full_scores(self, t, lam, tables, ranks, rows, sunk):
        """(tau, cost, valid) of the full selection over every column, for ``argmax_tradeoff_rows``.

        ``lam`` is one price or each row's, and ``sunk`` each row's sunk cost. Quality and
        block thresholds are gathered from the step's tables by (prefix rank,
        row) and a column's added cost is a product with the layout's
        ``bits``; a candidate is pruned when ``lam > beta``, which is the
        negative-marginal-gain rule closed over supersets.
        No rows give empty arrays at once.
        """
        if rows.size == 0:
            tau = np.empty((0, tables.allowed.size))
            return tau, tau, np.empty(tau.shape, dtype=bool)
        layout = self._layout(t)
        cost = sunk[:, None] + self._cost_open(t)[rows[:, None], layout.free[ranks]] @ layout.bits.T
        lam = _column(lam)
        tau = tables.quality[ranks, rows] - lam * cost
        if tables.beta is None:
            return tau, cost, np.broadcast_to(tables.allowed, tau.shape)
        return tau, cost, ~(lam > tables.beta[tables.beta_row[ranks, rows] - 1]) & tables.allowed

    # -- cascading runs ---------------------------------------------------------

    def _chain(self) -> _ChainTables:
        """The chain tables, allocated with every pair unfilled on first use."""
        if self._chain_tables is None:
            n, k = self.table.n_queries, self.table.n_models
            cost = np.zeros((k + 1, n))
            for m in range(k):  # 0.0 + c0 + c1 + ..., the step loop's order
                np.add(cost[m], self.table.computed_cost[:, m], out=cost[m + 1])
            cont_hi = np.full((k + 1, n), -np.inf)
            cont_hi[0] = np.inf
            stop_lo = np.full((k + 1, n), np.inf)
            stop_lo[k] = -np.inf
            stop_hi = np.full((k + 1, n), -np.inf)
            stop_hi[k] = np.inf
            filled = np.zeros((k + 1, n), dtype=bool)
            self._chain_tables = _ChainTables(cost, cont_hi, stop_lo, stop_hi, filled, {})
        return self._chain_tables

    def _chain_quality(self, t: int, rows: np.ndarray) -> np.ndarray:
        """(rows, f + 1) chain quality at step t >= 1, filling the rows' pairs and thresholds first.

        ``rows`` may repeat a table row, as the (pair, query) rows of a pass
        do; each unfilled one is filled once, in ascending order. A flag per
        table row finds them: in numpy 2.4 ``np.unique`` imports ``numpy.ma``
        on its first call, 1.6 MB of peak RSS.
        """
        chain = self._chain()
        quality = chain.quality.get(t)
        if quality is None:
            quality = chain.quality[t] = np.empty((self.table.n_queries, self.table.n_models - t + 1))
        reached = np.zeros(self.table.n_queries, dtype=bool)
        reached[rows] = True
        fill = np.flatnonzero(reached & ~chain.filled[t])
        if fill.size:
            fresh = self._lattice_quality(t, np.full(fill.size, (1 << t) - 1, dtype=np.int64), fill)
            quality[fill] = fresh
            sunk = np.abs(self.table.computed_cost[fill, :t]).sum(axis=1)
            bounds = _chain_thresholds(fresh, self._added_cost(t, fill), sunk)
            chain.cont_hi[t, fill], chain.stop_lo[t, fill], chain.stop_hi[t, fill] = bounds
            chain.filled[t, fill] = True
        return quality[rows]

    def _added_cost(self, t: int, rows: np.ndarray) -> np.ndarray:
        """(rows, f + 1) estimated cost each chain column of step t adds to the sunk cost."""
        layout = self._layout(t)
        return self._cost_open(t)[rows[:, None], layout.free[0]] @ layout.bits.T

    def _chain_continues(self, t: int, lam: np.ndarray, pick, rows: np.ndarray) -> np.ndarray:
        """Whether each row's full selection at chain step t >= 1 runs model t.

        ``rows`` are table rows, ``lam`` each row's price and ``pick`` one
        Pick or each row's (``_argmax_by_pick``).
        """
        quality = self._chain_quality(t, rows)
        cost = self._chain().cost[t, rows][:, None] + self._added_cost(t, rows)
        tau = quality - _column(lam) * cost
        valid = np.broadcast_to(True, tau.shape)
        return _argmax_by_pick(lambda sel: (tau[sel], cost[sel], valid[sel]), pick, rows.size) != 0

    def _first_open_step(self, cont, prices, rows, start):
        """Per (pair, query) row, its first step from ``start`` on that is no certified continue, and whether it is a certified stop."""
        chain = self._chain()
        pair, query = np.divmod(rows, self.table.n_queries)
        step = cont[start:, rows].argmin(axis=0) + start
        lam = prices[step, pair]
        return step, (chain.stop_lo[step, query] < lam) & (lam < chain.stop_hi[step, query])

    def _run_chain(self, lams: np.ndarray, picks: Sequence[Pick]) -> RunResult:
        """Run every query of every (prices, pick) pair through the cascade in one pass over the certified thresholds.

        Row p of ``lams`` holds pair p's per-step prices and ``picks[p]``
        its pick; rows are (pair, query) rows, row ``p * n + q``, as in
        ``_run_lattice``. One comparison of every pair's prices with
        ``cont_hi`` finds each row's first step that is not a certified
        continue, and a row stops there when that step is a certified stop.
        The other rows take the full selection at that step, lowest step
        first, in one ``_chain_continues`` call per step over every pair,
        and move on to their next such step if they continue (module
        docstring, "Cascading runs").
        """
        chain = self._chain()
        n, k = self.table.n_queries, self.table.n_models
        size = lams.shape[0] * n
        prices = np.append(lams, np.zeros((lams.shape[0], 1)), axis=1).T  # (k + 1, P); step k stops at any price
        cont = (prices[:, :, None] < chain.cont_hi[:, None]).reshape(k + 1, size)
        pick = _pair_picks(picks)
        rows = np.arange(size)
        stop_step, certain = self._first_open_step(cont, prices, rows, 1)
        pending = np.flatnonzero(~certain)
        steps = stop_step[pending]
        exact = 0
        while pending.size:
            t = int(steps.min())
            here = steps == t
            at = pending[here]
            exact += at.size
            pair, query = np.divmod(at, n)
            moved = at[self._chain_continues(t, prices[t, pair], _rows(pick, pair), query)]
            step, certain = self._first_open_step(cont, prices, moved, t + 1)
            stop_step[moved] = step
            pending = np.concatenate([pending[~here], moved[~certain]])
            steps = np.concatenate([steps[~here], step[~certain]])
        # a row decides at steps 1..stop_step, except at step k
        self.exact_selections += exact
        self.threshold_row_steps += int(np.minimum(stop_step, k - 1).sum()) - exact
        order = np.arange(k)
        return RunResult(
            answer=stop_step - 1,
            exec_order=np.where(order < stop_step[:, None], order, -1),
            n_executed=stop_step,
            realized_cost=chain.cost[stop_step, rows % n],
        )

    # -- full run ---------------------------------------------------------------

    def run(self, lambdas: Sequence[float], pick: Pick) -> RunResult:
        """Run every query through the strategy at per-step prices ``lambdas``.

        A pass of one pair through the engine's runner: cascade routing's
        step loop (``_run_lattice``), which keeps its outcome as the
        reference of later runs when step 0 has cells (module docstring,
        "Delta runs"), or a chain's threshold pass (``_run_chain``).
        """
        check_decision_inputs(self.table.n_models, lambdas=lambdas)
        return self._run(np.asarray(lambdas, dtype=np.float64)[None], [pick])

    def _run(self, lams: np.ndarray, picks: Sequence[Pick]) -> RunResult:
        """The engine's one runner of ``(P, k)`` prices and P picks: a chain's threshold pass or the step loop."""
        return self._run_chain(lams, picks) if self.chain_only else self._run_lattice(lams, picks)

    def _run_lattice(self, lams: np.ndarray, picks: Sequence[Pick]) -> RunResult:
        """Run every query of every (prices, pick) pair through cascade routing in one step loop.

        Row p of ``lams`` holds pair p's per-step prices and ``picks[p]``
        its pick. The loop's rows are (pair, query) rows, row ``p * n + q``
        for query q of pair p, and still-deciding rows are tracked by their
        prefix rank: a row stops when it picks column 0, with the answer
        cached for its prefix, and otherwise runs the column's cached next
        model and moves to that model's child rank. A row whose reference
        cells all hold its pair's prices keeps the reference outcome, and
        only the other rows take the steps. A pass of one pair replaces the
        reference with its outcome when step 0 has cells; a pass of several
        pairs only reads it (module docstring, "Delta runs").

        Returns the outcome of every row, its fields ``(P * n,)`` arrays, or
        ``(P * n, k)`` for the execution orders.
        """
        table = self.table
        n, k = table.n_queries, table.n_models
        size = lams.shape[0] * n
        single = lams.shape[0] == 1
        ref = self._reference
        cell_lo = cell_hi = None
        if ref is None:
            act = np.arange(size)
            answer = np.full(size, -1, dtype=np.int64)
            exec_order = np.full((size, k), -1, dtype=np.int64)
            sunk = np.zeros(size)
        else:
            # float32 bounds against a float64 array compare in float64
            redo = ((ref.lo > lams[:, None]) | (lams[:, None] > ref.hi)).any(axis=2).ravel()
            act = np.flatnonzero(redo)
            reps = lams.shape[0]
            answer = np.concatenate([ref.answer] * reps, dtype=np.int64)
            exec_order = np.concatenate([ref.exec_order] * reps, dtype=np.int64)
            sunk = np.concatenate([ref.realized_cost] * reps)
            if act.size:
                answer[act] = -1
                exec_order[act] = -1
                sunk[act] = 0.0
                if single:
                    cell_lo, cell_hi = ref.lo.copy(), ref.hi.copy()
                    cell_lo[act] = -np.inf
                    cell_hi[act] = np.inf
        kept = size - act.size
        # each row's query, and its pair; None when there is one pair
        query, prop = (act, None) if single else (act % n, act // n)
        ranks = np.zeros(act.size, dtype=np.int64)
        pick = _rows(_pair_picks(picks), prop)

        for t in range(k):
            if act.size == 0:
                break
            lam = lams[0, t] if prop is None else lams[prop, t]
            choice, cells = self._select(t, lam, pick, ranks, query, sunk[act])
            if single:
                if cell_lo is None and t == 0 and cells is not None:
                    # every row reaches step 0: without cells there, no row could be kept
                    cell_lo = np.full((n, k), -np.inf, dtype=np.float32)
                    cell_hi = np.full((n, k), np.inf, dtype=np.float32)
                if cell_lo is not None:  # step 0 has cells, so every step does
                    cell_lo[act, t], cell_hi[act, t] = cells
            tables = self._step_cache[t]
            go = choice != 0
            if not go.all():
                stop = ~go
                answer[act[stop]] = tables.answer[ranks[stop], query[stop]]
                act, query, ranks, choice = act[go], query[go], ranks[go], choice[go]
                prop, pick = _rows(prop, go), _rows(pick, go)
            nxt = tables.next_model[ranks, query, choice]
            exec_order[act, t] = nxt
            sunk[act] += table.computed_cost[query, nxt]
            ranks = self._layout(t).child[ranks, nxt]
        if act.size:
            if self._full_answer is None:
                self._full_answer = self._stop_answer(k, np.ones((n, k), dtype=bool), np.arange(n))
            answer[act] = self._full_answer[query]

        n_exec = np.count_nonzero(exec_order >= 0, axis=1)
        if np.any(n_exec == 0):
            raise RuntimeError("a query finished without executing any model")
        if kept:
            # a row decides at steps 0..n_executed, except at step k
            self.kept_rows += kept
            self.kept_row_steps += int(np.minimum(n_exec[~redo], k - 1).sum()) + kept
        if cell_lo is not None:
            self._reference = _Reference(
                answer.astype(np.int8), exec_order.astype(np.int8), sunk.copy(), cell_lo, cell_hi
            )
        return RunResult(answer=answer, exec_order=exec_order, n_executed=n_exec, realized_cost=sunk)

    def run_many(self, lambdas, picks: Sequence[Pick]) -> list[tuple[float, float]]:
        """Realized mean (quality, cost) of the run at each row of ``lambdas`` with its pick.

        ``lambdas`` is ``(P, k)``, one row of per-step prices per pair, and
        ``picks`` holds P picks. This is the engine's one metrics path. A
        run is deterministic, so the means of every (prices, pick) are
        memoized, keyed by the prices as floats and whether the pick is
        ``Pick.MIN_COST`` (a bool hashes in C, an Enum member in Python). The
        keys are built before any array is, so a stored pair costs a lookup;
        only the distinct pairs not stored yet have their prices checked and
        are run, each once, in one pass of the engine's runner over their
        (pair, query) rows (``_run``; module docstring, "Batched runs" and
        "Cascading runs"). Each pair's means are taken over its own
        contiguous ``(n,)`` row, and no ``RunResult`` is kept.
        """
        n, k = self.table.n_queries, self.table.n_models
        if self.table.true_quality is None:
            raise ValueError("realized quality needs ground truth in the table")
        try:
            keys = [
                (tuple(map(float, prices)), pick is Pick.MIN_COST) for prices, pick in zip(lambdas, picks, strict=True)
            ]
        except (TypeError, ValueError):
            raise ValueError("lambdas must have one entry per model, and a row per pick") from None
        metrics = [self._metrics_cache.get(key) for key in keys]
        if None in metrics:
            todo = list(dict.fromkeys(key for key, stored in zip(keys, metrics) if stored is None))
            for prices, _ in todo:
                check_decision_inputs(k, lambdas=prices)
            picks = [Pick.MIN_COST if cheap else Pick.MAX_COST for _, cheap in todo]
            run = self._run(np.array([prices for prices, _ in todo]), picks)
            answer, cost = run.answer.reshape(-1, n), run.realized_cost.reshape(-1, n)
            if len(todo) > 1:
                self.batched_passes += 1
                self.batched_pairs += len(todo)
            quality = [self.table.true_quality[np.arange(n), a] for a in answer]
            for key, q, c in zip(todo, quality, cost):
                # the sum and the division of ``np.mean``, without its per-call overhead
                self._metrics_cache[key] = (float(np.add.reduce(q) / n), float(np.add.reduce(c) / n))
            metrics = [self._metrics_cache[key] for key in keys]
        return metrics

    def run_metrics(self, lambdas: Sequence[float], pick: Pick) -> tuple[float, float]:
        """Realized mean (quality, cost) of one run: ``run_many`` of one pair."""
        return self.run_many([lambdas], [pick])[0]

    def params_metrics(self, params: StrategyParams) -> tuple[float, float]:
        """Realized (quality, cost) of one mixed strategy: ``params_metrics_many`` of one point."""
        return self.params_metrics_many([params])[0]

    def params_metrics_many(self, params: Sequence[StrategyParams]) -> list[tuple[float, float]]:
        """Realized (quality, cost) of each mixed strategy, exact in gamma, from one ``run_many``.

        The mixing coin is flipped once per query, so a mixture's averages
        are the gamma-weighted averages of its deterministic runs, the
        pairs ``_mixture_picks`` names.
        """
        picks = [_mixture_picks(p.gamma) for p in params]
        pairs = [(p.lambdas, pick) for p, each in zip(params, picks) for pick in each]
        metrics = iter(self.run_many([prices for prices, _ in pairs], [pick for _, pick in pairs]))
        out = []
        for p, each in zip(params, picks):
            q, c = next(metrics)
            if len(each) == 2:  # the cheap run first, which the coin takes with probability gamma
                (q_max, c_max), g = next(metrics), p.gamma
                q, c = g * q + (1 - g) * q_max, g * c + (1 - g) * c_max
            out.append((q, c))
        return out


def _mixture_picks(gamma: float) -> tuple[Pick, ...]:
    """The deterministic runs a mixture with weight ``gamma`` on the cheap pick needs, cheap first."""
    return (Pick.MAX_COST,) if gamma == 0.0 else (Pick.MIN_COST,) if gamma == 1.0 else tuple(Pick)
