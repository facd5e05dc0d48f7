import contextlib
import dataclasses
import gc
import itertools
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelselect import _engine, cascade_routing, cascading, search
from modelselect._engine import BatchCascadeEngine, RunResult, Variant, _block_threshold, _cheapest_added
from modelselect.cascade_routing import (
    CandidateSet,
    enumerate_candidates,
    fit_cascade_router,
    prune_candidates,
    route_floor_cost,
    run_cascade_route,
    select_with_pick,
)
from modelselect.cascading import StepEstimates, estimate_sigma, run_cascade
from modelselect._fitting import LAMBDA_CAP
from modelselect.harness import BenchmarkConfig, prepare_run
from modelselect.core import EstimateTable, Pick, StrategyParams, Supermodel, argmax_tradeoff_rows
from modelselect.montecarlo import EmaxEvaluator, MonteCarloConfig, query_normals
from modelselect.routing import choose_models
from modelselect.search import SearchConfig

from conftest import random_table


def members(candidates: CandidateSet) -> set:
    return {c.member_set for c in candidates.extensions}


class TestEnumerateCandidates:
    def test_default_counts_subsets(self):
        cs = enumerate_candidates(Supermodel((0,)), [1, 2], Variant.DEFAULT)
        assert members(cs) == {
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
        }

    def test_empty_prefix_has_no_stop(self):
        cs = enumerate_candidates(Supermodel(()), [0, 1], Variant.DEFAULT)
        assert members(cs) == {frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_greedy_keeps_singleton_extensions(self):
        cs = enumerate_candidates(Supermodel((0,)), [1, 2], Variant.GREEDY)
        assert members(cs) == {frozenset({0}), frozenset({0, 1}), frozenset({0, 2})}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            enumerate_candidates(Supermodel((0,)), [0, 1], Variant.DEFAULT)


def make_step_estimates(quality, cost, computed=None, stds=None):
    quality = np.asarray(quality, dtype=np.float64)
    k = quality.size
    computed_mask = np.zeros(k, dtype=bool)
    if computed:
        computed_mask[list(computed)] = True
    return StepEstimates(
        quality_mean=quality,
        quality_std=np.zeros(k) if stds is None else np.asarray(stds, dtype=np.float64),
        cost_mean=np.asarray(cost, dtype=np.float64),
        known_cost=np.asarray(cost, dtype=np.float64),
        computed=computed_mask,
    )


def evaluator_for(est, seed=0, qid=0):
    return EmaxEvaluator(
        query_normals(MonteCarloConfig(seed=seed), qid, est.quality_mean.size),
        est.quality_mean,
        est.quality_std,
    )


class TestPruneCandidates:
    def test_negative_gain_prunes_all_supersets(self):
        # model 1 adds 0.001 quality for 0.5 priced cost inside {0,1}
        est = make_step_estimates(
            quality=[0.9, 0.901, 0.7], cost=[0.3, 1.0, 1.0], computed=[0]
        )
        cs = enumerate_candidates(Supermodel((0,)), [1, 2], Variant.DEFAULT)
        pruned = prune_candidates(cs, est, 0.5, Variant.DEFAULT, evaluator_for(est))
        assert frozenset({0, 1}) not in members(pruned)
        assert frozenset({0, 1, 2}) not in members(pruned)
        assert frozenset({0}) in members(pruned)

    def test_zero_lambda_zero_stds_prunes_nothing(self, rng):
        est = make_step_estimates(
            quality=rng.uniform(0, 1, 3), cost=rng.uniform(0.1, 1, 3)
        )
        cs = enumerate_candidates(Supermodel(()), [0, 1, 2], Variant.DEFAULT)
        pruned = prune_candidates(cs, est, 0.0, Variant.DEFAULT, evaluator_for(est))
        assert members(pruned) == members(cs)

    def test_bare_prefix_always_survives(self, rng):
        est = make_step_estimates(
            quality=rng.uniform(0, 1, 3), cost=rng.uniform(0.5, 2, 3), computed=[1]
        )
        cs = enumerate_candidates(Supermodel((1,)), [0, 2], Variant.DEFAULT)
        pruned = prune_candidates(cs, est, 5.0, Variant.DEFAULT, evaluator_for(est))
        assert frozenset({1}) in members(pruned)

    def test_pruned_selection_matches_slow(self, rng):
        cfg = MonteCarloConfig(seed=8)
        for trial in range(60):
            k = 4
            est = make_step_estimates(
                quality=rng.uniform(0, 1, k),
                cost=rng.uniform(0.1, 2, k),
                stds=rng.uniform(0, 0.4, k),
            )
            ev = EmaxEvaluator(query_normals(cfg, trial, k), est.quality_mean, est.quality_std)
            lam = float(rng.uniform(0, 2))
            cs = enumerate_candidates(Supermodel(()), range(k), Variant.DEFAULT)
            pruned = prune_candidates(cs, est, lam, Variant.DEFAULT, ev)
            for pick in Pick:
                fast = select_with_pick(pruned, est, lam, pick, Variant.DEFAULT, ev)
                slow = select_with_pick(cs, est, lam, pick, Variant.SLOW, ev)
                assert fast.member_set == slow.member_set

    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 7),
        lam=st.sampled_from((0.0, 0.1, 0.5, 2.0)),
        greedy=st.booleans(),
        sparse=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_prune_equals_quadratic_superset_check(self, seed, k, lam, greedy, sparse):
        # the parent lookup keeps the survivors and the order of quality
        # calls of the loop that tested every flagged candidate; a sparse
        # candidate list leaves parents out, which resolve through their own
        rng = np.random.default_rng(seed)
        prefix = int(rng.integers(0, 1 << k))
        free = tuple(m for m in range(k) if not prefix >> m & 1)
        candidates = cascade_routing._candidate_masks(prefix, free, greedy)
        if sparse:
            candidates = [c for c in candidates if c == prefix or rng.random() < 0.6]
        quality = np.round(rng.uniform(0, 1, 1 << k) * 8) / 8  # coarse, so gains tie at zero
        cost = np.round(rng.uniform(0, 1, 1 << k) * 4) / 4
        got, want = RecordingScores(prefix, quality, cost), RecordingScores(prefix, quality, cost)
        assert cascade_routing._prune(candidates, got, lam) == quadratic_prune(candidates, want, lam)
        assert got.calls == want.calls


class RecordingScores:
    """``_StepScores`` over fixed per-mask values, recording each quality call."""

    def __init__(self, prefix, quality, cost):
        self.prefix, self._quality, self._cost, self.calls = prefix, quality, cost, []

    def quality(self, mask):
        self.calls.append(mask)
        return float(self._quality[mask])

    def cost(self, mask):
        return float(self._cost[mask])


def quadratic_prune(candidates, scores, lam):
    """The negative-marginal-gain sweep as it was, testing every candidate against every flagged one."""
    quality, cost, prefix = scores.quality, scores.cost, scores.prefix
    tau = {}
    flagged = []
    survivors = []
    for cand in candidates:
        for base in flagged:
            if cand & base == base:
                break
        else:
            own = tau.get(cand)
            if own is None:
                own = tau[cand] = quality(cand) - lam * cost(cand)
            added = cand & ~prefix
            while added:
                low = added & -added
                parent = cand ^ low
                if parent:
                    score = tau.get(parent)
                    if score is None:
                        score = tau[parent] = quality(parent) - lam * cost(parent)
                    if own - score < 0:
                        flagged.append(cand)
                        break
                added ^= low
            else:
                survivors.append(cand)
    return survivors


class TestSelectSupermodel:
    def test_single_candidate(self):
        # a coin u = 0.2 below gamma = 0.5 takes the cheap branch
        est = make_step_estimates([0.5], [1.0])
        cs = CandidateSet(Supermodel(()), (Supermodel((0,)),))
        sel = select_with_pick(cs, est, 1.0, Pick.MIN_COST, Variant.DEFAULT, evaluator_for(est))
        assert sel.member_set == {0}

    def test_tau_tie_prefers_cheaper_under_min(self):
        # a coin u = 0.0 below gamma = 1.0 takes the cheap branch
        est = make_step_estimates([0.5, 1.0], [1.0, 2.0])
        cs = enumerate_candidates(Supermodel(()), [0, 1], Variant.GREEDY)
        sel = select_with_pick(cs, est, 0.5, Pick.MIN_COST, Variant.DEFAULT, evaluator_for(est))
        assert sel.member_set == {0}

    def test_matches_brute_force_on_random_instances(self, rng):
        cfg = MonteCarloConfig(seed=13)
        for trial in range(40):
            k = 3
            est = make_step_estimates(
                quality=rng.uniform(0, 1, k),
                cost=rng.uniform(0.1, 1.5, k),
                stds=rng.uniform(0, 0.3, k),
            )
            ev = EmaxEvaluator(query_normals(cfg, trial, k), est.quality_mean, est.quality_std)
            lam = float(rng.uniform(0, 2))
            cs = enumerate_candidates(Supermodel(()), range(k), Variant.DEFAULT)
            sel = select_with_pick(cs, est, lam, Pick.MIN_COST, Variant.SLOW, ev)

            def tau(sm):
                cost = est.cost_mean[list(sm.member_set)].sum()
                return ev.expected_max(list(sm.member_set)) - lam * cost

            best = max(tau(c) for c in cs.extensions)
            assert tau(sel) == pytest.approx(best, abs=1e-9)


PRICE_LADDER = (0.0, 0.05, 0.2, 0.6, 2.0)
RUN_FIELDS = ("answer", "exec_order", "n_executed", "realized_cost")


def assert_same_decision(trace, batch, q):
    """A per-query trace and row ``q`` of an engine run agree on what ran,
    which model answered and what it cost."""
    assert trace.executed == batch.executed_list(q)
    assert trace.answer_model == batch.answer[q]
    assert trace.realized_cost == batch.realized_cost[q]


def assert_engine_matches_per_query(table, sigma, mc):
    """One engine per variant serves the whole price ladder, so later prices
    read prefix rows filled by earlier ones and fill new ones."""
    k = table.n_models
    for variant in Variant:
        engine = BatchCascadeEngine(table, sigma, mc, variant)
        for lam in PRICE_LADDER:
            params = StrategyParams.equal(lam, k)
            for pick in Pick:
                batch = engine.run(params.lambdas, pick)
                for q in range(table.n_queries):
                    tr = run_cascade_route(table, q, params, sigma, variant, mc, pick=pick)
                    assert_same_decision(tr, batch, q)


def reference_simulation(table, q, lambdas, sigma, mc):
    """Independent step-by-step simulator: exhaustive candidates, MIN pick.

    Deliberately written without the library's candidate/pruning machinery.
    Estimates follow the documented regime-correct reading: a computed model
    is read from the first step slice where it counts as computed, an
    uncomputed one from the last slice where it counts as uncomputed.
    """
    k = table.n_models
    executed = []
    z = query_normals(mc, int(table.query_ids[q]), k)

    def slice_of(m, t):
        return max(t, m + 1) if m in executed else min(t, m)

    for t in range(k):
        free = [m for m in range(k) if m not in executed]
        options = []
        if executed:
            options.append(tuple(sorted(executed)))
        for r in range(1, len(free) + 1):
            for extra in itertools.combinations(free, r):
                options.append(tuple(sorted(executed + list(extra))))
        best = None
        for opt in options:
            cols = list(opt)
            means = np.array([table.quality_mean[q, slice_of(m, t), m] for m in cols])
            stds = np.array([sigma[m, slice_of(m, t)] for m in cols])
            vals = means + stds * z[:, cols]
            quality = float(vals.max(axis=1).mean())
            cost = 0.0
            for m in opt:
                if m in executed:
                    cost += table.true_cost[q, m]
                else:
                    cost += table.cost_mean[q, min(t, m), m]
            tau = quality - lambdas[t] * cost
            key = (-tau, cost, opt)
            if best is None or key < best[0]:
                best = (key, opt)
        chosen = best[1]
        new = [m for m in chosen if m not in executed]
        if not new:
            break
        nxt = min(new, key=lambda m: (table.cost_mean[q, min(t, m), m], m))
        executed.append(nxt)
    return tuple(executed)


class TestRunCascadeRoute:
    def test_single_model(self, rng):
        t = random_table(rng, n=5, k=1)
        params = StrategyParams.equal(1.0, 1)
        tr = run_cascade_route(t, 0, params, np.zeros((1, 2)), mc=MonteCarloConfig(seed=1))
        assert tr.executed == (0,) and tr.answer_model == 0

    def test_cheapest_member_executes_first(self):
        # uncertainty makes the pair {0, 2} worth selecting at step one;
        # with cost(0) < cost(2) model 0 must run first
        k = 3
        qm = np.zeros((1, k + 1, k))
        qm[0, :, 0] = 0.9
        qm[0, :, 2] = 0.9
        cm = np.full((1, k + 1, k), 5.0)
        cm[0, :, 0] = 0.2
        cm[0, :, 2] = 0.5
        t = EstimateTable.build(qm, cm, true_cost=cm[:, 0, :].copy(),
                                true_quality=qm[:, 0, :].copy())
        sigma = np.zeros((k, k + 1))
        sigma[0, :] = 0.3
        sigma[2, :] = 0.3
        params = StrategyParams.equal(0.01, k, gamma=0.0)
        tr = run_cascade_route(t, 0, params, sigma, mc=MonteCarloConfig(seed=2))
        assert tr.executed[0] == 0
        assert set(tr.executed) >= {0}

    def test_matches_reference_simulation(self, rng):
        mc = MonteCarloConfig(seed=17)
        for k in (3, 5, 8):
            for trial in range(25):
                t = random_table(rng, n=1, k=k, step_varying=True)
                sigma = rng.uniform(0, 0.3, (k, k + 1))
                lambdas = tuple(rng.uniform(0, 1.2, k))
                params = StrategyParams(lambdas=lambdas, gamma=1.0)
                got = run_cascade_route(t, 0, params, sigma, Variant.DEFAULT, mc, pick=Pick.MIN_COST)
                want = reference_simulation(t, 0, lambdas, sigma, mc)
                assert got.executed == want, (k, trial)

    def test_terminates_each_model_once(self, rng):
        t = random_table(rng, n=12, k=5, step_varying=True)
        sigma = estimate_sigma(t)
        params = StrategyParams.equal(0.05, 5, gamma=0.0)
        for q in range(12):
            tr = run_cascade_route(t, q, params, sigma, mc=MonteCarloConfig(seed=3))
            assert len(tr.executed) == len(set(tr.executed)) <= 5

    def test_batch_engine_agrees_with_per_query(self, rng):
        k = 6
        t = random_table(rng, n=10, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        assert_engine_matches_per_query(t, sigma, MonteCarloConfig(seed=23))

    def test_batch_engine_agrees_with_per_query_at_k8(self, rng):
        k = 8
        t = random_table(rng, n=4, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        assert_engine_matches_per_query(t, sigma, MonteCarloConfig(n_samples=128, seed=67))

    def test_fill_order_does_not_change_results(self, rng):
        k = 5
        t = random_table(rng, n=40, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(seed=47)
        runs = [(lam, pick) for lam in PRICE_LADDER for pick in Pick]
        for variant in Variant:
            warm = BatchCascadeEngine(t, sigma, mc, variant)
            for i in rng.permutation(len(runs)):
                lam, pick = runs[i]
                warm.run([lam] * k, pick)
            for lam, pick in runs:
                got = warm.run([lam] * k, pick)
                want = BatchCascadeEngine(t, sigma, mc, variant).run([lam] * k, pick)
                for field in RUN_FIELDS:
                    assert np.array_equal(getattr(got, field), getattr(want, field))

    def test_zero_cost_model_agrees_with_per_query(self, rng):
        k = 4
        t = random_table(rng, n=12, k=k, step_varying=True)
        t.cost_mean[:, :, 2] = 0.0
        t.true_cost[:, 2] = 0.0
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        assert_engine_matches_per_query(t, sigma, MonteCarloConfig(seed=53))

    def test_block_threshold_matches_brute_force(self, rng):
        f = 3
        quality = rng.uniform(0, 1, (20, 1 << f))
        cost = rng.uniform(0, 1, (20, f))
        cost[::3, 1] = 0.0
        for empty_prefix in (False, True):
            beta = _block_threshold(quality, cost, empty_prefix)
            for row in range(20):
                for cand in range(1 << f):
                    want = np.inf
                    for sub in range(1, 1 << f):
                        if sub & ~cand:
                            continue
                        for j in range(f):
                            rest = sub ^ (1 << j)
                            if not sub >> j & 1 or (empty_prefix and rest == 0):
                                continue
                            dq = quality[row, sub] - quality[row, rest]
                            c = cost[row, j]
                            want = min(want, dq / c if c > 0 else (-np.inf if dq < 0 else np.inf))
                    assert beta[row, cand] == want

    def test_cheapest_added_matches_brute_force(self, rng):
        # coarse open costs tie often; a tie goes to the lowest model id
        k, f, n = 7, 4, 60
        free = np.sort(np.array([rng.choice(k, f, replace=False) for _ in range(n)]), axis=1).astype(np.int8)
        cost = rng.integers(0, 3, (n, f)) / 2
        got = _cheapest_added(cost, free)
        assert got.shape == (n, 1 << f) and got.dtype == np.int8
        assert (got[:, 0] == -1).all()
        ties = 0
        for row in range(n):
            for col in range(1, 1 << f):
                added = [(cost[row, j], int(free[row, j])) for j in range(f) if col >> j & 1]
                ties += sum(c == min(added)[0] for c, _ in added) > 1
                assert got[row, col] == min(added)[1]
        assert ties > n  # the ties this test is about do occur

    def test_warm_lattice_run_selects_once_per_step(self, rng, monkeypatch):
        k = 6
        t = random_table(rng, n=60, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        lambdas = [0.05] * k
        for variant in Variant:
            engine = BatchCascadeEngine(t, sigma, MonteCarloConfig(n_samples=64, seed=29), variant)
            engine.run(lambdas, Pick.MAX_COST)
            calls = []
            select = _engine.argmax_tradeoff_rows
            monkeypatch.setattr(
                _engine, "argmax_tradeoff_rows", lambda *a: calls.append(1) or select(*a)
            )
            result = engine.run(lambdas, Pick.MAX_COST)
            monkeypatch.undo()
            # a query that ran m models chose at steps 0..m, except at step k
            steps = int(np.minimum(result.n_executed, k - 1).max()) + 1
            prefixes = {tuple(sorted(result.executed_list(q)[:2])) for q in range(t.n_queries)}
            assert len(calls) == steps <= k and len(prefixes) > 1, variant

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 5),
        k=st.integers(1, 8),
        variant=st.sampled_from(list(Variant)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_engine_agrees_with_per_query_property(self, seed, n, k, variant, data):
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=64, seed=seed)
        lambdas = data.draw(st.lists(st.sampled_from(PRICE_LADDER), min_size=k, max_size=k))
        params = StrategyParams(lambdas=tuple(lambdas), gamma=1.0)
        engine = BatchCascadeEngine(t, sigma, mc, variant)
        for pick in Pick:
            batch = engine.run(params.lambdas, pick)
            for q in range(n):
                assert_same_decision(run_cascade_route(t, q, params, sigma, variant, mc, pick=pick), batch, q)

    def test_cold_run_fills_once_per_step(self, rng, monkeypatch):
        k = 6
        t = random_table(rng, n=60, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        for variant, chain_only in itertools.product(Variant, (False, True)):
            engine = BatchCascadeEngine(t, sigma, MonteCarloConfig(n_samples=64, seed=31), variant, chain_only)
            fills = []
            fill = engine._lattice_quality
            monkeypatch.setattr(
                engine, "_lattice_quality",
                lambda step, masks, rows: fills.append((step, np.unique(masks).size))
                or fill(step, masks, rows),
            )
            result = engine.run([0.05] * k, Pick.MAX_COST)
            engine.run([0.05] * k, Pick.MAX_COST)  # warm: reads what the cold run filled
            monkeypatch.undo()
            last = int(np.minimum(result.n_executed, k - 1).max())
            if chain_only:
                # every row runs model 0, so step 0 is never filled; each
                # step a row reached is filled once, lowest first
                assert [step for step, _ in fills] == list(range(1, last + 1)), variant
            else:
                assert [step for step, _ in fills] == list(range(last + 1)), variant
                assert max(size for _, size in fills) > 1, variant

    def test_cold_lattice_run_leaves_no_cyclic_garbage(self, rng):
        k = 6
        t = random_table(rng, n=40, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        gc.collect()
        gc.disable()
        try:
            BatchCascadeEngine(t, sigma, MonteCarloConfig(n_samples=64, seed=37)).run([0.05] * k, Pick.MAX_COST)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_run_metrics_runs_each_price_once(self, rng, monkeypatch):
        k = 4
        t = random_table(rng, n=20, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=64, seed=61))
        runs = []
        run = engine._run_lattice
        monkeypatch.setattr(engine, "_run_lattice", lambda lams, picks: runs.extend(picks) or run(lams, picks))
        first = [engine.run_metrics([lam] * k, pick) for lam in PRICE_LADDER for pick in Pick]
        again = [engine.run_metrics(np.full(k, lam), pick) for lam in PRICE_LADDER for pick in Pick]
        assert again == first and len(runs) == len(first)

    def test_query_without_executed_model_raises(self, rng):
        t = random_table(rng, n=6, k=3)
        engine = BatchCascadeEngine(t, np.zeros((3, 4)), MonteCarloConfig(seed=59))
        t.quality_mean[2] = np.nan  # bypasses the table's own validation
        with pytest.raises(RuntimeError, match="without executing"):
            engine.run([0.1] * 3, Pick.MIN_COST)


class TestScalarInputChecks:
    """The per-query paths reject what the batch engine rejects, with its messages."""

    K = 3

    def decide(self, entry, table, params, sigma):
        mc = MonteCarloConfig(seed=71)
        if entry == "cascade_route":
            return run_cascade_route(table, 0, params, sigma, mc=mc)
        return run_cascade(table, 0, params, sigma, mc)

    @pytest.mark.parametrize("entry", ["cascade_route", "cascade"])
    @pytest.mark.parametrize("n_lambdas", [K - 1, K + 2])
    def test_lambdas_of_wrong_length(self, rng, entry, n_lambdas):
        t = random_table(rng, n=2, k=self.K)
        params = StrategyParams.equal(0.1, n_lambdas)
        with pytest.raises(ValueError, match="lambdas must have one entry per model"):
            self.decide(entry, t, params, np.zeros((self.K, self.K + 1)))

    @pytest.mark.parametrize("entry", ["cascade_route", "cascade"])
    def test_sigma_of_wrong_shape(self, rng, entry):
        t = random_table(rng, n=2, k=self.K)
        params = StrategyParams.equal(0.1, self.K)
        bad = np.full((self.K + 1, self.K + 2), 0.1)
        with pytest.raises(ValueError, match=r"sigma must be shaped \(n_models, n_models \+ 1\)"):
            self.decide(entry, t, params, bad)
        with pytest.raises(ValueError, match=r"sigma must be shaped"):
            BatchCascadeEngine(t, bad)

    @pytest.mark.parametrize("entry", ["cascade_route", "cascade"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
    def test_sigma_not_finite_or_negative(self, rng, entry, value):
        t = random_table(rng, n=2, k=self.K)
        params = StrategyParams.equal(0.1, self.K)
        sigma = np.full((self.K, self.K + 1), 0.1)
        sigma[1, 2] = value
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            self.decide(entry, t, params, sigma)


class TestEnginePriceChecks:
    """The engine rejects prices its cells and its selection cannot take."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    def test_prices_not_finite_or_negative(self, rng, value):
        k = 3
        engine = BatchCascadeEngine(random_table(rng, n=4, k=k), np.zeros((k, k + 1)))
        lambdas = [0.1, value, 0.1]
        for call in (engine.run, engine.run_metrics):
            with pytest.raises(ValueError, match="lambdas must be finite and >= 0"):
                call(lambdas, Pick.MIN_COST)

    @pytest.mark.parametrize("lambdas", [0.1, [0.1, 0.1], [0.1] * 4, [[0.1, 0.1, 0.1]], np.full((1, 3), 0.1)])
    def test_prices_of_the_wrong_shape(self, rng, lambdas):
        k = 3
        engine = BatchCascadeEngine(random_table(rng, n=4, k=k), np.zeros((k, k + 1)))
        engine.run_metrics([0.1] * k, Pick.MIN_COST)  # a stored run at the same prices
        for call in (engine.run, engine.run_metrics):
            with pytest.raises(ValueError, match="lambdas must have one entry per model"):
                call(lambdas, Pick.MIN_COST)

    def test_highest_bisection_price_is_valid(self, rng):
        k = 3
        engine = BatchCascadeEngine(random_table(rng, n=4, k=k), np.zeros((k, k + 1)))
        assert engine.run([LAMBDA_CAP] * k, Pick.MIN_COST).n_executed.min() >= 1


class TestPruningSavesWork:
    """On the timed per-query path, pruning computes fewer subset qualities."""

    def test_fewer_subset_qualities_than_slow(self, rng, monkeypatch):
        import modelselect.cascade_routing as cr

        evaluators = []

        class CountingEvaluator(EmaxEvaluator):
            def __init__(self, *args):
                super().__init__(*args)
                self.masks = set()
                evaluators.append(self)

            def expected_max_mask(self, mask):
                self.masks.add(mask)
                return super().expected_max_mask(mask)

        monkeypatch.setattr(cr, "EmaxEvaluator", CountingEvaluator)
        k = 8
        t = random_table(rng, n=40, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=64, seed=73)
        computed = {}
        for variant in (Variant.SLOW, Variant.DEFAULT, Variant.GREEDY):
            evaluators.clear()
            for lam in PRICE_LADDER:
                params = StrategyParams.equal(lam, k)
                for q in range(t.n_queries):
                    run_cascade_route(t, q, params, sigma, variant, mc, pick=Pick.MIN_COST)
            computed[variant] = sum(len(ev.masks) for ev in evaluators)
        assert computed[Variant.SLOW] > computed[Variant.DEFAULT] > computed[Variant.GREEDY], computed


def scalar_evaluator(table, q, t, sigma, executed, mc):
    est = StepEstimates.from_table(table, q, t, sigma, executed)
    z = query_normals(mc, int(table.query_ids[q]), table.n_models)
    return EmaxEvaluator(z, est.quality_mean, est.quality_std)


def uncertainty(rng, k, shaped):
    """A random ``(k, k + 1)`` sigma; a shaped one is an estimate's: no std once a model has run.

    A computed model i is read from slice ``max(t, i + 1)``
    (``core.regime_steps``), so ``sigma[i, s] = 0`` for ``s >= i + 1``
    gives every member of every prefix zero std, while a free model i, read
    from slice ``min(t, i)``, keeps its std.
    """
    sigma = rng.uniform(0.05, 0.35, (k, k + 1))
    if shaped:
        sigma[np.arange(k + 1) >= np.arange(1, k + 1)[:, None]] = 0.0
    return sigma


def assert_lattice_matches_scalar(got, table, step, sigma, mc, held):
    """Every column of every row of a lattice fill equals the scalar evaluator's expected max (``==``)."""
    k = table.n_models
    for q, members_q in enumerate(held):
        ev = scalar_evaluator(table, q, step, sigma, list(members_q), mc)
        free = [m for m in range(k) if m not in members_q]
        for sub in range(1 if step == 0 else 0, 1 << len(free)):
            added = [m for j, m in enumerate(free) if sub >> j & 1]
            assert got[q, sub] == ev.expected_max(list(members_q) + added)


class TestEngineMatchesScalarExactly:
    """The engine's expected maxima are the scalar evaluator's, bit for bit.

    Each fill test runs with positive stds everywhere and with an
    estimate-shaped sigma, whose sampled rows at a step t >= 1 have
    constant members and so build samples for their free models only.
    """

    @pytest.mark.parametrize("shaped", [False, True])
    def test_chain_quality(self, rng, shaped):
        # a chain-only step has one prefix; its column j is the chain of length step + j
        k = 5
        t = random_table(rng, n=16, k=k, step_varying=True)
        sigma = uncertainty(rng, k, shaped)
        mc = MonteCarloConfig(seed=41)
        engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
        rows = np.arange(t.n_queries)
        for step in range(k):
            got = engine._lattice_quality(step, np.full(rows.size, (1 << step) - 1, dtype=np.int64), rows)
            assert got.shape == (t.n_queries, k - step + 1)
            if step:  # what a run reads back, filled by the same walk
                assert np.array_equal(engine._chain_quality(step, rows), got)
            for q in rows:
                ev = scalar_evaluator(t, q, step, sigma, list(range(step)), mc)
                for length in range(max(step, 1), k + 1):
                    assert got[q, length - step] == ev.expected_max(range(length))
        assert engine._step_cache == {}  # chains keep no step tables

    # the empty prefix at k=6 walks the deepest submask tree
    @pytest.mark.parametrize("shaped", [False, True])
    @pytest.mark.parametrize(
        "prefix_members, step, k", [((1,), 1, 4), ((0, 2), 2, 4), ((3,), 1, 4), ((), 0, 6)]
    )
    def test_lattice_quality_out_of_order_prefix(self, rng, prefix_members, step, k, shaped):
        # one fill call covers rows holding different prefixes of the step:
        # even rows hold the named prefix, odd rows cycle through all of them
        t = random_table(rng, n=12, k=k, step_varying=True)
        sigma = uncertainty(rng, k, shaped)
        mc = MonteCarloConfig(seed=43)
        engine = BatchCascadeEngine(t, sigma, mc)
        step_prefixes = list(itertools.combinations(range(k), step))
        held = [prefix_members if q % 2 == 0 else step_prefixes[q // 2 % len(step_prefixes)]
                for q in range(t.n_queries)]
        assert len(set(held)) == len(step_prefixes)
        masks = np.array([sum(1 << m for m in p) for p in held], dtype=np.int64)
        got = engine._lattice_quality(step, masks, np.arange(t.n_queries))
        assert np.isnan(got[:, 0]).all() == (step == 0)  # the bare empty prefix is no candidate
        assert_lattice_matches_scalar(got, t, step, sigma, mc, held)

    @pytest.mark.parametrize("shaped", [False, True])
    def test_lattice_quality_mixes_exact_and_sampled_rows(self, rng, shaped):
        # at step 1 prefix {0} reads every model from slice 1, which has no
        # uncertainty, so its rows take the exact max of means; prefix {1}
        # reads slices 0 and 2 and is sampled, in the same fill call, with
        # a constant member when sigma is shaped
        k = 3
        t = random_table(rng, n=8, k=k, step_varying=True)
        sigma = uncertainty(rng, k, shaped)
        sigma[:, 1] = 0.0
        mc = MonteCarloConfig(seed=47)
        held = [(0,), (1,)] * 4
        masks = np.array([1 << p[0] for p in held], dtype=np.int64)
        got = BatchCascadeEngine(t, sigma, mc)._lattice_quality(1, masks, np.arange(t.n_queries))
        for q, members_q in enumerate(held):
            est = StepEstimates.from_table(t, q, 1, sigma, list(members_q))
            ev = scalar_evaluator(t, q, 1, sigma, list(members_q), mc)
            free = [m for m in range(k) if m not in members_q]
            for sub in range(1 << len(free)):
                cand = list(members_q) + [m for j, m in enumerate(free) if sub >> j & 1]
                want = est.quality_mean[cand].max() if members_q == (0,) else ev.expected_max(cand)
                assert got[q, sub] == want

    def test_constant_and_varying_members_in_one_chunk(self, rng):
        # shaped sigma, but model 0 keeps a std at slice 2: at step 2 the
        # rows whose prefix holds model 0 have a varying member and the
        # others constant members, all in one fill call that fits one row
        # chunk (a chain fill cannot mix them: its rows hold one prefix)
        k = 4
        t = random_table(rng, n=12, k=k, step_varying=True)
        sigma = uncertainty(rng, k, shaped=True)
        sigma[0, 2] = 0.2
        mc = MonteCarloConfig(n_samples=64, seed=53)
        step = 2
        step_prefixes = list(itertools.combinations(range(k), step))
        held = [step_prefixes[q % len(step_prefixes)] for q in range(t.n_queries)]
        assert {0 in p for p in held} == {False, True}
        rows = np.arange(t.n_queries)
        assert rows.size <= _engine._CHUNK_CELLS // (2 * mc.half)
        masks = np.array([sum(1 << m for m in p) for p in held], dtype=np.int64)
        got = BatchCascadeEngine(t, sigma, mc)._lattice_quality(step, masks, rows)
        assert_lattice_matches_scalar(got, t, step, sigma, mc, held)

    @pytest.mark.parametrize("chain_only", [False, True])
    def test_negative_zero_member_mean(self, rng, chain_only):
        # the largest member mean is -0.0 and every free mean is negative,
        # so the bare prefix scores zero; its sign is the only bit a
        # constant root may change, and == does not see it
        k = 3
        t = random_table(rng, n=4, k=k, step_varying=True)
        t.quality_mean[:] -= 2.0
        t.quality_mean[:, 2, 1] = -0.0  # model 1, computed, read at step 2
        sigma = uncertainty(rng, k, shaped=True)
        mc = MonteCarloConfig(n_samples=16, seed=59)
        rows = np.arange(t.n_queries)
        got = BatchCascadeEngine(t, sigma, mc, chain_only=chain_only)._lattice_quality(
            2, np.full(rows.size, 0b011, dtype=np.int64), rows
        )
        assert (got[:, 0] == 0.0).all()
        for q in rows:
            ev = scalar_evaluator(t, q, 2, sigma, [0, 1], mc)
            assert got[q, 0] == ev.expected_max([0, 1])
            assert got[q, 1] == ev.expected_max([0, 1, 2])

    @pytest.mark.parametrize("chain_only", [False, True])
    def test_constant_members_draw_free_models_only(self, rng, chain_only):
        # the fill builds samples for the f = k - t free models of a row
        # whose members all have zero std, and for all k models otherwise
        k = 5
        t = random_table(rng, n=10, k=k, step_varying=True)
        rows = np.arange(t.n_queries)
        for shaped in (True, False):
            engine = BatchCascadeEngine(t, uncertainty(rng, k, shaped), MonteCarloConfig(n_samples=16, seed=61),
                                        chain_only=chain_only)
            for step in range(1, k):
                prefixes = engine._layout(step).prefixes
                masks = prefixes[rows % prefixes.size]
                with mock.patch.object(_engine, "antithetic_samples", wraps=_engine.antithetic_samples) as spy:
                    engine._lattice_quality(step, masks, rows)
                drawn = {call.args[1].shape[:2] for call in spy.call_args_list}
                assert drawn == {(k - step if shaped else k, rows.size)}, (shaped, step)

    @pytest.mark.parametrize("chain_only", [False, True])
    def test_fill_across_row_chunks(self, rng, chain_only):
        # 4096 samples make 8-row chunks, so each sampled group of 19 rows
        # spans chunks of 8, 8 and 3 rows. At step 2 of k = 4, model 0 keeps
        # a std as a member and models 0 and 1 none as free models: a
        # lattice fill then holds rows with a varying member (prefixes with
        # model 0), constant members ({1, 2}, {1, 3}) and no sampling at all
        # ({2, 3}) in one call. A chain fill's rows share the prefix {0, 1},
        # so one group per call: varying, constant, then unsampled members.
        k, step, group_rows = 4, 2, 19
        mc = MonteCarloConfig(n_samples=4096, seed=67)
        chunk = _engine._CHUNK_CELLS // (2 * mc.half)
        assert chunk == 8 and group_rows % chunk and group_rows > 2 * chunk
        sigma = uncertainty(rng, k, shaped=True)
        sigma[0, 2] = 0.2
        sigma[0, 0] = sigma[1, 1] = 0.0
        if chain_only:
            sigmas = [uncertainty(rng, k, shaped=False), uncertainty(rng, k, shaped=True), np.zeros((k, k + 1))]
            held = [[(0, 1)] * group_rows] * 3
            blocks = [[k] * 3, [k - step] * 3, []]
        else:
            sigmas = [sigma]
            blocks = [[k] * 3 + [k - step] * 3]
            varying, constant = [(0, 1), (0, 2), (0, 3)], [(1, 2), (1, 3)]
            held = [[varying[q % 3] for q in range(group_rows)] + [constant[q % 2] for q in range(group_rows)]
                    + [(2, 3)] * 5]
            rng.shuffle(held[0])
        for sig, held_rows, models in zip(sigmas, held, blocks):
            t = random_table(rng, n=len(held_rows), k=k, step_varying=True)
            rows = np.arange(t.n_queries)
            masks = np.array([sum(1 << m for m in p) for p in held_rows], dtype=np.int64)
            engine = BatchCascadeEngine(t, sig, mc, chain_only=chain_only)
            with mock.patch.object(_engine, "antithetic_samples", wraps=_engine.antithetic_samples) as spy:
                got = engine._lattice_quality(step, masks, rows)
            # each sampled group, k models drawn or only the f free ones, fills chunks of 8, 8 and 3 rows
            sampled = sorted(call.args[1].shape[:2] for call in spy.call_args_list)
            assert sampled == sorted(zip(models, [chunk, chunk, group_rows % chunk] * 2))
            exact_rows = 0
            for q, members_q in enumerate(held_rows):
                est = StepEstimates.from_table(t, q, step, sig, list(members_q))
                ev = scalar_evaluator(t, q, step, sig, list(members_q), mc)
                free = [m for m in range(k) if m not in members_q]
                exact = not est.quality_std.any()
                exact_rows += exact
                subs = range(1 << len(free)) if not chain_only else [(1 << j) - 1 for j in range(len(free) + 1)]
                for col, sub in enumerate(subs):
                    cand = list(members_q) + [m for j, m in enumerate(free) if sub >> j & 1]
                    want = est.quality_mean[cand].max() if exact else ev.expected_max(cand)
                    assert got[q, col if chain_only else sub] == want, (q, members_q, sub)
            assert exact_rows == t.n_queries - group_rows * len(models) // 3

    def test_fill_workspace_is_one_chunk_whatever_n(self, rng):
        # every sample block the fill builds goes into one workspace per
        # group, at most (models drawn, _CHUNK_CELLS // S, S), for any row count
        k = 5
        mc = MonteCarloConfig(n_samples=512, seed=71)
        n_samples = 2 * mc.half
        chunk = _engine._CHUNK_CELLS // n_samples
        for n in (3 * chunk + 5, 7 * chunk + 1):
            t = random_table(rng, n=n, k=k, step_varying=True)
            rows = np.arange(n)
            for shaped in (True, False):
                engine = BatchCascadeEngine(t, uncertainty(rng, k, shaped), mc)
                for step in range(k):
                    prefixes = engine._layout(step).prefixes
                    with mock.patch.object(_engine, "antithetic_samples", wraps=_engine.antithetic_samples) as spy:
                        engine._lattice_quality(step, prefixes[rows % prefixes.size], rows)
                    outs = [call.kwargs["out"] for call in spy.call_args_list]
                    assert sum(out.shape[1] for out in outs) == n  # every row sampled once
                    models = k - step if shaped and step else k
                    workspaces = {id(out.base): out.base for out in outs}
                    assert len(workspaces) == 1  # one group: every row has the same kind of members
                    for ws in workspaces.values():
                        assert ws.shape == (models, chunk, n_samples)
                        assert ws.nbytes == models * _engine._CHUNK_CELLS * 8
                    for out in outs:
                        assert out.shape[0] == models and out.shape[1] <= chunk and out.shape[2] == n_samples


class TestEngineStepCache:
    """What the engine stores once per query and (prefix, query) pair."""

    def test_draws_hold_the_first_antithetic_half(self, rng):
        # an odd sample count rounds up to 2 * half; only half is stored
        k = 3
        t = random_table(rng, n=5, k=k)
        mc = MonteCarloConfig(n_samples=63, seed=83)
        z = BatchCascadeEngine(t, np.zeros((k, k + 1)), mc)._draws()
        assert mc.half == 32 and z.shape == (t.n_queries, k, mc.half)
        assert z.nbytes == t.n_queries * k * mc.half * 8
        for row, qid in enumerate(t.query_ids):
            full = query_normals(mc, int(qid), k)
            assert np.array_equal(z[row], full[: mc.half].T)
            assert np.array_equal(-z[row], full[mc.half :].T)

    @pytest.mark.parametrize("chain_only", [False, True])
    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_cached_entries_match_recomputation(self, rng, k, chain_only):
        # coarse costs and qualities make ties, and model k // 2 costs nothing
        t = random_table(rng, n=10, k=k, step_varying=True)
        t.cost_mean[:] = np.round(t.cost_mean * 2) / 2
        t.cost_mean[:, :, k // 2] = 0.0
        t.quality_mean[:] = np.round(t.quality_mean * 4) / 4
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=89)
        engine = BatchCascadeEngine(t, sigma, mc, chain_only=chain_only)
        for lam in PRICE_LADDER:
            for pick in Pick:
                engine.run([lam] * k, pick)
                engine.run(rng.choice(PRICE_LADDER, k), pick)
        checked = 0
        if chain_only:
            # a chain fills steps 1..k - 1 only; each pair's quality and
            # thresholds equal those of a fill of its row alone
            chain = engine._chain()
            assert engine._step_cache == {} and not chain.filled[[0, k]].any()
            fresh = BatchCascadeEngine(t, sigma, mc, chain_only=True)
            for step, q in zip(*np.nonzero(chain.filled)):
                assert np.array_equal(chain.quality[step][q], fresh._chain_quality(step, np.array([q]))[0])
                for name in ("cont_hi", "stop_lo", "stop_hi"):
                    assert getattr(chain, name)[step, q] == getattr(fresh._chain(), name)[step, q], name
                checked += 1
        for step, tables in engine._step_cache.items():
            layout = engine._layout(step)
            next_prefixes = [sum(1 << m for m in c) for c in itertools.combinations(range(k), step + 1)]
            next_prefixes.sort()
            for rank, q in zip(*np.nonzero(tables.filled)):
                prefix = int(layout.prefixes[rank])
                held = [m for m in range(k) if prefix >> m & 1]
                if step == 0:
                    want_answer = -1
                else:
                    want_answer = min(held, key=lambda m: (-t.quality_mean[q, max(step, m + 1), m], m))
                assert tables.answer[rank, q] == want_answer
                assert tables.next_model[rank, q, 0] == -1
                for col in range(1, layout.bits.shape[0]):
                    added = [int(m) for m, on in zip(layout.free[rank], layout.bits[col]) if on]
                    want_next = min(added, key=lambda m: (t.cost_mean[q, min(step, m), m], m))
                    assert tables.next_model[rank, q, col] == want_next
                    child = next_prefixes.index(prefix | 1 << want_next)
                    assert layout.child[rank, want_next] == child
                checked += 1
        assert checked > (1 if chain_only else 2) * t.n_queries  # a chain has steps 1..k - 1 only

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 8),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_warm_engine_matches_fresh_property(self, seed, n, k, variant, chain_only, data):
        # the cached tables hold nothing that depends on the prices or picks
        # that filled them
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=32, seed=seed)
        prices = st.lists(st.sampled_from(PRICE_LADDER), min_size=k, max_size=k)
        warm = BatchCascadeEngine(t, sigma, mc, variant, chain_only)
        for lambdas, pick in data.draw(st.lists(st.tuples(prices, st.sampled_from(list(Pick))), min_size=1, max_size=4)):
            warm.run(lambdas, pick)
        lambdas = data.draw(prices)
        for pick in Pick:
            got = warm.run(lambdas, pick)
            want = BatchCascadeEngine(t, sigma, mc, variant, chain_only).run(lambdas, pick)
            for field in RUN_FIELDS:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field


def tied_table(rng, n, k):
    """Coarse qualities and costs make exact ties, and model k // 2 costs nothing."""
    t = random_table(rng, n=n, k=k, step_varying=True)
    t.cost_mean[:] = np.round(t.cost_mean * 2) / 2
    t.cost_mean[:, :, k // 2] = 0.0
    t.quality_mean[:] = np.round(t.quality_mean * 4) / 4
    return t


def float_neighbours(prices):
    """The finite, nonnegative ``prices`` and their float64 neighbours that are nonnegative too."""
    prices = np.unique(prices[np.isfinite(prices) & (prices >= 0)])
    near = np.concatenate([prices, np.nextafter(prices, np.inf), np.nextafter(prices, -np.inf)])
    return near[near >= 0]


def chain_bounds(engine):
    """Every finite threshold of a chain engine's filled pairs, with its float neighbours."""
    chain = engine._chain()
    filled = chain.filled
    return float_neighbours(np.concatenate([chain.cont_hi[filled], chain.stop_lo[filled], chain.stop_hi[filled]]))


def chain_reference_run(engine, lambdas, pick):
    """A chain run as the step loop made it: one full selection over every row still running, at every step.

    Step 0 may not stop; a row stopping at step t answers with model
    t - 1 and a row that runs every model with the last.
    """
    table = engine.table
    n, k = table.n_queries, table.n_models
    answer = np.full(n, -1, dtype=np.int64)
    exec_order = np.full((n, k), -1, dtype=np.int64)
    sunk = np.zeros(n)
    act = np.arange(n)
    for t in range(k):
        layout = _engine._step_layout(k, t, True)
        quality = engine._lattice_quality(t, np.full(act.size, (1 << t) - 1, dtype=np.int64), act)
        cost = sunk[act][:, None] + engine._cost_open(t)[act[:, None], layout.free[0]] @ layout.bits.T
        valid = np.ones(cost.shape, dtype=bool)
        valid[:, 0] = t > 0
        stop = argmax_tradeoff_rows(quality - np.float64(lambdas[t]) * cost, cost, valid, pick) == 0
        answer[act[stop]] = t - 1
        act = act[~stop]
        exec_order[act, t] = t
        sunk[act] += table.computed_cost[act, t]
    answer[act] = k - 1
    return RunResult(answer, exec_order, np.count_nonzero(exec_order >= 0, axis=1), sunk)


def assert_same_run(got, want):
    """Every ``RunResult`` field equal, dtype included."""
    for field in RUN_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def compiling(on: bool):
    """Build price cells for every fill (on) or for none, whatever its size."""
    return mock.patch.object(_engine, "_compiles", lambda rows, columns: on)


class TestPriceCells:
    """Runs that read price cells make the full selection's decisions."""

    @staticmethod
    def step0_crossings(engine, k):
        """Every price where two candidate lines of one row cross at the first deciding step, with its float neighbours.

        That step is step 0 for cascade routing and step 1 for a chain,
        which always runs model 0; a one-model chain decides nothing.
        """
        rows = np.arange(engine.table.n_queries)
        if engine.chain_only:
            if k == 1:
                return np.zeros(0)
            quality, added = engine._chain_quality(1, rows), engine._added_cost(1, rows)
        else:
            layout = engine._layout(0)
            quality = engine._step_tables(0, np.zeros_like(rows), rows).quality[0][:, 1:]
            added = (engine._cost_open(0)[rows[:, None], layout.free[0]] @ layout.bits.T)[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = (quality[:, :, None] - quality[:, None, :]) / (added[:, :, None] - added[:, None, :])
        return float_neighbours(cross)

    @staticmethod
    def cell_bounds(engine):
        """The stored bounds of every cell at step 0, as float64 prices; a chain's thresholds and their neighbours."""
        if engine.chain_only:
            return chain_bounds(engine)
        lo, hi = engine._step_cache[0].lo, engine._step_cache[0].hi
        bounds = np.concatenate([lo[np.isfinite(lo)], hi[np.isfinite(hi)]]).astype(np.float64)
        return bounds[bounds >= 0]

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 8),
        tied=st.booleans(),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_cells_match_full_selection_property(self, seed, n, k, tied, variant, chain_only, data):
        rng = np.random.default_rng(seed)
        t = tied_table(rng, n, k) if tied else random_table(rng, n=n, k=k, step_varying=True)
        sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=seed)
        with compiling(True):
            cells = BatchCascadeEngine(t, sigma, mc, variant, chain_only)
            cells.run([0.0] * k, Pick.MAX_COST)
            prices = np.concatenate([self.step0_crossings(cells, k), self.cell_bounds(cells), [0.0, LAMBDA_CAP]])
            picked = data.draw(st.lists(st.sampled_from(sorted(prices)), min_size=1, max_size=6))
            runs = [[lam] * k for lam in picked] + [[lam, *rng.choice(prices, k - 1)] for lam in picked]
            got = [cells.run(lambdas, pick) for lambdas in runs for pick in Pick]
        with compiling(False):
            full = BatchCascadeEngine(t, sigma, mc, variant, chain_only)
            full.run([0.0] * k, Pick.MAX_COST)
            want = [full.run(lambdas, pick) for lambdas in runs for pick in Pick]
        for a, b in zip(got, want):
            for field in RUN_FIELDS:
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert full.cell_hits == full.compiled_pairs == full.kept_row_steps == 0
        assert cells.cell_hits + cells.fallback_rows + cells.kept_row_steps == full.fallback_rows

    @pytest.mark.parametrize("variant", [Variant.DEFAULT, Variant.SLOW])
    def test_compiled_fill_without_cells(self, rng, variant):
        # every candidate ties at every price, so no pair has a cell, and the
        # full selection must still see each pair's block thresholds
        k = 4
        t = random_table(rng, n=5, k=k, step_varying=True)
        t.quality_mean[:] = 0.5
        t.cost_mean[:] = 0.0
        runs = [([lam] * k, pick) for lam in PRICE_LADDER for pick in Pick]
        with compiling(True):
            cells = BatchCascadeEngine(t, np.zeros((k, k + 1)), variant=variant)
            got = [cells.run(*run) for run in runs]
        with compiling(False):
            full = BatchCascadeEngine(t, np.zeros((k, k + 1)), variant=variant)
            want = [full.run(*run) for run in runs]
        for a, b in zip(got, want):
            for field in RUN_FIELDS:
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
        assert cells.cell_hits == 0 and cells.compiled_pairs > 0

    def test_counters(self, rng):
        # every row-step is a cell hit, a fallback row or kept from the
        # reference; near a breakpoint some rows fall back, and every filled
        # pair of an engine whose step 0 compiles is compiled
        k = 4
        t = random_table(rng, n=80, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=3))
        row_steps = 0
        for lam in (0.0, 0.05, 0.2, 0.6):
            for pick in Pick:
                result = engine.run([lam] * k, pick)
                row_steps += int(np.minimum(result.n_executed + 1, k).sum())
        # every filled pair is compiled, and keeps the block-threshold row
        # its fill computed, one row each
        kept = sum(tables.beta_used for tables in engine._step_cache.values())
        filled = sum(int(tables.filled.sum()) for tables in engine._step_cache.values())
        assert engine.compiled_pairs == filled > 0 and kept == filled
        for tables in engine._step_cache.values():
            assert tables.beta_used == (tables.beta_row > 0).sum() and (tables.beta_row[tables.filled] > 0).all()
        assert engine.cell_hits + engine.fallback_rows + engine.kept_row_steps == row_steps
        # a kept row-step is a cell hit at the run that decided it
        assert engine.cell_hits + engine.kept_row_steps > engine.fallback_rows
        with compiling(True):
            for lam in self.step0_crossings(engine, k)[:20]:
                engine.run([lam] * k, Pick.MIN_COST)
        assert engine.fallback_rows > 0

    def test_prices_are_compared_in_float64(self, rng):
        # one float64 step above a cell's float32 upper bound lies outside
        # the cell, though a float32 comparison would round it onto the bound
        k = 3
        t = random_table(rng, n=4, k=k, step_varying=True)
        with compiling(True):
            engine = BatchCascadeEngine(t, np.zeros((k, k + 1)))
            engine.run([0.0] * k, Pick.MIN_COST)
            tables = engine._step_cache[0]
            hi = tables.hi[0, 0, 1:][np.isfinite(tables.hi[0, 0, 1:])]
            lam = float(np.nextafter(np.float64(hi.min()), np.inf))
            assert np.float32(lam) == hi.min()
            hits = engine.cell_hits
            engine._select(0, np.array([lam]), Pick.MIN_COST, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.zeros(1))
        assert engine.cell_hits == hits

    def test_step_table_bytes_per_filled_pair(self):
        # by arithmetic on the table layout, without allocating a large engine:
        # every pair holds 8-byte qualities and 1-byte next models per
        # column, 9 bytes per cell slot, a 4-byte block-threshold row index
        # and 2 bytes for the filled flag and the answer; at a pruning step
        # every filled pair adds its block-threshold row, 8 bytes per column
        k = 5
        t = random_table(np.random.default_rng(5), n=70, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, np.zeros((k, k + 1)), MonteCarloConfig(n_samples=8, seed=1))
        for lam in (0.2, 0.0):
            engine.run([lam] * k, Pick.MIN_COST)
        kept = sum(tables.beta_used for tables in engine._step_cache.values())
        assert engine.compiled_pairs > 0 and kept > 0
        for step, tables in engine._step_cache.items():
            columns = tables.allowed.size
            slots = tables.lo.shape[2]
            per_pair = {
                name: arr.itemsize * int(np.prod(arr.shape[2:]))
                for name, arr in vars(tables).items()
                if isinstance(arr, np.ndarray) and arr.shape[:2] == tables.filled.shape
            }
            assert per_pair == {
                "quality": 8 * columns, "beta_row": 4, "next_model": columns, "answer": 1,
                "filled": 1, "lo": 4 * slots, "hi": 4 * slots, "win": slots,
            }, step
            assert tables.beta.itemsize * tables.beta.shape[1] == 8 * columns
            assert tables.beta_used == int((tables.beta_row > 0).sum())
        # at k = 8 the empty prefix's 256 columns and a 22-slot envelope take
        # 4.6 KB per compiled pair of a pruning step and 2.5 KB under SLOW,
        # which keeps no block thresholds, against 4.4 KB for a pruning
        # step's pair in a step that compiles no fill
        assert 9 * 256 + 6 + 9 * 22 == 2508 and 17 * 256 + 6 + 9 * 22 == 4556 and 17 * 256 + 6 + 9 == 4367


class TestCompileRule:
    """A step compiles all its fills or none, as its first fill and step 0 decide, with the full selection's decisions."""

    @staticmethod
    def fit_like_runs(crossings, k, rng, picked=()):
        """Equal prices at 16 quantiles of the step-0 crossings and at ``picked``, then 40 per-step proposals.

        A proposal draws each step's price log-normally around the median
        crossing, so most runs reach a few (prefix, row) pairs for the
        first time, as a fit's search proposals do.
        """
        ladder = np.quantile(crossings, np.linspace(0.0, 1.0, 16))
        base = np.quantile(crossings, 0.5)
        proposals = base * np.exp(1.5 * rng.standard_normal((40, k)))
        return [[lam] * k for lam in (*ladder, *picked)] + proposals.tolist()

    @staticmethod
    def filled_pairs(engine):
        return sum(int(tables.filled.sum()) for tables in engine._step_cache.values())

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(96, 160),
        k=st.integers(3, 6),
        variant=st.sampled_from(list(Variant)),
        data=st.data(),
    )
    @settings(max_examples=10, deadline=None)
    def test_compiled_runs_equal_fresh_and_uncompiled_runs_property(self, seed, n, k, variant, data):
        # step 0 compiles (n >= 2^k columns and 64 rows), so every later
        # fill, however small, is compiled with it; every run must equal a
        # fresh engine's and the full selection's of an engine that never
        # compiles
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=seed)
        compiled = BatchCascadeEngine(t, sigma, mc, variant)
        crossings = TestPriceCells.step0_crossings(compiled, k)
        picked = data.draw(st.lists(st.sampled_from(crossings), max_size=4))
        runs = self.fit_like_runs(crossings, k, rng, picked)
        runs += [[lam, *rng.choice(crossings, k - 1)] for lam in picked]
        with compiling(False):
            full = BatchCascadeEngine(t, sigma, mc, variant)
        row_steps = 0
        for i, lambdas in enumerate(runs):
            for pick in Pick:
                got = compiled.run(lambdas, pick)
                with compiling(False):
                    assert_same_run(got, full.run(lambdas, pick))
                if i % 5 == 0 or lambdas[0] in picked:  # a fresh engine's cold run costs the most
                    assert_same_run(got, BatchCascadeEngine(t, sigma, mc, variant).run(lambdas, pick))
                row_steps += int(np.minimum(got.n_executed + 1, k).sum())
        assert compiled.cell_hits + compiled.fallback_rows + compiled.kept_row_steps == row_steps
        assert full.compiled_pairs == 0 and full._reference is None
        assert compiled.compiled_pairs == self.filled_pairs(compiled)

    @staticmethod
    def single_pair_cells(engine, t, rank, row):
        """``_price_cells`` of one (prefix rank, row) pair of step t alone, its inputs computed as a fill computes them."""
        layout, tables = engine._layout(t), engine._step_cache[t]
        quality = tables.quality[rank, row][None]
        open_cost = engine._cost_open(t)[row, layout.free[rank]][None]
        beta = None if tables.beta is None else _block_threshold(quality, open_cost, t == 0)
        members = (layout.prefixes[rank] >> np.arange(engine.table.n_models)) & 1 == 1
        sunk = np.abs(np.where(members[None], engine.table.computed_cost[row][None], 0.0)).sum(axis=1)
        return _engine._price_cells(quality, open_cost @ layout.bits.T, beta, tables.allowed, sunk)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_compiled_cells_equal_single_pair_cells(self, rng, variant):
        # a fill only sets the slot count: every filled pair's stored cells
        # are its own ``_price_cells`` and +inf padding, whatever fill
        # compiled it and however far later fills widened its step
        k = 5
        t = random_table(rng, n=112, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0.0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=16, seed=5), variant)
        for lambdas in self.fit_like_runs(TestPriceCells.step0_crossings(engine, k), k, rng):
            for pick in Pick:
                engine.run(lambdas, pick)
        assert engine.compiled_pairs == self.filled_pairs(engine) > t.n_queries
        for step, tables in engine._step_cache.items():
            for rank, row in zip(*tables.filled.nonzero()):
                lo, hi, win = self.single_pair_cells(engine, step, rank, row)
                width, live = lo.shape[1], lo[0] < np.inf
                assert np.array_equal(tables.lo[rank, row, :width], lo[0]), (step, rank, row)
                assert (tables.lo[rank, row, width:] == np.inf).all()
                assert np.array_equal(tables.hi[rank, row, :width][live], hi[0][live])
                assert np.array_equal(tables.win[rank, row, :width][live], win[0][live])

    @pytest.mark.parametrize("variant", [Variant.DEFAULT, Variant.GREEDY, Variant.NO_EXPECT])
    def test_every_filled_pair_keeps_the_block_thresholds_its_fill_computed(self, rng, monkeypatch, variant):
        # every filled pair of a pruning step holds the block thresholds of
        # its stored quality and open cost, computed once, by its fill, which
        # compiles the pair from them; running the same prices again with no
        # reference computes none. NO_EXPECT cells cover few prices, so its
        # pairs miss often
        callers = []
        block_threshold = _engine._block_threshold

        def spy(quality, cost, empty_prefix):
            callers.append((sys._getframe(1).f_code.co_name, quality.shape[0]))
            return block_threshold(quality, cost, empty_prefix)

        monkeypatch.setattr(_engine, "_block_threshold", spy)
        k = 5
        t = random_table(rng, n=112, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0.0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=16, seed=5), variant)
        runs = self.fit_like_runs(TestPriceCells.step0_crossings(engine, k), k, rng)
        for lambdas in runs:
            for pick in Pick:
                engine.run(lambdas, pick)
        assert engine.fallback_rows > 0
        filled = self.filled_pairs(engine)
        assert engine.compiled_pairs == filled
        assert {name for name, _ in callers} == {"_step_tables"} and sum(rows for _, rows in callers) == filled
        for step, tables in engine._step_cache.items():
            assert tables.beta_used == int(tables.filled.sum()) == int((tables.beta_row > 0).sum())
            ranks, rows = tables.filled.nonzero()
            layout = engine._layout(step)
            open_cost = engine._cost_open(step)[rows[:, None], layout.free[ranks]]
            want = block_threshold(tables.quality[ranks, rows], open_cost, step == 0)
            got = tables.beta[tables.beta_row[ranks, rows] - 1]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), step
        calls = len(callers)
        engine._reference = None  # every row takes its steps again
        for lambdas in runs:
            for pick in Pick:
                engine.run(lambdas, pick)
        assert len(callers) == calls

    @pytest.mark.parametrize("variant", [Variant.DEFAULT, Variant.SLOW])
    def test_compiling_engine_compiles_every_filled_pair(self, rng, variant):
        # after fit-like runs and ``run_many`` passes of several pairs, each
        # reaching a few pairs for the first time, every filled pair of
        # every step holds cells, and each step is wider than its sentinel
        k = 5
        t = random_table(rng, n=96, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0.0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=16, seed=2), variant)
        crossings = TestPriceCells.step0_crossings(engine, k)
        runs = self.fit_like_runs(crossings, k, rng)
        for lambdas in runs[:20]:
            engine.run(lambdas, Pick.MIN_COST)
        compiled = engine.compiled_pairs
        for start in range(20, len(runs), 4):
            batch = runs[start:start + 4]
            engine.run_many(batch, [Pick.MAX_COST, Pick.MIN_COST] * (len(batch) // 2) + [Pick.MAX_COST] * (len(batch) % 2))
        assert engine.batched_passes > 0 and engine.compiled_pairs > compiled
        for step, tables in engine._step_cache.items():
            assert tables.lo.shape[2] > 1, step
            assert (tables.lo[tables.filled, 0] == -np.inf).all() and (tables.hi[tables.filled, 0] == -np.inf).all()
        assert engine.compiled_pairs == self.filled_pairs(engine)

    def test_steps_compile_by_their_first_fill_without_cells_at_step_0(self, monkeypatch):
        # the 70-row, 8-model test split of a 200-query sweep is too small
        # to compile step 0's 256 columns, so it keeps no reference; a later
        # step compiles every fill, however small, when its first fill meets
        # ``_compiles`` on its own, and none otherwise. Every run still
        # equals a never-compiling engine's
        ctx = prepare_run(BenchmarkConfig(data={"workload": {"n_queries": 200, "n_models": 8, "seed": 7}}, mc_samples=128))
        table, k = ctx.test_table, ctx.test_table.n_models
        assert (table.n_queries, k) == (70, 8)
        fills = []
        quality = BatchCascadeEngine._lattice_quality

        def spy(each, step, prefixes, rows):
            if each is engine:
                fills.append((step, rows.size))
            return quality(each, step, prefixes, rows)

        monkeypatch.setattr(BatchCascadeEngine, "_lattice_quality", spy)
        engine = BatchCascadeEngine(table, ctx.sigma, ctx.mc)
        with compiling(False):
            full = BatchCascadeEngine(table, ctx.sigma, ctx.mc)
        prices = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 8)])
        for lam in prices:
            for pick in Pick:
                got = engine.run([lam] * k, pick)
                with compiling(False):
                    assert_same_run(got, full.run([lam] * k, pick))
        first, later = {}, []
        for step, rows in fills:
            if step in first:
                later.append((step, rows))
            else:
                first[step] = rows
        compiled = {step for step, tables in engine._step_cache.items() if tables.lo.shape[2] > 1}
        assert compiled == {step for step, rows in first.items() if _engine._compiles(rows, 1 << (k - step))}
        assert 0 not in compiled and 0 < len(compiled) < k
        assert any(step in compiled and not _engine._compiles(rows, 1 << (k - step)) for step, rows in later)
        assert engine.compiled_pairs == sum(int(engine._step_cache[step].filled.sum()) for step in compiled)
        for step in compiled:
            tables = engine._step_cache[step]
            assert (tables.lo[tables.filled, 0] == -np.inf).all() and (tables.hi[tables.filled, 0] == -np.inf).all()
        assert engine._reference is None and engine.kept_rows == engine.kept_row_steps == 0
        assert engine.cell_hits > 0 and full.compiled_pairs == 0


class TestDeltaRuns:
    """A run keeps the rows whose reference cells hold its prices and re-decides the rest."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 8),
        tied=st.booleans(),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_runs_equal_fresh_runs_property(self, seed, n, k, tied, variant, chain_only, data):
        rng = np.random.default_rng(seed)
        t = tied_table(rng, n, k) if tied else random_table(rng, n=n, k=k, step_varying=True)
        sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=seed)
        with compiling(True):
            delta = BatchCascadeEngine(t, sigma, mc, variant, chain_only)
            delta.run([0.0] * k, Pick.MAX_COST)
            prices = sorted(np.concatenate([
                TestPriceCells.step0_crossings(delta, k), TestPriceCells.cell_bounds(delta), [0.0, LAMBDA_CAP]
            ]))
            price = st.sampled_from(prices)
            runs = data.draw(st.lists(
                st.tuples(st.one_of(price.map(lambda lam: [lam] * k), st.lists(price, min_size=k, max_size=k)),
                          st.sampled_from(list(Pick))),
                min_size=1, max_size=6,
            ))
            for lambdas, pick in runs:
                got = delta.run(lambdas, pick)
                want = BatchCascadeEngine(t, sigma, mc, variant, chain_only).run(lambdas, pick)
                for field in RUN_FIELDS:
                    a, b = getattr(got, field), getattr(want, field)
                    assert a.dtype == b.dtype and np.array_equal(a, b), field

    @staticmethod
    def assert_sweep_matches_full(delta, prices, compile_all=None):
        """Runs ``delta`` at each price, dearer pick first, against an engine that never compiles.

        ``compile_all`` forces ``delta`` to compile every fill (True) or
        leaves the rule as shipped (None). The other engine's step 0 has no
        cells, so it keeps no reference and makes every full selection.
        """
        k = delta.table.n_models
        full = BatchCascadeEngine(delta.table, delta.sigma, delta.mc, delta.variant, delta.chain_only)
        for lam in prices:
            for pick in (Pick.MAX_COST, Pick.MIN_COST):
                with compiling(compile_all) if compile_all is not None else contextlib.nullcontext():
                    got = delta.run([lam] * k, pick)
                if delta.chain_only:  # a chain keeps no cells: compare with the step loop
                    want = chain_reference_run(full, [lam] * k, pick)
                else:
                    with compiling(False):
                        want = full.run([lam] * k, pick)
                for field in RUN_FIELDS:
                    assert np.array_equal(getattr(got, field), getattr(want, field)), (lam, pick, field)
        assert full._reference is None

    @pytest.mark.parametrize("chain_only", [False, True])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_missed_rows_are_rerun(self, rng, variant, chain_only):
        # at a step-0 crossing a row misses its cells and the cheaper pick
        # leaves the cell's column; the next, lower price lies back in that
        # cell, so a missed row kept there would replay the wrong choice. A
        # chain keeps no rows: at its thresholds and their neighbours, the
        # rows no threshold certifies take the full selection
        k = 4
        t = random_table(rng, n=6, k=k, step_varying=True)
        mc = MonteCarloConfig(n_samples=16, seed=5)
        with compiling(True):
            delta = BatchCascadeEngine(t, rng.uniform(0.0, 0.35, (k, k + 1)), mc, variant, chain_only)
            delta.run([0.0] * k, Pick.MAX_COST)
            prices = np.unique(np.concatenate([
                TestPriceCells.step0_crossings(delta, k), TestPriceCells.cell_bounds(delta), [0.0]
            ]))
        prices = np.sort(rng.choice(prices, min(prices.size, 150), replace=False))
        self.assert_sweep_matches_full(delta, np.concatenate([prices, prices[::-1]]), compile_all=True)
        if chain_only:
            assert delta.exact_selections > 0 and delta.threshold_row_steps > 0
        else:
            assert delta.kept_rows > 0 and delta.fallback_rows > 0

    def test_every_reached_step_has_cells(self, rng):
        # as shipped, an 80-row table compiles its first fill at step 0, so
        # every later fill is compiled too, however few pairs it holds: every
        # step the sweep reaches is wider than its sentinel
        k = 5
        t = random_table(rng, n=80, k=k, step_varying=True)
        delta = BatchCascadeEngine(t, rng.uniform(0.0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=16, seed=9))
        prices = np.geomspace(0.01, 1.0, 12)
        self.assert_sweep_matches_full(delta, np.concatenate([prices, prices[::-1]]))
        assert all(tables.lo.shape[2] > 1 for tables in delta._step_cache.values())
        assert delta.kept_rows > 0

    @staticmethod
    def kept_engine(rng, monkeypatch):
        """A cascade-routing engine compiling every fill, whose run at 0.2 decided every row from cells."""
        monkeypatch.setattr(_engine, "_compiles", lambda rows, columns: True)
        k = 3
        t = random_table(rng, n=80, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=7))
        first = engine.run([0.2] * k, Pick.MIN_COST)
        assert engine.fallback_rows == 0 and engine._reference is not None
        return engine, first

    def test_every_row_kept_runs_no_step(self, rng, monkeypatch):
        engine, first = self.kept_engine(rng, monkeypatch)
        k = engine.table.n_models
        calls = []
        monkeypatch.setattr(engine, "_select", lambda *a: calls.append(1))
        again = engine.run([0.2] * k, Pick.MAX_COST)  # either pick: a cell certifies both
        assert calls == [] and engine.kept_rows == engine.table.n_queries
        for field in RUN_FIELDS:
            assert np.array_equal(getattr(again, field), getattr(first, field)), field
        # the result is a copy: writing to it leaves the reference as it was
        again.answer[:] = -7
        again.realized_cost[:] = -1.0
        assert np.array_equal(engine.run([0.2] * k, Pick.MIN_COST).answer, first.answer)

    def test_some_rows_kept(self, rng, monkeypatch):
        engine, _ = self.kept_engine(rng, monkeypatch)
        k = engine.table.n_models
        got = engine.run([0.21] * k, Pick.MIN_COST)
        want = BatchCascadeEngine(engine.table, engine.sigma, engine.mc).run([0.21] * k, Pick.MIN_COST)
        for field in RUN_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert 0 < engine.kept_rows < engine.table.n_queries
        assert engine.kept_row_steps >= engine.kept_rows
        # steps a row did not reach in its last run put no bound on it
        ref = engine._reference
        unreached = np.arange(k) > np.minimum(got.n_executed, k - 1)[:, None]
        assert unreached.any()
        assert (ref.lo[unreached] == -np.inf).all() and (ref.hi[unreached] == np.inf).all()

    def test_failed_run_leaves_reference(self, rng, monkeypatch):
        engine, _ = self.kept_engine(rng, monkeypatch)
        k = engine.table.n_models
        before = {name: arr.copy() for name, arr in vars(engine._reference).items()}
        reference = engine._reference

        def fail(*args):
            raise MemoryError

        with mock.patch.object(_engine, "argmax_tradeoff_rows", fail), pytest.raises(MemoryError):
            engine.run([5.0] * k, Pick.MIN_COST)
        assert engine._reference is reference
        for name, arr in vars(reference).items():
            assert np.array_equal(arr, before[name]), name
        got = engine.run([5.0] * k, Pick.MIN_COST)
        want = BatchCascadeEngine(engine.table, engine.sigma, engine.mc).run([5.0] * k, Pick.MIN_COST)
        for field in RUN_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def test_prices_are_compared_with_cells_in_float64(self, rng, monkeypatch):
        # one float64 step above a row's float32 cell bound is outside the
        # cell, though a float32 comparison would round it onto the bound
        engine, _ = self.kept_engine(rng, monkeypatch)
        k = engine.table.n_models
        hi = engine._reference.hi[:, 0]
        row = int(np.flatnonzero(np.isfinite(hi) & (hi > 0.2))[0])
        lam = float(np.nextafter(np.float64(hi[row]), np.inf))
        assert np.float32(lam) == hi[row] and engine._reference.lo[row, 0] <= 0.2
        step0_rows = []
        select = engine._select

        def spy(t, lam, pick, ranks, rows, sunk):
            if t == 0:
                step0_rows.extend(rows)
            return select(t, lam, pick, ranks, rows, sunk)

        monkeypatch.setattr(engine, "_select", spy)
        engine.run([lam] + [0.2] * (k - 1), Pick.MIN_COST)
        assert row in step0_rows

    def test_no_reference_without_cells_at_step_0(self, rng):
        # a 60-row table compiles no fill, so every row is a full selection
        # at step 0 and the engine keeps nothing
        k = 4
        t = random_table(rng, n=60, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=7))
        for lam in (0.2, 0.2, 0.0):
            engine.run([lam] * k, Pick.MIN_COST)
        assert engine._reference is None and engine.compiled_pairs == 0
        assert engine.kept_rows == engine.kept_row_steps == 0

    def test_reference_bytes(self, rng, monkeypatch):
        # by arithmetic: an int8 answer and execution order, a float64 cost
        # and two float32 cells per step, 9 * n * (k + 1) bytes; 75.6 KB for
        # a 1400-row, 5-model table
        engine, _ = self.kept_engine(rng, monkeypatch)
        n, k = engine.table.n_queries, engine.table.n_models
        sizes = {name: arr.nbytes for name, arr in vars(engine._reference).items()}
        assert sizes == {"answer": n, "exec_order": n * k, "realized_cost": 8 * n, "lo": 4 * n * k, "hi": 4 * n * k}
        assert sum(sizes.values()) == 9 * n * (k + 1)
        assert 9 * 1400 * 6 == 75_600


class TestRunMany:
    """``run_many`` is the engine's one metrics path: each distinct (prices, pick) pair runs once."""

    @staticmethod
    def run_log(engine):
        """Record every (prices, pick) pair the engine runs from now on, in order."""
        log = []
        run = engine._run  # either engine kind's one runner of (P, k) prices and P picks

        def spy(lams, picks):
            log.extend(zip(map(tuple, lams.tolist()), picks))
            return run(lams, picks)

        engine._run = spy
        return log

    @staticmethod
    def means(engine, lambdas, pick):
        """The realized (quality, cost) means of ``run``, which memoizes nothing."""
        result = engine.run(lambdas, pick)
        quality = engine.table.true_quality[np.arange(engine.table.n_queries), result.answer]
        return float(quality.mean()), float(result.realized_cost.mean())

    @staticmethod
    def assert_same_reference(got, want):
        assert (got is None) == (want is None)
        if got is not None:
            for name, value in vars(want).items():
                assert getattr(got, name).dtype == value.dtype
                np.testing.assert_array_equal(getattr(got, name), value)

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 6),
        tied=st.booleans(),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        reference=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_many_equals_run_metrics_property(self, seed, n, k, tied, variant, chain_only, reference, data):
        # with a reference, the engine compiles every fill and has run once,
        # so rows may be kept; without, every pair takes every step and all
        # pairs share their first fills at step 0
        rng = np.random.default_rng(seed)
        t = tied_table(rng, n, k) if tied else random_table(rng, n=n, k=k, step_varying=True)
        sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=seed)

        def new_engine():
            return BatchCascadeEngine(t, sigma, mc, variant, chain_only)

        with compiling(reference):
            engine, twin, probe = new_engine(), new_engine(), new_engine()
            probe.run([0.0] * k, Pick.MAX_COST)
            prices = [0.0, LAMBDA_CAP]
            if not chain_only:
                prices += list(TestPriceCells.step0_crossings(probe, k)) + list(TestPriceCells.cell_bounds(probe))
            if reference:
                first = [data.draw(st.sampled_from(prices))] * k
                for each in (engine, twin):
                    each.run(first, Pick.MAX_COST)
                assert engine._reference is not None or chain_only
            price = st.sampled_from(sorted(prices))
            price_rows = st.one_of(price.map(lambda lam: [lam] * k), st.lists(price, min_size=k, max_size=k))
            proposal = st.tuples(price_rows, st.sampled_from(list(Pick)))
            runs = data.draw(st.lists(proposal, min_size=1, max_size=5))
            runs += data.draw(st.lists(st.sampled_from(runs), max_size=2))  # repeated pairs
            points = data.draw(st.lists(
                st.builds(StrategyParams, price_rows.map(tuple), st.sampled_from([0.0, 1.0, 0.25, 0.5])),
                min_size=1, max_size=4,
            ))
            log = self.run_log(engine)
            before = engine._reference
            got = engine.run_many([lambdas for lambdas, _ in runs], [pick for _, pick in runs])
            distinct = {(tuple(map(float, lambdas)), pick) for lambdas, pick in runs}
            if len(distinct) == 1:  # a one-pair pass leaves what ``run`` leaves
                twin.run(*runs[0])
                self.assert_same_reference(engine._reference, twin._reference)
            else:
                assert engine._reference is before
            singles = [engine.run_metrics(lambdas, pick) for lambdas, pick in runs]
            mixed = engine.params_metrics_many(points)
            mixed_singly = [engine.params_metrics(p) for p in points]
            assert len(set(log)) == len(log)  # each pair ran once across every call
            later = data.draw(st.lists(proposal, min_size=1, max_size=3))
            after = [engine.run(lambdas, pick) for lambdas, pick in later]
        assert got == singles
        for (lambdas, pick), metrics in zip(runs, got):
            assert metrics == self.means(new_engine(), lambdas, pick)
        for p, metrics, single in zip(points, mixed, mixed_singly):
            g = p.gamma
            (q_min, c_min), (q_max, c_max) = (self.means(new_engine(), p.lambdas, pick) for pick in Pick)
            want = (q_max, c_max) if g == 0.0 else (q_min, c_min) if g == 1.0 else (
                g * q_min + (1 - g) * q_max, g * c_min + (1 - g) * c_max)
            assert metrics == single == want
        for (lambdas, pick), result in zip(later, after):
            assert_same_run(result, new_engine().run(lambdas, pick))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_shared_first_fills_are_filled_once(self, rng, monkeypatch, variant):
        k = 4
        t = random_table(rng, n=50, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=3)
        fills = []
        quality = BatchCascadeEngine._lattice_quality

        def spy(engine, step, prefixes, rows):
            fills.extend((step, int(p), int(r)) for p, r in zip(prefixes, rows))
            return quality(engine, step, prefixes, rows)

        monkeypatch.setattr(BatchCascadeEngine, "_lattice_quality", spy)
        single = BatchCascadeEngine(t, sigma, mc, variant)
        single.run([0.1] * k, Pick.MIN_COST)
        once = sorted(fills)
        fills.clear()
        engine = BatchCascadeEngine(t, sigma, mc, variant)
        got = engine.run_many([[0.1] * k] * 3 + [[0.1, 0.3, 0.1, 0.3]], [Pick.MIN_COST, Pick.MAX_COST] * 2)
        assert len(set(fills)) == len(fills) and set(once) <= set(fills)
        assert engine.batched_passes == 1 and engine.batched_pairs == 3  # the repeated pair runs once
        assert got[0] == got[2] == single.run_metrics([0.1] * k, Pick.MIN_COST)
        for tables in engine._step_cache.values():  # one block-threshold row per filled pair
            assert tables.beta is None or tables.beta_used == int(tables.filled.sum())

    @pytest.mark.parametrize("mixed", [False, True])
    def test_one_selection_per_pick_and_step(self, rng, monkeypatch, mixed):
        # a 60-row table compiles no fill, so every step of every pair is a full selection
        k = 4
        t = random_table(rng, n=60, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=7))
        calls = []
        select = _engine.argmax_tradeoff_rows
        monkeypatch.setattr(_engine, "argmax_tradeoff_rows", lambda *a: calls.append(a[0].shape[0]) or select(*a))
        picks = [Pick.MIN_COST, Pick.MAX_COST if mixed else Pick.MIN_COST, Pick.MIN_COST]
        engine.run_many([[0.05] * k, [0.05] * k, [0.3] * k], picks)
        steps = len(engine._step_cache)
        pairs = 3 if mixed else 2  # unmixed, the first two pairs are one, run once
        assert len(calls) == (2 if mixed else 1) * steps and sum(calls[:1 + mixed]) == pairs * t.n_queries

    def test_rejects_bad_prices(self, rng):
        k = 3
        engine = BatchCascadeEngine(random_table(rng, n=5, k=k), np.zeros((k, k + 1)))
        for lambdas, picks in (([0.1] * k, [Pick.MIN_COST]), ([[0.1] * k], []), ([[0.1, -1.0, 0.1]], [Pick.MIN_COST]),
                               ([[0.1] * (k + 1)], [Pick.MIN_COST]), ([[0.1, np.nan, 0.1]], [Pick.MIN_COST])):
            with pytest.raises(ValueError):
                engine.run_many(lambdas, picks)
        assert engine._metrics_cache == {} and engine._step_cache == {}


class TestChainThresholds:
    """A chain run reads each row's stop step off certified stop/continue thresholds."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 6),
        k=st.integers(1, 8),
        tied=st.booleans(),
        variant=st.sampled_from([Variant.DEFAULT, Variant.NO_EXPECT]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_threshold_runs_equal_step_loop_property(self, seed, n, k, tied, variant, data):
        # prices exactly at every threshold and at its float neighbours, at
        # step-1 crossings, 0 and the bisection's cap, on continuous tables
        # and on tied ones with a zero-cost model and no uncertainty
        rng = np.random.default_rng(seed)
        t = tied_table(rng, n, k) if tied else random_table(rng, n=n, k=k, step_varying=True)
        sigma = np.zeros((k, k + 1)) if tied else rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=16, seed=seed)
        engine = BatchCascadeEngine(t, sigma, mc, variant, chain_only=True)
        engine.run([0.0] * k, Pick.MAX_COST)
        prices = sorted(np.concatenate([
            chain_bounds(engine), TestPriceCells.step0_crossings(engine, k), [0.0, LAMBDA_CAP]
        ]))
        price = st.sampled_from(prices)
        runs = data.draw(st.lists(
            st.tuples(st.one_of(price.map(lambda lam: [lam] * k), st.lists(price, min_size=k, max_size=k)),
                      st.sampled_from(list(Pick))),
            min_size=1, max_size=6,
        ))
        for lambdas, pick in runs:
            got = engine.run(lambdas, pick)
            assert_same_run(got, chain_reference_run(engine, lambdas, pick))
            if variant is Variant.DEFAULT:  # the per-query cascade scores expected maxima
                params = StrategyParams(tuple(float(lam) for lam in lambdas), 1.0 if pick is Pick.MIN_COST else 0.0)
                for q in range(n):
                    assert_same_decision(run_cascade(t, q, params, sigma, mc, u=0.0), got, q)

    def test_bounds_are_strict_and_compared_in_float64(self, rng):
        # a price exactly at a stop bound is no certified stop and takes the
        # full selection; one float64 step inside is a certified stop
        k = 3
        t = random_table(rng, n=40, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=32, seed=3)
        engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
        engine.run([0.0] * k, Pick.MAX_COST)
        chain = engine._chain()
        lo, hi, cont = chain.stop_lo[1], chain.stop_hi[1], chain.cont_hi[1]
        rows = np.flatnonzero((lo > cont) & (lo >= 0) & (np.nextafter(lo, np.inf) < hi))
        assert rows.size
        for row in rows:
            # one row per engine, so its counters count that row alone
            one = BatchCascadeEngine(t.subset([row]), sigma, mc, chain_only=True)
            one.run([0.0] * k, Pick.MAX_COST)
            edges = [(lo[row], True), (np.nextafter(lo[row], np.inf), False)]
            if np.isfinite(hi[row]):
                edges += [(np.nextafter(hi[row], -np.inf), False), (hi[row], True)]
            for lam, exact in edges:
                lambdas = [0.0, float(lam), 0.0]
                before = one.exact_selections
                got = one.run(lambdas, Pick.MIN_COST)
                assert (one.exact_selections > before) == exact, (row, lam)
                assert exact or got.n_executed[0] == 1
                assert_same_run(got, chain_reference_run(one, lambdas, Pick.MIN_COST))

    def test_counters(self, rng, monkeypatch):
        # every decided row-step (steps 1..n_executed, except step k) is a
        # threshold decision or a row of a full selection, and only the full
        # selections reach argmax_tradeoff_rows; the lattice counters stay 0
        k = 5
        t = random_table(rng, n=60, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=5),
                                    chain_only=True)
        rows = []
        select = _engine.argmax_tradeoff_rows
        monkeypatch.setattr(_engine, "argmax_tradeoff_rows",
                            lambda tau, *a: rows.append(tau.shape[0]) or select(tau, *a))
        decided = 0
        for lam in (0.0, 0.05, 0.2, 0.6, 0.05, 0.2):
            for pick in Pick:
                decided += int(np.minimum(engine.run([lam] * k, pick).n_executed, k - 1).sum())
        assert engine.threshold_row_steps + engine.exact_selections == decided
        assert engine.exact_selections == sum(rows) > 0
        assert engine.threshold_row_steps > engine.exact_selections
        assert engine.cell_hits == engine.fallback_rows == engine.kept_rows == engine.compiled_pairs == 0

    def test_warm_run_selects_at_most_once_per_step(self, rng, monkeypatch):
        k = 6
        t = random_table(rng, n=60, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=9),
                                    chain_only=True)
        engine.run([0.05] * k, Pick.MAX_COST)
        calls = []
        select = _engine.argmax_tradeoff_rows
        monkeypatch.setattr(_engine, "argmax_tradeoff_rows", lambda *a: calls.append(1) or select(*a))
        engine.run([0.05] * k, Pick.MAX_COST)
        engine.run([0.07] * k, Pick.MIN_COST)
        assert len(calls) <= 2 * (k - 1)

    def test_each_step_filled_at_most_once_per_run(self, rng, monkeypatch):
        # after a dear run stops rows at different steps, a cheap run finds
        # their first unfilled steps at different depths; filling the lowest
        # step first fills each step once, though rows reach it in turn
        k = 6
        t = random_table(rng, n=60, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, rng.uniform(0, 0.35, (k, k + 1)), MonteCarloConfig(n_samples=32, seed=11),
                                    chain_only=True)
        steps = []
        fill = engine._lattice_quality
        monkeypatch.setattr(engine, "_lattice_quality", lambda step, masks, rows: steps.append(step)
                            or fill(step, masks, rows))
        widest = 0
        for lam in (0.6, 0.2, 0.05, 0.0):
            steps.clear()
            got = engine.run([lam] * k, Pick.MAX_COST)
            assert steps == sorted(set(steps)), (lam, steps)
            assert_same_run(got, chain_reference_run(engine, [lam] * k, Pick.MAX_COST))
            widest = max(widest, len(steps))
        assert widest > 1

    @pytest.mark.parametrize("warm", [False, True])
    def test_pairs_in_one_pass_equal_one_pair_runs(self, rng, warm):
        # P (prices, pick) pairs through one ``_run_chain`` pass equal P
        # one-pair runs from the same engine state, bit for bit and counters
        # included, and a (step, row) that several pairs reach unfilled is
        # filled once. Warm, rows stop certified, continue certified and take
        # the full selection; cold, every row-step is a full selection.
        k = 5
        t = random_table(rng, n=40, k=k, step_varying=True)
        sigma = rng.uniform(0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=32, seed=17)

        def new_engine():
            engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
            if warm:
                engine.run([0.05] * k, Pick.MAX_COST)
            fills = []
            fill = engine._lattice_quality
            engine._lattice_quality = lambda step, masks, rows: fills.extend(
                (step, int(r)) for r in rows) or fill(step, masks, rows)
            return engine, fills, (engine.threshold_row_steps, engine.exact_selections)

        probe = BatchCascadeEngine(t, sigma, mc, chain_only=True)
        probe.run([0.0] * k, Pick.MAX_COST)
        bounds = chain_bounds(probe)
        pairs = [
            ([0.0] * k, Pick.MIN_COST), ([0.0] * k, Pick.MAX_COST),  # one price vector, both picks
            ([0.05] * k, Pick.MAX_COST), ([0.05] * k, Pick.MAX_COST),  # a repeated pair
            ([0.05] * k, Pick.MIN_COST),
            (list(rng.choice(bounds, k)), Pick.MIN_COST), (list(rng.choice(bounds, k)), Pick.MAX_COST),
            ([0.2] * k, Pick.MIN_COST), ([LAMBDA_CAP] * k, Pick.MAX_COST),
        ]
        lams, picks = np.array([lambdas for lambdas, _ in pairs]), [pick for _, pick in pairs]
        engine, fills, before = new_engine()
        got = engine._run_chain(lams, picks)
        n = t.n_queries
        one_fills, counters = [], np.zeros(2, dtype=np.int64)
        for p, (lambdas, pick) in enumerate(pairs):
            one, seen, start = new_engine()
            want = one._run_chain(lams[p : p + 1], [pick])
            for field in RUN_FIELDS:
                a, b = getattr(got, field)[p * n : (p + 1) * n], getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (p, field)
            one_fills.append(list(seen))
            assert_same_run(want, chain_reference_run(one, lambdas, pick))
            counters += np.subtract((one.threshold_row_steps, one.exact_selections), start)
        threshold, exact = np.subtract((engine.threshold_row_steps, engine.exact_selections), before)
        assert [threshold, exact] == counters.tolist()
        assert threshold + exact == int(np.minimum(got.n_executed, k - 1).sum())
        assert len(fills) == len(set(fills)) and set(fills) == set().union(*one_fills)
        assert sum(map(len, one_fills)) > len(fills)  # several pairs reached the same new (step, row)
        if warm:
            chain, stop = engine._chain(), got.n_executed
            prices = np.append(lams, np.zeros((len(pairs), 1)), axis=1)  # step k stops at any price
            query, price = np.tile(np.arange(n), len(pairs)), prices[np.arange(stop.size) // n, stop]
            certified = (stop < k) & (chain.stop_lo[stop, query] < price) & (price < chain.stop_hi[stop, query])
            assert certified.any() and threshold > certified.sum() and exact > 0
        else:
            assert threshold == 0 and exact > 0

    def test_zero_costs(self, rng):
        # with no cost at all the bounds have no slope: a better longer chain
        # continues and a better stop stops at every price, and a tie
        # certifies nothing
        quality = np.array([[0.5, 0.5], [0.5, 0.9], [0.9, 0.5]])
        cont_hi, stop_lo, stop_hi = _engine._chain_thresholds(quality, np.zeros((3, 2)), np.zeros(3))
        assert list(cont_hi) == [-np.inf, np.inf, -np.inf]
        assert list(stop_lo) == [np.inf, np.inf, -np.inf] and stop_hi[2] == np.inf
        k = 4
        t = tied_table(rng, 12, k)
        t = dataclasses.replace(t, cost_mean=np.zeros_like(t.cost_mean), true_cost=np.zeros_like(t.true_cost))
        engine = BatchCascadeEngine(t, np.zeros((k, k + 1)), chain_only=True)
        for lam in PRICE_LADDER:
            for pick in Pick:
                assert_same_run(engine.run([lam] * k, pick), chain_reference_run(engine, [lam] * k, pick))

    def test_chain_table_bytes(self):
        # by arithmetic: three float64 thresholds and a fill flag per (step,
        # row) over steps 0..k, the (k + 1, n) running costs, and per filled
        # step t an (n, f + 1) quality table; no step tables, cells or reference
        k = 5
        t = random_table(np.random.default_rng(7), n=30, k=k, step_varying=True)
        engine = BatchCascadeEngine(t, np.zeros((k, k + 1)), MonteCarloConfig(n_samples=8, seed=1), chain_only=True)
        engine.run([0.0] * k, Pick.MAX_COST)
        chain = engine._chain()
        n = t.n_queries
        sizes = {name: arr.nbytes for name, arr in vars(chain).items() if isinstance(arr, np.ndarray)}
        assert sizes == {name: 8 * (k + 1) * n for name in ("cost", "cont_hi", "stop_lo", "stop_hi")} | {
            "filled": (k + 1) * n}
        assert {step: q.shape for step, q in chain.quality.items()} == {step: (n, k - step + 1) for step in range(1, k)}
        assert engine._step_cache == {} and engine._reference is None


class TestRowPermutation:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 12),
        k=st.integers(1, 5),
        lam=st.sampled_from(PRICE_LADDER),
        pick=st.sampled_from(list(Pick)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_decisions_follow_query_not_row(self, seed, n, k, lam, pick, chain_only, data):
        # Draws are keyed by query id, so permuting the rows permutes the
        # per-query results and changes nothing else.
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        perm = np.array(data.draw(st.permutations(range(n))))
        mc = MonteCarloConfig(seed=seed)
        base = BatchCascadeEngine(t, sigma, mc, chain_only=chain_only).run([lam] * k, pick)
        moved = BatchCascadeEngine(t.subset(perm), sigma, mc, chain_only=chain_only).run([lam] * k, pick)
        for field in RUN_FIELDS:
            assert np.array_equal(getattr(moved, field), getattr(base, field)[perm])


class TestRowIndependence:
    """Each row's run depends on that query alone, and on costs only through
    prices times costs."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 12),
        k=st.integers(1, 6),
        pick=st.sampled_from(list(Pick)),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_shards_equal_whole_table(self, seed, n, k, pick, variant, chain_only, data):
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=64, seed=seed)
        lambdas = data.draw(st.lists(st.sampled_from(PRICE_LADDER), min_size=k, max_size=k))
        shard = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        whole = BatchCascadeEngine(t, sigma, mc, variant, chain_only).run(lambdas, pick)
        for label in np.unique(shard):
            rows = np.flatnonzero(shard == label)
            part = BatchCascadeEngine(t.subset(rows), sigma, mc, variant, chain_only).run(lambdas, pick)
            for field in RUN_FIELDS:
                assert np.array_equal(getattr(part, field), getattr(whole, field)[rows])

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 10),
        k=st.integers(1, 6),
        s=st.integers(-4, 4),
        pick=st.sampled_from(list(Pick)),
        variant=st.sampled_from(list(Variant)),
        chain_only=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_cost_scaling(self, seed, n, k, s, pick, variant, chain_only, data):
        # Scaling by a power of two is exact, so every score q - lam * c,
        # block threshold and cost comparison is unchanged to the last bit.
        rng = np.random.default_rng(seed)
        t = random_table(rng, n=n, k=k, step_varying=True)
        scaled = dataclasses.replace(
            t, cost_mean=t.cost_mean * 2.0**s, true_cost=t.true_cost * 2.0**s
        )
        sigma = rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=64, seed=seed)
        lambdas = data.draw(st.lists(st.sampled_from(PRICE_LADDER), min_size=k, max_size=k))
        base = BatchCascadeEngine(t, sigma, mc, variant, chain_only).run(lambdas, pick)
        got = BatchCascadeEngine(scaled, sigma, mc, variant, chain_only).run(
            [lam * 2.0**-s for lam in lambdas], pick
        )
        for field in ("answer", "exec_order", "n_executed"):
            assert np.array_equal(getattr(got, field), getattr(base, field))
        assert np.array_equal(got.realized_cost, base.realized_cost * 2.0**s)


class TestGeneralization:
    def test_chain_restriction_reproduces_cascading(self, rng):
        # the chain-only engine is cascade routing restricted to chain
        # prefixes; per query it must make run_cascade's decisions
        mc = MonteCarloConfig(n_samples=128, seed=29)
        for k in (3, 5, 8):
            t = random_table(rng, n=6, k=k, step_varying=True)
            sigma = rng.uniform(0, 0.35, (k, k + 1))
            engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
            for lam in PRICE_LADDER:
                params = StrategyParams.equal(lam, k, gamma=0.5)
                for pick, u in ((Pick.MIN_COST, 0.0), (Pick.MAX_COST, 0.9)):
                    batch = engine.run(params.lambdas, pick)
                    for q in range(t.n_queries):
                        assert_same_decision(run_cascade(t, q, params, sigma, mc, u=u), batch, q)

    def test_forced_single_step_reproduces_routing(self, rng):
        t = random_table(rng, n=20, k=4)
        sigma = np.zeros((4, 5))
        lam1 = 0.6
        params = StrategyParams(lambdas=(lam1,) + (2.0**40,) * 3, gamma=1.0)
        routed = choose_models(t, lam1, Pick.MIN_COST)
        for q in range(20):
            tr = run_cascade_route(t, q, params, sigma, mc=MonteCarloConfig(seed=31),
                                   pick=Pick.MIN_COST)
            assert tr.executed == (int(routed[q]),)


class TestSubmodularity:
    def test_diminishing_returns_with_shared_draws(self, rng):
        # f(S) = E[max of member draws]; exact per-sample submodularity of max
        # makes this hold sample-wise, so well within Monte Carlo error.
        k = 4
        cfg = MonteCarloConfig(seed=37)
        for trial in range(30):
            means = rng.uniform(0, 1, k)
            stds = rng.uniform(0.05, 0.5, k)
            ev = EmaxEvaluator(query_normals(cfg, trial, k), means, stds)

            def f(subset):
                return ev.expected_max(list(subset)) if subset else -np.inf

            models = range(k)
            for size_s in range(1, k):
                for S in itertools.combinations(models, size_s):
                    for size_t in range(1, size_s):
                        for T in itertools.combinations(S, size_t):
                            for j in models:
                                if j in S:
                                    continue
                                gain_small = f(set(T) | {j}) - f(set(T))
                                gain_big = f(set(S) | {j}) - f(set(S))
                                assert gain_small >= gain_big - 1e-12


class TestFitCascadeRouter:
    def test_expert_queries_route_to_experts(self):
        # two queries, two specialists, zero uncertainty: each query should
        # get exactly its expert at step one under a max-model budget
        qm = np.array([[0.9, 0.2], [0.2, 0.9]])
        cm = np.array([[1.0, 1.1], [1.0, 1.1]])
        t = EstimateTable.build(qm, cm, true_quality=qm, true_cost=cm)
        sigma = np.zeros((2, 3))
        mc = MonteCarloConfig(seed=41)
        params = fit_cascade_router(
            t, budget=1.1, sigma=sigma, mc=mc,
            search_config=SearchConfig(max_evals=120, seed=7),
        )
        engine = BatchCascadeEngine(t, sigma, mc)
        quality, cost = engine.params_metrics(params)
        assert cost <= 1.1 + 1e-9
        assert quality == pytest.approx(0.9, abs=1e-9)

    def test_validation_cost_within_budget(self, rng):
        t = random_table(rng, n=30, k=3, step_varying=True)
        sigma = estimate_sigma(t)
        mc = MonteCarloConfig(seed=43)
        floor = route_floor_cost(t, sigma, mc)
        budget = floor * 1.5
        params = fit_cascade_router(t, budget, sigma=sigma, mc=mc,
                                    search_config=SearchConfig(max_evals=50, seed=11))
        engine = BatchCascadeEngine(t, sigma, mc)
        _, cost = engine.params_metrics(params)
        assert cost <= budget + 1e-6


    @pytest.mark.parametrize("variant", list(Variant) + ["chain"])
    def test_search_passes_are_bounded(self, rng, monkeypatch, variant):
        # each pass holds up to PROPOSAL_BATCH proposals and the next pass
        # starts after an accepted one, so a fit makes at most
        # ceil(max_evals / 8) + (accepted moves) passes; a chain engine
        # (cascading) takes its proposals in the same batches
        t = random_table(rng, n=120, k=4, step_varying=True)
        sigma = estimate_sigma(t)
        mc = MonteCarloConfig(n_samples=32, seed=43)
        log = []
        local_search = search._local_search
        monkeypatch.setattr(search, "_local_search", lambda *a: log.append(local_search(*a)) or log[-1])
        config = SearchConfig(max_evals=60, seed=11)
        if variant == "chain":
            engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
            cascading.fit_cascade(t, 1.5 * cascading.cascade_floor_cost(t), sigma, mc, config, engine)
        else:
            engine = BatchCascadeEngine(t, sigma, mc, variant)
            budget = 1.5 * route_floor_cost(t, sigma, mc, engine=engine)
            fit_cascade_router(t, budget, variant, sigma, mc, search_config=config, engine=engine)
        accepted = log[0][1]
        assert search.PROPOSAL_BATCH == 8
        assert 0 < engine.batched_passes <= -(-config.max_evals // 8) + len(accepted)
        assert engine.batched_pairs >= 2 * engine.batched_passes  # only passes of several pairs count


@pytest.mark.parametrize("module", [cascading, cascade_routing])
def test_public_names_resolve(module):
    # a stale entry would break ``from module import *``
    for name in module.__all__:
        assert hasattr(module, name), name
