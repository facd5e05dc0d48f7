import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelselect import cascading
from modelselect._engine import BatchCascadeEngine
from modelselect._fitting import LAMBDA_CAP
from modelselect.cascading import (
    StepEstimates,
    cascade_floor_cost,
    decision_trace,
    estimate_sigma,
    expected_max,
    expected_max_stderr,
    fit_cascade,
    fit_threshold_cascade,
    run_cascade,
    threshold_cascade,
    threshold_metrics,
)
from modelselect.core import EstimateTable, Pick, StrategyParams, argmax_tradeoff
from modelselect.montecarlo import EmaxEvaluator, MonteCarloConfig, mixing_uniform, query_normals
from modelselect.search import SearchConfig

from conftest import random_table


class TestExpectedMax:
    def test_degenerate_gaussians(self):
        assert expected_max([0.9, 0.1], [0, 0]) == 0.9

    def test_two_iid_normals_closed_form(self):
        # E[max(X1, X2)] = mu + sigma / sqrt(pi) for iid normals.
        mu, sd = 0.5, 0.3
        value, stderr = expected_max_stderr([mu, mu], [sd, sd], MonteCarloConfig(seed=3))
        assert abs(value - (mu + sd / math.sqrt(math.pi))) <= 3 * stderr

    def test_singleton(self):
        # antithetic pairing cancels the noise of a single Gaussian almost
        # exactly, so the singleton expectation is its mean
        assert expected_max([0.7], [0.2], MonteCarloConfig(seed=1)) == pytest.approx(
            0.7, abs=1e-9
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            expected_max([0.1, 0.2], [0.1])

    def test_monotone_in_each_mean(self):
        cfg = MonteCarloConfig(seed=11)
        base = expected_max([0.4, 0.6], [0.2, 0.1], cfg, key=(5,))
        bumped = expected_max([0.5, 0.6], [0.2, 0.1], cfg, key=(5,))
        assert bumped >= base

    def test_at_least_max_of_means(self):
        cfg = MonteCarloConfig(seed=2)
        rng = np.random.default_rng(0)
        for trial in range(20):
            means = rng.uniform(0, 1, 3)
            stds = rng.uniform(0, 0.5, 3)
            value, stderr = expected_max_stderr(means, stds, cfg, key=(trial,))
            assert value >= means.max() - 3 * stderr


class TestEstimateSigma:
    def test_identical_steps_give_zero(self):
        t = EstimateTable.build(np.full((3, 2), 0.5), np.ones((3, 2)))
        sigma = estimate_sigma(t)
        assert np.all(sigma == 0)

    def test_hand_computed_population_std(self):
        # step-1 estimates differ from final by +0.1 / -0.1 across two queries
        k = 1
        qm = np.zeros((2, k + 1, k))
        qm[:, 1, 0] = [0.5, 0.5]
        qm[:, 0, 0] = [0.6, 0.4]
        t = EstimateTable.build(qm, np.ones((2, k + 1, k)))
        sigma = estimate_sigma(t)
        assert sigma[0, 0] == pytest.approx(0.1)
        assert sigma[0, 1] == 0.0

    def test_constant_offset_gives_zero(self):
        k = 1
        qm = np.zeros((3, k + 1, k))
        qm[:, 1, 0] = [0.3, 0.5, 0.7]
        qm[:, 0, 0] = [0.5, 0.7, 0.9]
        t = EstimateTable.build(qm, np.ones((3, k + 1, k)))
        assert estimate_sigma(t)[0, 0] == pytest.approx(0.0)

    def test_insufficient_data(self):
        t = EstimateTable.build(np.zeros((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError, match="insufficient data"):
            estimate_sigma(t)


def step_example_table():
    """k=2: computed model 0 looks great, model 1 adds cost 2 for +0.01."""
    k = 2
    qm = np.zeros((1, k + 1, k))
    qm[0, :, 0] = 0.95
    qm[0, :, 1] = 0.96
    cm = np.zeros((1, k + 1, k))
    cm[0, :, 0] = 0.5
    cm[0, :, 1] = 2.0
    return EstimateTable.build(qm, cm, true_cost=np.array([[0.5, 2.0]]))


class TestCascadeStep:
    def test_stop_when_gain_not_worth_cost(self):
        t = step_example_table()
        params = StrategyParams.equal(0.1, 2, gamma=1.0)
        sigma = np.zeros((2, 3))
        assert run_cascade(t, 0, params, sigma, u=0.0).executed == (0,)

    def test_step_one_never_stops(self):
        # even a price that makes every model a loss runs the first one
        t = step_example_table()
        params = StrategyParams.equal(100.0, 2, gamma=1.0)
        assert run_cascade(t, 0, params, np.zeros((2, 3)), u=0.0).executed == (0,)

    def test_zero_lambda_continues_on_positive_gain(self):
        t = step_example_table()
        params = StrategyParams.equal(0.0, 2, gamma=0.0)
        assert run_cascade(t, 0, params, np.zeros((2, 3)), u=0.9).executed == (0, 1)


class TestFitCascade:
    def test_single_model_degenerate(self, rng):
        t = random_table(rng, n=20, k=1)
        fitted = fit_cascade(t, budget=float(t.true_cost.mean()) + 1e-9, mc=MonteCarloConfig(seed=1))
        engine = BatchCascadeEngine(t, fitted.sigma, MonteCarloConfig(seed=1), chain_only=True)
        quality, cost = engine.params_metrics(fitted.params)
        assert cost == pytest.approx(t.true_cost.mean())
        assert quality == pytest.approx(t.true_quality.mean())

    def test_run_both_budget_reaches_run_both_quality(self, rng):
        t = random_table(rng, n=40, k=2)
        budget = float(t.true_cost.sum(axis=1).mean())
        mc = MonteCarloConfig(seed=4)
        fitted = fit_cascade(t, budget, mc=mc, search_config=SearchConfig(max_evals=150, seed=9))
        engine = BatchCascadeEngine(t, fitted.sigma, mc, chain_only=True)
        quality, cost = engine.params_metrics(fitted.params)
        run_both_quality = float(t.true_quality[:, 1].mean())
        assert cost <= budget + 1e-9
        assert quality >= run_both_quality - 1e-6

    def test_stage_two_never_beaten_by_stage_one(self, rng):
        t = random_table(rng, n=30, k=3)
        sigma = estimate_sigma(t)
        mc = MonteCarloConfig(seed=5)
        budget = float(t.true_cost[:, 0].mean()) * 1.8
        engine = BatchCascadeEngine(t, sigma, mc, chain_only=True)
        stage2 = fit_cascade(t, budget, sigma=sigma, mc=mc,
                             search_config=SearchConfig(max_evals=60, seed=2), engine=engine)
        # stage-1-only result: rerun with a search that cannot move
        stage1 = fit_cascade(t, budget, sigma=sigma, mc=mc,
                             search_config=SearchConfig(max_evals=1, seed=2), engine=engine)
        q2, _ = engine.params_metrics(stage2.params)
        q1, _ = engine.params_metrics(stage1.params)
        assert q2 >= q1 - 1e-12

    def test_infeasible_budget(self, rng):
        t = random_table(rng, n=10, k=2)
        with pytest.raises(ValueError, match="[Ii]nfeasible"):
            fit_cascade(t, budget=float(t.true_cost[:, 0].mean()) * 0.01)

    def test_chain_cost_nondecreasing_in_length(self, rng):
        t = random_table(rng, n=5, k=4)
        cm = t.cost_mean[:, 0, :]
        chain_costs = np.cumsum(cm, axis=1)
        assert np.all(np.diff(chain_costs, axis=1) >= 0)


class TestThresholdCascade:
    def test_minus_infinity_stops_immediately(self, rng):
        t = random_table(rng, n=5, k=3)
        tr = threshold_cascade(t, 0, np.full(3, -np.inf))
        assert tr.executed == (0,)
        assert tr.answer_model == 0

    def test_plus_infinity_runs_everything(self, rng):
        t = random_table(rng, n=5, k=3)
        tr = threshold_cascade(t, 0, np.full(3, np.inf))
        assert tr.executed == (0, 1, 2)
        assert tr.answer_model == 2

    def test_direct_comparison(self):
        k = 2
        qm = np.zeros((1, k + 1, k))
        qm[0, 1, 0] = 0.7  # estimate of model 0 after it ran
        t = EstimateTable.build(qm, np.ones((1, k + 1, k)), true_cost=np.ones((1, k)))
        tr = threshold_cascade(t, 0, [0.0, 0.6])
        assert tr.executed == (0,)

    @pytest.mark.parametrize("thresholds", [
        [0.0, np.nan, 0.5],
        [0.0, 0.5, 0.5, 0.5],
        [0.0, 0.5],
    ], ids=["nan", "too-long", "too-short"])
    def test_bad_thresholds_rejected(self, rng, thresholds):
        t = random_table(rng, n=5, k=3)
        with pytest.raises(ValueError, match="thresholds must"):
            threshold_cascade(t, 0, thresholds)
        with pytest.raises(ValueError, match="thresholds must"):
            threshold_metrics(t, thresholds)

    def test_answer_is_last_executed(self, rng):
        t = random_table(rng, n=8, k=4)
        for q in range(8):
            tr = threshold_cascade(t, q, [0.0, 0.5, 0.5, 0.5])
            assert tr.answer_model == tr.executed[-1]
            assert tr.realized_cost == pytest.approx(
                t.true_cost[q, list(tr.executed)].sum()
            )


def loop_threshold_metrics(table, thresholds):
    """The threshold cascade's (quality, cost) means from a step loop over every query still running."""
    n = table.n_queries
    last = np.zeros(n, dtype=np.int64)
    sunk = table.computed_cost[:, 0].copy()
    active = np.ones(n, dtype=bool)
    for t in range(1, table.n_models):
        active &= ~(table.quality_mean[np.arange(n), t, last] >= thresholds[t])
        go = np.flatnonzero(active)
        last[go] = t
        sunk[go] += table.computed_cost[go, t]
    return float(table.true_quality[np.arange(n), last].mean()), float(sunk.mean())


class TestThresholdBatch:
    """``_threshold_batch`` runs P threshold vectors in one pass; ``threshold_metrics`` is its one-vector case."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_each_vector_equals_its_one_vector_run(self, rng, k):
        t = random_table(rng, n=50, k=k, step_varying=True)
        t.quality_mean[:] = np.round(t.quality_mean * 4) / 4  # estimates exactly at a threshold
        pool = np.array([-np.inf, np.inf, 0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
        thresholds = np.concatenate([rng.choice(pool, (12, k)), rng.uniform(-0.2, 1.2, (12, k))])
        thresholds[3] = thresholds[5]  # a repeated vector
        got = cascading._threshold_batch(t, thresholds)
        assert len(got) == len(thresholds)
        for thr, metrics in zip(thresholds, got):
            assert metrics == threshold_metrics(t, thr) == loop_threshold_metrics(t, thr)
            answers = [threshold_cascade(t, q, thr).answer_model for q in range(t.n_queries)]
            assert metrics[0] == float(t.true_quality[np.arange(t.n_queries), answers].mean())
        assert k == 1 or len(set(got)) > 4  # the vectors stop queries at different steps

    def test_one_vector_keeps_its_checks(self, rng):
        t = random_table(rng, n=5, k=3)
        for bad in ([0.0, np.nan, 0.5], [0.0, 0.5], [[0.0, 0.5, 0.5]]):
            with pytest.raises(ValueError, match="thresholds must"):
                threshold_metrics(t, bad)
        blind = random_table(rng, n=5, k=3, with_truth=False)
        with pytest.raises(ValueError, match="ground truth"):
            threshold_metrics(blind, [0.0, 0.5, 0.5])


class TestFitThresholdCascade:
    def test_tight_budget_stops_at_first(self, rng):
        t = random_table(rng, n=40, k=3)
        budget = float(t.true_cost[:, 0].mean()) * 1.05
        thr = fit_threshold_cascade(t, budget, search_config=SearchConfig(max_evals=40, seed=3))
        _, cost = threshold_metrics(t, thr)
        assert cost <= budget + 1e-9

    def test_rich_budget_beats_stop_at_first(self, rng):
        t = random_table(rng, n=60, k=3)
        # informative estimates: after-step estimates equal the truth
        qm = np.repeat(t.true_quality[:, None, :], 4, axis=1)
        t = EstimateTable.build(
            qm, t.cost_mean, true_quality=t.true_quality, true_cost=t.true_cost
        )
        budget = float(t.true_cost.sum(axis=1).mean())
        thr = fit_threshold_cascade(t, budget, search_config=SearchConfig(max_evals=80, seed=3))
        q_fit, cost = threshold_metrics(t, thr)
        q_stop1 = threshold_metrics(t, np.full(3, -np.inf))[0]
        assert cost <= budget + 1e-9
        assert q_fit >= q_stop1 - 1e-9

    def test_monotone_in_budget(self, rng):
        t = random_table(rng, n=60, k=3)
        lo = float(t.true_cost[:, 0].mean()) * 1.2
        hi = float(t.true_cost.sum(axis=1).mean())
        cfg = SearchConfig(max_evals=60, seed=5)
        q_lo = threshold_metrics(t, fit_threshold_cascade(t, lo, search_config=cfg))[0]
        q_hi = threshold_metrics(t, fit_threshold_cascade(t, hi, search_config=cfg))[0]
        assert q_hi >= q_lo - 1e-9


class TestRunCascade:
    def test_trace_conventions(self, rng):
        t = random_table(rng, n=10, k=3, step_varying=True)
        sigma = estimate_sigma(t)
        params = StrategyParams.equal(0.4, 3, gamma=1.0)
        for q in range(10):
            tr = run_cascade(t, q, params, sigma, MonteCarloConfig(seed=6), u=0.0)
            assert tr.answer_model == tr.executed[-1]
            assert tr.executed == tuple(range(len(tr.executed)))
            assert tr.realized_cost == pytest.approx(t.true_cost[q, list(tr.executed)].sum())

    def test_floor_cost_is_first_model(self, rng):
        t = random_table(rng, n=10, k=3)
        assert cascade_floor_cost(t) == pytest.approx(t.true_cost[:, 0].mean())


def step_candidates(table, q, sigma, mc):
    """Per step t >= 1, the ``(mask, expected max, cost)`` of each chain prefix of length >= t, as a step walk scores them.

    One ``StepEstimates`` and one ``EmaxEvaluator`` per step and one
    expected maximum per chain prefix, over the query's full draw matrix;
    chain costs are running sums of ``member_costs`` in chain order.
    """
    k = table.n_models
    z = query_normals(mc, int(table.query_ids[q]), k)
    steps = {}
    for t in range(1, k):
        est = StepEstimates.from_table(table, q, t, sigma, range(t))
        evaluator = EmaxEvaluator(z, est.quality_mean, est.quality_std)
        costs = est.member_costs()
        cost = 0.0
        steps[t] = []
        for length in range(1, k + 1):
            cost += costs[length - 1]
            if length >= t:
                mask = (1 << length) - 1
                steps[t].append((mask, evaluator.expected_max_mask(mask), cost))
    return steps


def walk(table, q, params, steps, mc, u):
    """The cascade decision of ``step_candidates``, selected by ``argmax_tradeoff`` over masks."""
    if u is None:
        u = mixing_uniform(mc.seed, int(table.query_ids[q]))
    pick = Pick.MIN_COST if u < params.gamma else Pick.MAX_COST
    executed = [0]
    for t in range(1, table.n_models):
        if argmax_tradeoff(steps[t], params.lambdas[t], pick) == (1 << t) - 1:
            break
        executed.append(t)
    return decision_trace(table, q, executed, executed[-1])


def tie_prices(steps):
    """Every nonnegative price where two candidates of one step tie, with its float64 neighbours."""
    prices = [
        (qa - qb) / (ca - cb)
        for cands in steps.values()
        for i, (_, qa, ca) in enumerate(cands)
        for (_, qb, cb) in cands[i + 1 :]
        if ca != cb
    ]
    prices = np.unique([p for p in prices if np.isfinite(p) and p >= 0])
    near = np.concatenate([prices, np.nextafter(prices, np.inf), np.nextafter(prices, -np.inf)])
    return near[near >= 0].tolist()


@contextlib.contextmanager
def scores_seen():
    """The candidates ``cascading._stops`` hands to ``argmax_tradeoff``, one list per step."""
    seen = []

    def spy(candidates, lam, pick):
        seen.append(list(candidates))
        return argmax_tradeoff(candidates, lam, pick)

    with mock.patch.object(cascading, "argmax_tradeoff", spy):
        yield seen


class TestRunCascadeEqualsStepWalk:
    """``run_cascade`` scores a step's chain prefixes in one block, with a step walk's bits and decisions."""

    @given(
        seed=st.integers(0, 2**16),
        k=st.integers(1, 8),
        n_samples=st.sampled_from([2, 3, 5, 16, 33, 64]),
        tied=st.booleans(),
        zero_sigma=st.booleans(),
        gamma=st.sampled_from([0.0, 0.5, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_decisions_and_scores_equal_step_walk_property(self, seed, k, n_samples, tied, zero_sigma, gamma, data):
        rng = np.random.default_rng(seed)
        n = 3
        t = random_table(rng, n=n, k=k, step_varying=True)
        if tied:  # coarse values tie exactly, and model k // 2 costs nothing
            t.quality_mean[:] = np.round(t.quality_mean * 4) / 4
            t.cost_mean[:] = np.round(t.cost_mean * 2) / 2
            t.cost_mean[:, :, k // 2] = 0.0
        sigma = np.zeros((k, k + 1)) if zero_sigma else rng.uniform(0.0, 0.35, (k, k + 1))
        mc = MonteCarloConfig(n_samples=n_samples, seed=seed)
        for q in range(n):
            steps = step_candidates(t, q, sigma, mc)
            prices = [0.0, 1e6, LAMBDA_CAP] + tie_prices(steps)
            price = st.sampled_from(prices)
            ladder = data.draw(st.lists(
                st.one_of(price.map(lambda lam: [lam] * k), st.lists(price, min_size=k, max_size=k)),
                min_size=1, max_size=4,
            ))
            for lambdas in ladder:
                params = StrategyParams(tuple(lambdas), gamma)
                for u in (0.25, 0.75, None):
                    with scores_seen() as seen:
                        got = run_cascade(t, q, params, sigma, mc, u)
                    assert got == walk(t, q, params, steps, mc, u)
                    # every step's expected maxima and chain costs, to the last bit,
                    # with ids ascending in chain length
                    assert len(seen) == min(len(got.executed), k - 1)
                    for step, cands in enumerate(seen, start=1):
                        assert cands == [(mask.bit_length(), emax, cost) for mask, emax, cost in steps[step]], step

