import dataclasses

import numpy as np
import pytest

from modelselect._engine import BatchCascadeEngine
from modelselect._fitting import fit_budget_mixture
from modelselect.cascade_routing import fit_cascade_router, route_floor_cost
from modelselect.cascading import (
    cascade_floor_cost,
    estimate_sigma,
    fit_cascade,
    fit_threshold_cascade,
    threshold_metrics,
)
from modelselect.core import Pick
from modelselect.montecarlo import (
    EmaxEvaluator,
    MonteCarloConfig,
    _seed_words,
    antithetic_normals,
    antithetic_samples,
    expected_max,
    half_normals,
    mixing_uniform,
    mixing_uniforms,
    query_normals,
)
from modelselect.routing import cheapest_strategy_cost, expected_metrics, fit_router
from modelselect.search import SearchConfig

from conftest import random_table


class TestDraws:
    def test_antithetic_pairing(self):
        cfg = MonteCarloConfig(n_samples=64, seed=5)
        z = antithetic_normals(cfg, (3,), 4)
        assert z.shape == (64, 4)
        np.testing.assert_array_equal(z[32:], -z[:32])

    def test_antithetic_samples_equal_scaled_draws_in_any_buffer(self, rng):
        # a new array, a reused one, and one whose first half holds ``scaled``
        cfg = MonteCarloConfig(n_samples=16, seed=5)
        means, stds = rng.uniform(-1, 1, (3, 4)), rng.uniform(0, 0.5, (3, 4))
        z = np.stack([antithetic_normals(cfg, (q,), 4).T for q in range(3)])  # (3, 4, 16)
        want = z * stds[..., None] + means[..., None]
        scaled = z[..., : cfg.half] * stds[..., None]
        out = np.full(want.shape, np.nan)
        aliased = np.full(want.shape, np.nan)
        aliased[..., : cfg.half] = scaled
        for got in (antithetic_samples(means, scaled), antithetic_samples(means, scaled, out=out),
                    antithetic_samples(means, aliased[..., : cfg.half], out=aliased)):
            assert np.array_equal(got, want)
        assert np.array_equal(out, want) and np.array_equal(aliased, want)

    def test_query_streams_deterministic_and_distinct(self):
        cfg = MonteCarloConfig(seed=9)
        a = query_normals(cfg, 7, 3)
        b = query_normals(cfg, 7, 3)
        c = query_normals(cfg, 8, 3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mixing_uniform_in_unit_interval(self):
        draws = [mixing_uniform(1, q) for q in range(200)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert mixing_uniform(1, 5) == mixing_uniform(1, 5)
        assert mixing_uniform(1, 5) != mixing_uniform(2, 5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(n_samples=1)

    @pytest.mark.parametrize("n_samples", [100.5, "512", True, None])
    def test_non_integer_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            MonteCarloConfig(n_samples=n_samples)


class TestBatchSeeding:
    """One vectorized pass seeds every query exactly as its own SeedSequence would."""

    IDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    SEEDS = [0, 7, 2**32 - 1, 2**32, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS + [2**64, 2**100 + 3])
    @pytest.mark.parametrize("stream", [0x4D, 0x47])
    def test_seed_words_equal_seed_sequence(self, seed, stream, rng):
        # one-word and two-word ids mixed in one call, in any order; seeds of
        # two or more words push the entropy past the 4-word pool
        ids = np.array(self.IDS + list(rng.integers(0, 2**63 - 1, 6)) + list(rng.integers(0, 2**32, 6)))
        ids = ids[rng.permutation(ids.size)]
        got = _seed_words(seed, stream, ids)
        want = [np.random.SeedSequence((seed, stream, int(q))).generate_state(4, np.uint64) for q in ids]
        assert got.dtype == np.uint64 and np.array_equal(got, np.stack(want))

    def test_no_ids(self):
        assert _seed_words(3, 0x4D, np.array([], dtype=np.int64)).shape == (0, 4)
        assert half_normals(MonteCarloConfig(n_samples=8), [], 3).shape == (0, 3, 4)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_and_coins_equal_per_query_functions(self, seed, rng):
        ids = np.array(self.IDS + list(rng.integers(0, 2**63 - 1, 3)))
        cfg = MonteCarloConfig(n_samples=63, seed=seed)
        z = half_normals(cfg, ids, 3)
        assert z.shape == (ids.size, 3, cfg.half)
        for row, q in enumerate(ids):
            assert np.array_equal(z[row], query_normals(cfg, int(q), 3)[: cfg.half].T)
        coins = mixing_uniforms(seed, ids)
        assert np.array_equal(coins, [mixing_uniform(seed, int(q)) for q in ids])
        t = random_table(rng, n=ids.size, k=3)
        t.query_ids = ids
        assert np.array_equal(BatchCascadeEngine(t, np.zeros((3, 4)), cfg)._draws(), z)

    def test_negative_ids_rejected(self):
        # a uint64 cast would wrap -1 to 2**64 - 1 without a word
        with pytest.raises(ValueError, match="query ids must be >= 0"):
            _seed_words(0, 0x4D, np.array([3, -1]))
        with pytest.raises(ValueError, match="query ids must be >= 0"):
            mixing_uniforms(0, [-5])


class TestEvaluator:
    def test_matches_expected_max_on_shared_key(self):
        cfg = MonteCarloConfig(seed=3)
        means = np.array([0.2, 0.8, 0.5])
        stds = np.array([0.1, 0.3, 0.0])
        ev = EmaxEvaluator(query_normals(cfg, 11, 3), means, stds)
        direct = expected_max(means, stds, cfg, key=(11,))
        assert ev.expected_max([0, 1, 2]) == pytest.approx(direct, abs=1e-12)

    def test_empty_subset_rejected(self):
        ev = EmaxEvaluator(np.zeros((4, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            ev.expected_max([])
        with pytest.raises(ValueError):
            ev.max_mean_mask(0)

    def test_every_subset_equals_direct_maximum_bit_for_bit(self, rng):
        # the engine-vs-scalar tests use the evaluator as their oracle, so it
        # is pinned here to the plain formula, with no memoized maxima
        k = 8
        cfg = MonteCarloConfig(seed=61)
        means = rng.uniform(-1, 1, k)
        stds = rng.uniform(0, 0.5, k)
        stds[3] = 0.0
        z = query_normals(cfg, 19, k)
        ev = EmaxEvaluator(z, means, stds)
        values = means + stds * z
        order = rng.permutation(1 << k)
        for mask in order[order > 0]:
            cols = [m for m in range(k) if mask >> m & 1]
            want = float(values[:, cols].max(axis=1).mean())
            assert ev.expected_max(list(rng.permutation(cols))) == want
            assert ev.max_mean_mask(int(mask)) == float(means[cols].max())

    def test_subset_cache_consistent(self):
        cfg = MonteCarloConfig(seed=4)
        ev = EmaxEvaluator(query_normals(cfg, 2, 2), np.array([0.1, 0.9]), np.array([0.2, 0.2]))
        first = ev.expected_max([1, 0])
        second = ev.expected_max([0, 1])
        assert first == second


class TestFitBudgetMixture:
    def costs(self, steps):
        """Step function: cheap side cost drops as the price crosses breaks."""

        def cost_fn(lam, pick):
            level = sum(1 for b in steps if lam >= b)
            base = len(steps) - level + 1.0
            if pick is Pick.MAX_COST and any(abs(lam - b) < 1e-12 for b in steps):
                return base + 1.0
            return base

        return cost_fn

    def test_rich_budget_returns_zero_lambda(self):
        lam, gamma, cmin, cmax, lam_lo = fit_budget_mixture(self.costs([1.0]), budget=10.0)
        assert lam == 0.0 and gamma == 0.0 and lam_lo == lam

    def test_interpolates_between_picks(self):
        def cost_fn(lam, pick):
            if lam < 1.0:
                return 2.0
            return 1.0 if pick is Pick.MIN_COST else 2.0

        lam, gamma, cmin, cmax, lam_lo = fit_budget_mixture(cost_fn, budget=1.5)
        assert cmin <= 1.5 <= cmax
        # the bracket's lower end is the infeasible side of the breakpoint
        assert lam_lo < 1.0 <= lam and cost_fn(lam_lo, Pick.MIN_COST) > 1.5
        assert gamma * cmin + (1 - gamma) * cmax == pytest.approx(1.5)

    def test_infeasible_budget_raises(self):
        with pytest.raises(ValueError, match="below cheapest"):
            fit_budget_mixture(lambda lam, pick: 5.0, budget=1.0)


@pytest.mark.parametrize("fitter", ["fit_router", "fit_cascade", "fit_cascade_router",
                                    "fit_threshold_cascade"])
def test_budget_within_tolerance_below_floor_fits_at_floor(rng, fitter):
    table = random_table(rng, 40, 3, cost_low=1.5, cost_high=4.0)
    sigma = estimate_sigma(table)
    mc = MonteCarloConfig(n_samples=64, seed=0)
    search = SearchConfig(max_evals=5)
    fit, floor = {
        "fit_router": (lambda b: fit_router(table, b), cheapest_strategy_cost(table)),
        "fit_cascade": (lambda b: fit_cascade(table, b, sigma, mc, search),
                        cascade_floor_cost(table)),
        "fit_cascade_router": (
            lambda b: fit_cascade_router(table, b, sigma=sigma, mc=mc, search_config=search),
            route_floor_cost(table, sigma, mc),
        ),
        "fit_threshold_cascade": (lambda b: fit_threshold_cascade(table, b, search),
                                  cascade_floor_cost(table)),
    }[fitter]
    # above 1, a gap of 0.5e-9 * (1 + floor) is within the relative 1e-9
    # floor tolerance and one of 2e-9 * (1 + floor) is not
    assert floor > 1.0
    fit(floor - 0.5e-9 * (1.0 + floor))
    with pytest.raises(ValueError):
        fit(floor - 2e-9 * (1.0 + floor))


@pytest.mark.parametrize("s", [20, 40])
@pytest.mark.parametrize("fitter", ["fit_router", "fit_cascade", "fit_cascade_router",
                                    "fit_threshold_cascade"])
def test_fits_meet_budget_at_small_cost_units(rng, fitter, s):
    # every tolerance is relative, so costs in units of 2^-s fit as in units of 1
    base = random_table(rng, 300, 5, step_varying=True)
    table = dataclasses.replace(
        base, cost_mean=base.cost_mean * 2.0**-s, true_cost=base.true_cost * 2.0**-s
    )
    sigma = estimate_sigma(table)
    mc = MonteCarloConfig(n_samples=64, seed=0)
    search = SearchConfig(max_evals=50)
    route_floor = route_floor_cost(table, sigma, mc)
    assert route_floor == route_floor_cost(base, sigma, mc) * 2.0**-s
    floor = max(route_floor, cascade_floor_cost(table), cheapest_strategy_cost(table))
    budget = 1.05 * floor
    if fitter == "fit_router":
        cost = expected_metrics(fit_router(table, budget), table)[1]
    elif fitter == "fit_cascade":
        params = fit_cascade(table, budget, sigma, mc, search).params
        cost = BatchCascadeEngine(table, sigma, mc, chain_only=True).params_metrics(params)[1]
    elif fitter == "fit_cascade_router":
        params = fit_cascade_router(table, budget, sigma=sigma, mc=mc, search_config=search)
        cost = BatchCascadeEngine(table, sigma, mc).params_metrics(params)[1]
    else:
        cost = threshold_metrics(table, fit_threshold_cascade(table, budget, search))[1]
    assert cost <= budget * (1 + 1e-9)
