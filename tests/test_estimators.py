import numpy as np
import pytest

from modelselect.cascading import estimate_sigma
from modelselect.core import TrueTable
from modelselect.estimators import (
    NOISE_PRESETS,
    NoiseSpec,
    WorkloadSpec,
    generate_workload,
    simulate_estimates,
)


class TestNoiseSpec:
    def test_presets_present(self):
        assert set(NOISE_PRESETS) == {"low", "medium", "high"}
        low = NOISE_PRESETS["low"]
        assert (low.quality_sigma_before, low.quality_sigma_after) == (0.6, 0.3)
        assert (low.cost_sigma_before, low.cost_sigma_after) == (0.0002, 0.00005)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(-1, 0, 0, 0)

    def test_growing_noise_warns_not_errors(self):
        with pytest.warns(UserWarning):
            NoiseSpec(0.1, 0.5, 0.0, 0.0)

    def test_high_preset_keeps_flat_cost_noise(self):
        high = NOISE_PRESETS["high"]
        assert high.cost_sigma_before == high.cost_sigma_after == 100.0


class TestGenerateWorkload:
    def test_single_model(self):
        t = generate_workload(WorkloadSpec(n_queries=10, n_models=1, seed=1))
        assert t.quality.shape == (10, 1)

    def test_expertise_varies_argmax(self):
        t = generate_workload(WorkloadSpec(n_queries=200, n_models=4, seed=2))
        argmax = t.quality.argmax(axis=1)
        assert len(set(argmax.tolist())) >= 2

    def test_deterministic_under_seed(self):
        spec = WorkloadSpec(n_queries=50, n_models=3, seed=9)
        a, b = generate_workload(spec), generate_workload(spec)
        np.testing.assert_array_equal(a.quality, b.quality)
        np.testing.assert_array_equal(a.cost, b.cost)

    def test_quality_clipped_to_unit_interval(self):
        t = generate_workload(WorkloadSpec(n_queries=500, n_models=5, seed=3))
        assert t.quality.min() >= 0.0 and t.quality.max() <= 1.0

    def test_costs_positive_and_ordered(self):
        t = generate_workload(WorkloadSpec(n_queries=100, n_models=4, seed=4))
        means = t.cost.mean(axis=0)
        assert np.all(t.cost > 0)
        assert np.all(np.diff(means) > 0)


def toy_truth(rng, n=300, k=3):
    quality = rng.uniform(0, 1, (n, k))
    cost = rng.uniform(0.5, 2.0, (n, k))
    return TrueTable(query_ids=np.arange(n), quality=quality, cost=cost)


class TestSimulateEstimates:
    def test_zero_noise_recovers_truth(self, rng):
        truth = toy_truth(rng)
        est = simulate_estimates(truth, NoiseSpec(0, 0, 0, 0), seed=1)
        np.testing.assert_allclose(est.quality_mean[:, 0, :], truth.quality, atol=1e-9)
        np.testing.assert_allclose(est.cost_mean[:, -1, :], truth.cost, atol=1e-9)

    def test_after_noise_tighter_than_before(self, rng):
        truth = toy_truth(rng, n=1000)
        est = simulate_estimates(truth, NOISE_PRESETS["low"], seed=2)
        k = truth.n_models
        # per model, the RMS error against truth of the before-regime estimate
        # (step 0) and of the after-regime estimate (final step), over the
        # fit rows (every row here)
        rms = np.sqrt(((est.quality_mean - truth.quality[:, None, :]) ** 2).mean(axis=0))
        for i in range(k):
            assert rms[k, i] < rms[0, i]

    def test_destroyed_cost_signal_flattens_to_mean(self, rng):
        truth = toy_truth(rng, n=1000)
        est = simulate_estimates(truth, NOISE_PRESETS["high"], seed=3)
        spread = est.cost_mean[:, 0, 0].std()
        assert spread < 0.05 * truth.cost[:, 0].std()

    def test_deterministic_under_seed(self, rng):
        truth = toy_truth(rng)
        a = simulate_estimates(truth, NOISE_PRESETS["low"], seed=5)
        b = simulate_estimates(truth, NOISE_PRESETS["low"], seed=5)
        np.testing.assert_array_equal(a.quality_mean, b.quality_mean)
        np.testing.assert_array_equal(a.cost_mean, b.cost_mean)

    def test_regime_switch_follows_chain_convention(self, rng):
        truth = toy_truth(rng, n=50, k=3)
        est = simulate_estimates(truth, NOISE_PRESETS["low"], seed=6)
        # model i keeps its before-regime estimate until step i, after from i+1
        for i in range(3):
            before = est.quality_mean[:, 0, i]
            for t in range(1, 4):
                same_as_before = np.array_equal(est.quality_mean[:, t, i], before)
                assert same_as_before == (t <= i)

    def test_sigma_monotone_in_before_noise(self, rng):
        truth = toy_truth(rng, n=800)
        sigmas = []
        for sb in (0.1, 0.4, 1.0):
            est = simulate_estimates(truth, NoiseSpec(sb, 0.0, 0.0, 0.0), seed=7)
            sigmas.append(estimate_sigma(est)[0, 0])
        assert sigmas[0] < sigmas[1] < sigmas[2]
