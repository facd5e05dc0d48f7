"""Construction of step-indexed noisy quality and cost estimates.

The benchmark pipeline never queries live models. Instead, ground truth is
either loaded from CSV or synthesized, and estimates are produced by adding
zero-centered Gaussian noise to the truth and fitting a univariate linear
map from the noisy signal back to the truth. Each (query, model) pair gets
two independent signal draws: a "before" draw used at steps where the model
has not been computed yet, and a sharper "after" draw used once it has.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import EstimateTable, TrueTable, check_integer, check_number

_STREAM_WORKLOAD = 0x57
_STREAM_NOISE = 0x4E


@dataclass(frozen=True)
class NoiseSpec:
    """Noise stds for the quality/cost signals, before and after computation."""

    quality_sigma_before: float
    quality_sigma_after: float
    cost_sigma_before: float
    cost_sigma_after: float

    def __post_init__(self) -> None:
        for name in (
            "quality_sigma_before",
            "quality_sigma_after",
            "cost_sigma_before",
            "cost_sigma_after",
        ):
            check_number(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if (
            self.quality_sigma_after > self.quality_sigma_before
            or self.cost_sigma_after > self.cost_sigma_before
        ):
            warnings.warn(
                "estimate noise does not shrink after computation; cascading "
                "gains nothing from running models",
                stacklevel=2,
            )


# Benchmark noise grid. Quality sigmas are on the [0, 1] quality scale; cost
# sigmas are on the default synthetic cost scale (per-query model cost means
# around 7e-5 .. 3e-3). The "high" level destroys the cost signal entirely.
NOISE_PRESETS = {
    "low": NoiseSpec(0.6, 0.3, 0.0002, 0.00005),
    "medium": NoiseSpec(1.6, 0.8, 0.0004, 0.0001),
    "high": NoiseSpec(2.4, 1.2, 100.0, 100.0),
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Synthetic workload: expert-structured success rates, length-scaled cost.

    Each model has a base success rate that rises with its cost and a
    specialty topic; queries carry a topic (rewarding the matching experts)
    and a difficulty that drags weaker models down more than stronger ones.
    By default quality is a per-(query, model) correct/incorrect draw from
    that success rate, which is what makes stopping on a verified-good cheap
    answer worthwhile; ``binary_quality=False`` keeps the rate itself. Costs
    multiply a per-model base price by a per-query length factor.
    """

    n_queries: int
    n_models: int
    seed: int = 0
    base_costs: Optional[tuple[float, ...]] = None
    base_skills: Optional[tuple[float, ...]] = None
    n_specialties: int = 4
    expertise_bonus: float = 0.22
    difficulty_weight: float = 0.35
    binary_quality: bool = True
    cost_spread: float = 0.25

    def __post_init__(self) -> None:
        for name in ("n_queries", "n_models", "seed", "n_specialties"):
            check_integer(name, getattr(self, name))
        for name in ("expertise_bonus", "difficulty_weight", "cost_spread"):
            check_number(name, getattr(self, name))
        for name in ("base_costs", "base_skills"):  # null, or one number per model
            values = getattr(self, name)
            for value in () if values is None else np.ravel(np.array(values, dtype=object)):
                check_number(name, value)
        if not isinstance(self.binary_quality, bool):
            raise ValueError(f"binary_quality must be true or false, got {self.binary_quality!r}")
        if self.n_queries < 1 or self.n_models < 1:
            raise ValueError("workload needs n_queries >= 1 and n_models >= 1")
        if self.n_specialties < 1:
            raise ValueError("n_specialties must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolved_base_costs(self) -> np.ndarray:
        if self.base_costs is not None:
            costs = np.asarray(self.base_costs, dtype=np.float64)
            if costs.shape != (self.n_models,):
                raise ValueError("base_costs length must equal n_models")
            return costs
        if self.n_models == 1:
            return np.array([1e-3])
        return np.geomspace(7.3e-5, 3.281e-3, self.n_models)

    def resolved_base_skills(self) -> np.ndarray:
        if self.base_skills is not None:
            skills = np.asarray(self.base_skills, dtype=np.float64)
            if skills.shape != (self.n_models,):
                raise ValueError("base_skills length must equal n_models")
            return skills
        if self.n_models == 1:
            return np.array([0.7])
        strength = (np.arange(self.n_models) + 0.5) / self.n_models
        return 0.42 + 0.4 * strength


def generate_workload(spec: WorkloadSpec) -> TrueTable:
    """Synthesize a ground-truth table; byte-identical under the same spec."""
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, _STREAM_WORKLOAD)))
    n, k = spec.n_queries, spec.n_models
    base_cost = spec.resolved_base_costs()
    skill = spec.resolved_base_skills()

    topic = rng.integers(0, spec.n_specialties, size=n)
    difficulty = rng.random(n)
    length = np.exp(rng.normal(0.0, spec.cost_spread, size=n))

    specialty = np.arange(k) % spec.n_specialties
    affinity = (specialty[None, :] == topic[:, None]).astype(np.float64)
    # Strong models shrug off difficulty; weak ones feel it fully.
    strength = (np.arange(k) + 0.5) / k if k > 1 else np.ones(1)
    drag = spec.difficulty_weight * difficulty[:, None] * (1.15 - strength[None, :])

    rate = skill[None, :] + spec.expertise_bonus * affinity - drag
    rate = np.clip(rate, 0.03, 0.97)
    if spec.binary_quality:
        quality = (rng.random((n, k)) < rate).astype(np.float64)
    else:
        quality = rate
    cost = base_cost[None, :] * length[:, None]
    return TrueTable(query_ids=np.arange(n), quality=quality, cost=cost)


def _fit_signal_map(signal: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """Univariate least-squares slope and intercept mapping a noisy signal to truth.

    A (near-)constant signal carries no information; fall back to predicting
    the target mean.
    """
    sx = float(np.std(signal))
    scale = max(1.0, float(np.max(np.abs(signal))))
    if sx <= 1e-12 * scale:
        return 0.0, float(np.mean(target))
    cov = float(np.mean((signal - signal.mean()) * (target - target.mean())))
    slope = cov / (sx * sx)
    return slope, float(target.mean() - slope * signal.mean())


def simulate_estimates(
    true_table: TrueTable,
    noise: NoiseSpec,
    seed: int,
    fit_indices=None,
) -> EstimateTable:
    """Turn ground truth into a step-indexed estimate table.

    For every (query, model) and each of the quality/cost channels, draw one
    noisy signal per regime (before/after computation), fit one linear
    signal-to-truth map per (model, regime) on ``fit_indices`` (default: all
    queries), and fill step ``t`` with the before-regime estimate while the
    model is uncomputed under the chain convention (``t <= model``) and the
    after-regime estimate once computed. The table holds means only: the
    uncertainty the strategies read is fitted on validation data
    (``cascading.estimate_sigma``). Deterministic under ``seed``.
    """
    n, k = true_table.n_queries, true_table.n_models
    fit_idx = np.arange(n) if fit_indices is None else np.asarray(fit_indices)
    if fit_idx.size < 2:
        raise ValueError("need at least 2 fitting queries")

    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_NOISE)))
    draws = rng.standard_normal(size=(4, n, k))
    signals = {
        ("quality", "before"): true_table.quality + noise.quality_sigma_before * draws[0],
        ("quality", "after"): true_table.quality + noise.quality_sigma_after * draws[1],
        ("cost", "before"): true_table.cost + noise.cost_sigma_before * draws[2],
        ("cost", "after"): true_table.cost + noise.cost_sigma_after * draws[3],
    }
    truths = {"quality": true_table.quality, "cost": true_table.cost}

    est_mean = {key: np.empty((n, k)) for key in signals}
    for (channel, regime), sig in signals.items():
        target = truths[channel]
        for i in range(k):
            slope, intercept = _fit_signal_map(sig[fit_idx, i], target[fit_idx, i])
            est_mean[(channel, regime)][:, i] = slope * sig[:, i] + intercept

    steps = np.arange(k + 1)[:, None]
    models = np.arange(k)[None, :]
    after = steps > models  # chain convention: model i is computed from step i+1 on

    def per_step(channel: str) -> np.ndarray:
        before_arr = est_mean[(channel, "before")][:, None, :]
        after_arr = est_mean[(channel, "after")][:, None, :]
        return np.where(after[None, :, :], after_arr, before_arr)

    return EstimateTable(
        query_ids=true_table.query_ids.copy(),
        quality_mean=per_step("quality"),
        cost_mean=np.clip(per_step("cost"), 0.0, None),
        true_quality=true_table.quality.copy(),
        true_cost=true_table.cost.copy(),
    )
