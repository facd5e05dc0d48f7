"""Monte Carlo estimation of the expected maximum of independent Gaussians.

The quality of a set of models is the expected maximum of their noisy
quality estimates. That expectation has no convenient closed form for
heterogeneous means/stds, so it is estimated with a fixed-size antithetic
Monte Carlo draw. Draws are derived deterministically from a global seed and
the query id, and the same draw matrix is shared by every candidate set
scored within one decision, so score comparisons across the candidate
lattice are not corrupted by independent sampling noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_STREAM_MC = 0x4D
_STREAM_COIN = 0x47

DEFAULT_MC_SAMPLES = 512


def mixing_uniform(seed: int, query_id: int) -> float:
    """Deterministic per-query uniform draw for the strategy-mixing coin."""
    seq = np.random.SeedSequence((seed, _STREAM_COIN, int(query_id)))
    return float(np.random.default_rng(seq).random())


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample count and seed for expected-max estimation.

    ``n_samples`` is rounded up to an even number so antithetic pairs line up.
    """

    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")

    @property
    def half(self) -> int:
        return (self.n_samples + 1) // 2


def antithetic_normals(config: MonteCarloConfig, key: tuple, n_cols: int) -> np.ndarray:
    """Standard-normal draws of shape (2 * half, n_cols), antithetic in pairs."""
    seq = np.random.SeedSequence((config.seed, _STREAM_MC) + tuple(int(v) for v in key))
    z = np.random.default_rng(seq).standard_normal((config.half, n_cols))
    return np.concatenate([z, -z], axis=0)


def query_normals(config: MonteCarloConfig, query_id: int, n_models: int) -> np.ndarray:
    """The per-query draw matrix shared across steps and candidate sets."""
    return antithetic_normals(config, (query_id,), n_models)


def expected_max_stderr(
    means: Sequence[float],
    stds: Sequence[float],
    config: MonteCarloConfig | None = None,
    key: tuple = (),
) -> tuple[float, float]:
    """Estimate ``E[max_i N(means_i, stds_i^2)]`` and its Monte Carlo stderr.

    Components are independent. When every std is zero the maximum is exact
    and the stderr is zero. The stderr accounts for antithetic pairing.
    """
    mu = np.asarray(means, dtype=np.float64)
    sd = np.asarray(stds, dtype=np.float64)
    if mu.shape != sd.shape or mu.ndim != 1 or mu.size < 1:
        raise ValueError("means and stds must be equal-length 1-D sequences")
    if np.any(sd < 0):
        raise ValueError("stds must be >= 0")
    if np.all(sd == 0):
        return float(mu.max()), 0.0
    config = config or MonteCarloConfig()
    z = antithetic_normals(config, key, mu.size)
    sample_max = (mu + sd * z).max(axis=1)
    half = config.half
    pair_means = 0.5 * (sample_max[:half] + sample_max[half:])
    stderr = float(np.std(pair_means, ddof=1) / math.sqrt(half)) if half > 1 else float("inf")
    return float(sample_max.mean()), stderr


def expected_max(
    means: Sequence[float],
    stds: Sequence[float],
    config: MonteCarloConfig | None = None,
    key: tuple = (),
) -> float:
    """Expected maximum of independent Gaussians; see ``expected_max_stderr``."""
    return expected_max_stderr(means, stds, config, key)[0]


class EmaxEvaluator:
    """Expected-max scorer for one query at one decision step.

    Holds the query's shared draw matrix scaled by the current means and
    stds, stored model-major as ``(k, S)`` rows, so every candidate subset
    is scored against the same realizations. Subsets are keyed by bitmask.
    A subset's sample maxima are one elementwise maximum of its highest
    member's row and the memoized maxima of the subset without it, so a
    chain of nested subsets costs one maximum per link. Each expected
    maximum equals ``(means + stds * z)[:, cols].max(axis=1).mean()`` to
    the last bit.
    """

    def __init__(self, z: np.ndarray, means: np.ndarray, stds: np.ndarray):
        means = np.asarray(means, dtype=np.float64)
        stds = np.asarray(stds, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != means.size or means.shape != stds.shape:
            raise ValueError("draw matrix and estimate vectors disagree")
        self._rows = np.multiply(z.T, stds[:, None], order="C")
        self._rows += means[:, None]
        self._n_samples = z.shape[0]
        self._means = means.tolist()
        self._sample_max: dict[int, np.ndarray] = {}
        self._cache: dict[int, float] = {}

    def _maxima(self, mask: int) -> np.ndarray:
        """Per-sample maximum over the members of ``mask``, memoized."""
        hit = self._sample_max.get(mask)
        if hit is None:
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            hit = self._rows[top] if rest == 0 else np.maximum(self._maxima(rest), self._rows[top])
            self._sample_max[mask] = hit
        return hit

    def expected_max_mask(self, mask: int) -> float:
        """Expected maximum over the models whose bits are set in ``mask``."""
        hit = self._cache.get(mask)
        if hit is None:
            if mask <= 0:
                raise ValueError("expected max over an empty set is undefined")
            hit = float(np.add.reduce(self._maxima(mask))) / self._n_samples
            self._cache[mask] = hit
        return hit

    def max_mean_mask(self, mask: int) -> float:
        """Largest mean among the models whose bits are set in ``mask``."""
        if mask <= 0:
            raise ValueError("max over an empty set is undefined")
        return max(self._means[m] for m in range(mask.bit_length()) if mask >> m & 1)

    def expected_max(self, members: Sequence[int]) -> float:
        """Expected maximum over ``members``, in any order."""
        mask = 0
        for m in members:
            mask |= 1 << int(m)
        return self.expected_max_mask(mask)
