"""Monte Carlo estimation of the expected maximum of independent Gaussians.

The quality of a set of models is the expected maximum of their noisy
quality estimates. That expectation has no convenient closed form for
heterogeneous means/stds, so it is estimated with a fixed-size antithetic
Monte Carlo draw. Draws are derived deterministically from a global seed and
the query id, and the same draw matrix is shared by every candidate set
scored within one decision, so score comparisons across the candidate
lattice are not corrupted by independent sampling noise.

Batch seeding. A query's stream is ``default_rng(SeedSequence((seed,
stream, query_id)))``. For a whole table, ``_seed_words`` computes every
query's ``SeedSequence(...).generate_state(4, np.uint64)``, the four words
PCG64 seeds itself from, in one pass of uint64 numpy operations: numpy's
4-word entropy pool with its ``hashmix`` and ``mix`` steps, masked to 32
bits. Each query's PCG64 then takes its words through ``_Words``, a minimal
``ISeedSequence``, so ``standard_normal`` and ``random`` return the same bits
as the per-query path. It is exact because the entropy words are assembled
as ``SeedSequence`` assembles them (each integer as little-endian 32-bit
words, at least one), because an entropy shorter than the pool hashes in
zeros exactly as the pool's own padding does, and because words past the
pool are mixed in with the same loop; ids of one and of two words are
hashed as two groups. A single query still goes through ``SeedSequence``,
which is as fast for one query.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import check_integer

_STREAM_MC = 0x4D
_STREAM_COIN = 0x47

DEFAULT_MC_SAMPLES = 512

# numpy's SeedSequence constants: a 4-word pool, its hashmix and mix steps
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _int_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an integer: little-endian 32-bit words, at least one."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash step of uint64 words below 2**32, and the next hash constant."""
    nxt = const * mult & _MASK32
    value = (value ^ np.uint64(const)) * np.uint64(nxt) & np.uint64(_MASK32)
    return value ^ value >> np.uint64(16), nxt


def _mix_pool(entropy: np.ndarray) -> np.ndarray:
    """(m, 4) SeedSequence pool of each row of (m, words) uint64 entropy words."""
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = _hash(value, const, _MULT_A)
        return value

    def mix(x, y):
        result = (np.uint64(_MIX_MULT_L) * x - np.uint64(_MIX_MULT_R) * y) & np.uint64(_MASK32)
        return result ^ result >> np.uint64(16)

    m, n_words = entropy.shape
    zero = np.zeros(m, dtype=np.uint64)
    pool = [hashmix(entropy[:, i] if i < n_words else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, n_words):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return np.stack(pool, axis=1)


def _seed_words(seed: int, stream: int, query_ids) -> np.ndarray:
    """(n, 4) uint64: ``SeedSequence((seed, stream, q)).generate_state(4, np.uint64)`` per id."""
    ids = np.asarray(query_ids, dtype=np.int64)
    if ids.size and ids.min() < 0:
        raise ValueError("query ids must be >= 0")
    ids = ids.astype(np.uint64)
    head = np.array(_int_words(int(seed)) + _int_words(int(stream)), dtype=np.uint64)
    wide = ids > _MASK32
    pool = np.empty((ids.size, _POOL_SIZE), dtype=np.uint64)
    for group in (np.flatnonzero(~wide), np.flatnonzero(wide)):
        tail = [ids[group] & np.uint64(_MASK32)]
        if group.size and wide[group[0]]:
            tail.append(ids[group] >> np.uint64(32))
        entropy = np.concatenate([np.broadcast_to(head, (group.size, head.size)), np.stack(tail, axis=1)], axis=1)
        pool[group] = _mix_pool(entropy)
    # generate_state cycles the pool into 8 words, paired little-endian
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value, const = _hash(pool[:, i % _POOL_SIZE], const, _MULT_B)
        words.append(value)
    return np.stack([words[2 * j] | words[2 * j + 1] << np.uint64(32) for j in range(_POOL_SIZE)], axis=1)


class _Words(np.random.bit_generator.ISeedSequence):
    """Seed words computed ahead, handed to a bit generator as ``SeedSequence`` would hand them."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != self.words.size or np.dtype(dtype) != self.words.dtype:
            raise ValueError("precomputed seed words are four uint64 words")
        return self.words.copy()


def _generators(seed: int, stream: int, query_ids):
    """One ``default_rng(SeedSequence((seed, stream, q)))``-equal generator per id, built lazily."""
    for words in _seed_words(seed, stream, query_ids):
        yield np.random.Generator(np.random.PCG64(_Words(words)))


def mixing_uniform(seed: int, query_id: int) -> float:
    """Deterministic per-query uniform draw for the strategy-mixing coin."""
    seq = np.random.SeedSequence((seed, _STREAM_COIN, int(query_id)))
    return float(np.random.default_rng(seq).random())


def mixing_uniforms(seed: int, query_ids) -> np.ndarray:
    """``mixing_uniform(seed, q)`` of every id, bit for bit, seeded in one pass."""
    return np.array([rng.random() for rng in _generators(seed, _STREAM_COIN, query_ids)])


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sample count and seed for expected-max estimation.

    ``n_samples`` is rounded up to an even number so antithetic pairs line up.
    """

    n_samples: int = DEFAULT_MC_SAMPLES
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("n_samples", self.n_samples)
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


def half_normals(config: MonteCarloConfig, query_ids, n_models: int) -> np.ndarray:
    """(n, n_models, half): each id's first antithetic half of ``query_normals``, transposed.

    Equal bit for bit to ``query_normals(config, q, n_models)[:half].T`` for
    every id ``q``, with the seeds computed in one pass.
    """
    ids = np.asarray(query_ids)
    out = np.empty((ids.size, n_models, config.half))
    for row, rng in enumerate(_generators(config.seed, _STREAM_MC, ids)):
        out[row] = rng.standard_normal((config.half, n_models)).T
    return out


def antithetic_samples(means: np.ndarray, scaled: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``(..., k, 2 * half)`` samples: ``means + scaled``, then ``means - scaled``.

    ``scaled`` is ``(..., k, half)``, the first antithetic half of the draws
    times each model's std, with each model's samples along the last axis,
    and ``means`` is ``(..., k)``. Equal to the full antithetic draws scaled
    as ``z * stds + means`` to the last bit, because IEEE negation is exact:
    ``(-z) * s == -(z * s)`` and ``m + -(x) == m - x``. The samples are
    written into ``out`` when given, a ``(..., k, 2 * half)`` array the
    caller reuses, and into a new array otherwise. The second half is
    written first, so ``scaled`` may be the first half of ``out``.
    """
    half = scaled.shape[-1]
    mu = means[..., None]
    if out is None:
        out = np.empty(scaled.shape[:-1] + (2 * half,))
    np.subtract(mu, scaled, out=out[..., half:])
    np.add(mu, scaled, out=out[..., :half])
    return out


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
