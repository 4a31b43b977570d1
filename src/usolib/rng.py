"""Seeded pseudo-randomness with counter-based streams.

All randomness in this package flows through a splitmix64 mixer. A stream
value is a pure function of (seed, index), so scalar loops and vectorized
batches produce bit-identical results by construction,
and per-trial substreams are derived from a master seed the same way on any
platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_START_SALT = 0x1D8AF066B1F4B2A5


def mix64(x: int) -> int:
    """splitmix64 finalizer over unsigned 64-bit ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def stream_value(seed: int, index: int) -> int:
    """The ``index``-th value of the stream identified by ``seed``."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def derive_seed(master: int, index: int) -> int:
    """Substream seed for e.g. one trial out of many."""
    return stream_value(master, index)


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array that the caller owns, in place;
    uint64 array arithmetic wraps without a warning."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def stream_values_np(seeds: np.ndarray, index: int) -> np.ndarray:
    """Vectorized :func:`stream_value`: one draw per uint64 seed, all at
    ``index``."""
    return _mix64_inplace(seeds + np.uint64(((index + 1) * _GOLDEN) & _MASK64))


def derive_seeds_np(master: int, count: int) -> np.ndarray:
    """Substream seeds for trials 0..count-1 as a uint64 array."""
    x = np.arange(1, count + 1, dtype=np.uint64)
    x *= np.uint64(_GOLDEN)
    x += np.uint64(master & _MASK64)
    return _mix64_inplace(x)


def start_values_np(seeds: np.ndarray) -> np.ndarray:
    """Auxiliary draw per uint64 seed, separated from the streams used for
    steps."""
    return _mix64_inplace(seeds + np.uint64(_START_SALT))


class SplitMix64:
    """A seeded stream and a cursor into it. The random constructions read
    only ``seed`` and ``index``, drawing a whole block of stream values at
    once and advancing ``index`` past them; ``next_u64`` and ``randrange``
    draw one value at a time, as the list shuffle ``shuffle`` in
    ``tests/helpers.py`` does. Stable across Python and numpy versions."""

    __slots__ = ("seed", "index")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.index = 0

    def next_u64(self) -> int:
        value = stream_value(self.seed, self.index)
        self.index += 1
        return value

    def randrange(self, k: int) -> int:
        if k <= 0:
            raise ValueError("randrange bound must be positive")
        return self.next_u64() % k
