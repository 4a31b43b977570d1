"""Seeded pseudo-randomness with counter-based streams.

All randomness in this package flows through a splitmix64 mixer. Value k of
the stream with seed s is mix(s + (k + 1) * golden), a pure function of
(seed, index), so a block of one stream (:meth:`SplitMix64.draw`) and one
index across many streams (:func:`stream_values_np`) agree bit for bit, and
per-trial substreams are derived from a master seed the same way on any
platform.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_START_SALT = 0x1D8AF066B1F4B2A5


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array that the caller owns, in
    place; uint64 array arithmetic wraps without a warning."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def stream_values_np(seeds: np.ndarray, index: int) -> np.ndarray:
    """One draw per uint64 seed, all at stream ``index``."""
    return _mix64_inplace(seeds + np.uint64(((index + 1) * _GOLDEN) & _MASK64))


def derive_seed(master: int, index: int) -> int:
    """Substream seed for e.g. one trial out of many."""
    return int(stream_values_np(np.array([master & _MASK64], dtype=np.uint64), index)[0])


def derive_seeds_np(master: int, count: int) -> np.ndarray:
    """Substream seeds for trials 0..count-1 as a uint64 array."""
    return SplitMix64(master).draw(count)


def start_values_np(seeds: np.ndarray) -> np.ndarray:
    """Auxiliary draw per uint64 seed, separated from the streams used for
    steps."""
    return _mix64_inplace(seeds + np.uint64(_START_SALT))


class SplitMix64:
    """A seeded stream and a cursor into it. ``draw`` returns the next block
    of stream values and advances ``index`` past them. Stable across Python
    and numpy versions."""

    __slots__ = ("seed", "index")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.index = 0

    def draw(self, count: int) -> np.ndarray:
        """Stream values ``index``..``index + count - 1`` as a uint64 array."""
        x = np.arange(self.index + 1, self.index + count + 1, dtype=np.uint64)
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self.seed)
        self.index += count
        return _mix64_inplace(x)
