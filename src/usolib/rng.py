"""Seeded pseudo-randomness with counter-based streams.

All randomness in this package flows through a splitmix64 mixer. Value k of
the stream with seed s is mix(s + (k + 1) * golden), a pure function of
(seed, index), and :func:`stream_block` is the one place that computes it.
Each (seed, index) has one use: a walk batch's trial seeds are indices
0..trials-1 of its master seed, a trial's Random Edge steps read indices 0,
1, ... of its trial seed, index :data:`SIDE_INDEX` holds a seed's one side
value (a trial seed's random start, or a ``uso bench`` dimension master's
instance seed), and a random family draws indices 0, 1, ... of its seed
through a :class:`SplitMix64` cursor. A walk would need about 6.5e18 steps
to reach index SIDE_INDEX.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)

#: the stream index of a seed's one side value (see the module docstring);
#: value SIDE_INDEX of seed s is mix(s + 0x1D8AF066B1F4B2A5)
SIDE_INDEX = 0x5A1656C55201B050

#: :func:`stream_block` mixes about this many values at a time, so the
#: mixer's temporaries stay in cache however large the block
_MIX_CHUNK = 1 << 16


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array that the caller owns, in
    place; uint64 array arithmetic wraps without a warning."""
    x ^= x >> _SHIFT1
    x *= _MIX1
    x ^= x >> _SHIFT2
    x *= _MIX2
    x ^= x >> _SHIFT3
    return x


def stream_block(seeds: np.ndarray, start: int, count: int) -> np.ndarray:
    """Values ``start``..``start + count - 1`` of the stream of each uint64
    seed, as a (count, seeds.size) uint64 array whose row i holds value
    start + i of every stream. It is filled a few rows at a time, about
    ``_MIX_CHUNK`` values, so a wide or long block needs no temporaries of
    its own size."""
    out = np.empty((count, seeds.size), dtype=np.uint64)
    first = np.uint64(((start + 1) * _GOLDEN) & _MASK64)
    rows = max(1, _MIX_CHUNK // max(seeds.size, 1))
    for lo in range(0, count, rows):
        part = out[lo : lo + rows]
        offsets = np.arange(lo, lo + part.shape[0], dtype=np.uint64)
        offsets *= _GOLDEN_U64
        offsets += first
        np.add(offsets[:, None], seeds, out=part)
        _mix64_inplace(part)
    return out


def derive_seed(master: int, index: int) -> int:
    """Substream seed for e.g. one trial out of many."""
    return int(stream_block(np.array([master & _MASK64], dtype=np.uint64), index, 1)[0, 0])


def derive_seeds_np(master: int, count: int) -> np.ndarray:
    """Substream seeds for trials 0..count-1 as a uint64 array."""
    return SplitMix64(master).draw(count)


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
        values = stream_block(np.array([self.seed], dtype=np.uint64), self.index, count)[:, 0]
        self.index += count
        return values
