"""Bitmask helpers for coordinate sets and cube vertices.

Coordinates are numbered 1..n; coordinate i lives in bit i-1. Both vertices
of the n-cube and sets of coordinates are plain Python ints, so union,
intersection and symmetric difference are ``|``, ``&`` and ``^``.
"""

from __future__ import annotations

from collections.abc import Iterator


def bit(coord: int) -> int:
    """Mask with only coordinate ``coord`` (1-based) set."""
    if coord < 1:
        raise ValueError(f"coordinates are 1-based, got {coord}")
    return 1 << (coord - 1)


def full_mask(n: int) -> int:
    """Mask of all n coordinates, i.e. the vertex antipodal to 0."""
    return (1 << n) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def _check_mask(mask: int) -> None:
    """Raise ``ValueError`` for a negative mask, which has infinitely many
    coordinates."""
    if mask < 0:
        raise ValueError(f"coordinate sets are nonnegative masks, got {mask}")


def coords(mask: int) -> Iterator[int]:
    """Coordinates of ``mask`` in ascending order; a negative mask raises
    ``ValueError``, since it has infinitely many."""
    _check_mask(mask)
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def mask_deposit(value: int, positions: int) -> int:
    """Scatter the low bits of ``value`` into the bit slots selected by
    ``positions`` (software PDEP)."""
    _check_mask(positions)
    out = 0
    shift = 0
    while positions:
        low = positions & -positions
        if (value >> shift) & 1:
            out |= low
        shift += 1
        positions ^= low
    return out


def format_coord_set(mask: int) -> str:
    """Human-readable coordinate set, e.g. ``{1,3}`` or ``{}``."""
    return "{" + ",".join(str(c) for c in coords(mask)) + "}"


def coord_set_tables(n: int) -> tuple[int, list[str], list[str]]:
    """:func:`format_coord_set` for masks below 2**n, as two table lookups.

    Returns ``(h, low, high)`` with h = ceil(n/2). For lo = m & full_mask(h),
    the name of m is ``low[lo] + high[2 * (m >> h) + (lo != 0)]``: ``low``
    holds "{" and the subsets of coordinates 1..h, ``high`` the subsets of
    h+1..n and the closing "}", each first without a leading comma, then
    with one where it names a coordinate. Both are built by doubling, so
    they hold O(2**(n/2)) strings, not 2**n.
    """

    def names(first: int, count: int) -> list[str]:
        out = [""]
        for c in range(first, first + count):
            out += [f"{s},{c}" if s else str(c) for s in out]
        return out

    half = (n + 1) // 2
    low = ["{" + s for s in names(1, half)]
    high = [t + "}" for s in names(half + 1, n - half) for t in (s, "," + s if s else s)]
    return half, low, high
