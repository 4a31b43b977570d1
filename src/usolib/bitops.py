"""Bitmask helpers for coordinate sets and cube vertices.

Coordinates are numbered 1..n; coordinate i lives in bit i-1. Both vertices
of the n-cube and sets of coordinates are plain Python ints, so union,
intersection and symmetric difference are ``|``, ``&`` and ``^``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator


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


def lowest_coord(mask: int) -> int:
    """Smallest coordinate in a nonempty mask."""
    _check_mask(mask)
    if mask == 0:
        raise ValueError("empty coordinate set")
    return (mask & -mask).bit_length()


def coords(mask: int) -> Iterator[int]:
    """Coordinates of ``mask`` in ascending order; a negative mask raises
    ``ValueError``, since it has infinitely many."""
    _check_mask(mask)
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def from_coords(items: Iterable[int]) -> int:
    out = 0
    for c in items:
        out |= bit(c)
    return out


def submasks(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, in increasing numeric order."""
    _check_mask(mask)
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


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


def coord_set_formatter(n: int) -> Callable[[int], str]:
    """:func:`format_coord_set` for masks below 2**n, as two table lookups.

    One table names the subsets of the low ceil(n/2) coordinates, the other
    those of the rest. Both are built by doubling, so they hold O(2**(n/2))
    strings, not 2**n.
    """

    def inner(first: int, count: int) -> list[str]:
        names = [""]
        for c in range(first, first + count):
            names += [f"{s},{c}" if s else str(c) for s in names]
        return names

    half = (n + 1) // 2
    low, high = inner(1, half), inner(half + 1, n - half)
    low_mask = full_mask(half)

    def name(mask: int) -> str:
        lo, hi = low[mask & low_mask], high[mask >> half]
        return "{" + lo + "," + hi + "}" if lo and hi else "{" + lo + hi + "}"

    return name
