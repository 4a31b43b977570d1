"""Exhaustive generation and classification of small-dimension USOs.

The generator assigns outmaps vertex by vertex. Bits on coordinates already
present in the vertex are forced by edge consistency with lower neighbors;
the remaining bits are branched over and pruned with the pairwise criterion
against all fixed vertices, which at a full assignment is exactly the
unique-sink property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bitops import submasks
from .core import (
    Orientation,
    canonical_form,
    is_acyclic,
    is_decomposable,
    validate_uso,
)
from .reach import niceness_index

Visitor = Callable[[Orientation], None]


def _check_enumerable(n: int, heavy: bool) -> None:
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n > 4:
        raise ValueError("enumeration is supported for n <= 4 only")
    if n == 4 and not heavy:
        raise ValueError(
            "n=4 enumerates millions of orientations; pass heavy=True to proceed"
        )


def enumerate_all(
    n: int,
    visitor: Visitor | None = None,
    *,
    heavy: bool = False,
    branch_descending: bool = False,
    verify: bool = False,
) -> int:
    """Visit every USO of dimension ``n`` exactly once; returns the count.

    ``branch_descending`` reverses the branching order (the visit order
    changes, the visited set must not). ``verify`` re-checks every complete
    table with :func:`validate_uso` before visiting it.
    """
    _check_enumerable(n, heavy)
    size = 1 << n
    full = size - 1
    table = [0] * size
    count = 0

    def assign(v: int) -> None:
        nonlocal count
        if v == size:
            o = Orientation(n, table)
            if verify and not validate_uso(o):
                return
            count += 1
            if visitor is not None:
                visitor(o)
            return
        forced = 0
        b = v
        while b:
            low = b & -b
            b ^= low
            if not table[v ^ low] & low:
                forced |= low
        candidates = [forced | f for f in submasks(full & ~v)]
        if branch_descending:
            candidates.reverse()
        for cand in candidates:
            ok = True
            for u in range(v):
                if not (table[u] ^ cand) & (u ^ v):
                    ok = False
                    break
            if ok:
                table[v] = cand
                assign(v + 1)
        table[v] = 0

    assign(0)
    return count


@dataclass(frozen=True)
class Census:
    """Classification counts for all USOs of one dimension."""

    n: int
    total_uso: int
    acyclic: int
    cyclic: int
    decomposable: int
    niceness_histogram: dict[int, int]
    #: canonical outmap table (space-joined) -> orbit size
    iso_classes: dict[str, int]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "total_uso": self.total_uso,
            "acyclic": self.acyclic,
            "cyclic": self.cyclic,
            "decomposable": self.decomposable,
            "niceness_histogram": {
                str(k): self.niceness_histogram[k]
                for k in sorted(self.niceness_histogram)
            },
            "iso_classes": {k: self.iso_classes[k] for k in sorted(self.iso_classes)},
        }


def census(n: int) -> Census:
    """Full classification of all n-dimensional USOs; n <= 3 only.

    Classifying the millions of 4-dimensional USOs is out of reach for this
    routine (use :func:`enumerate_all` with ``heavy=True`` for the bare
    count there).
    """
    if n > 3:
        raise ValueError(
            "census supports n <= 3; use enumerate_all(n, heavy=True) for counts"
        )
    total = 0
    acyclic_count = 0
    decomposable_count = 0
    histogram: dict[int, int] = {}
    iso: dict[str, int] = {}

    def visit(o: Orientation) -> None:
        nonlocal total, acyclic_count, decomposable_count
        total += 1
        if is_acyclic(o):
            acyclic_count += 1
        if is_decomposable(o):
            decomposable_count += 1
        idx = niceness_index(o).niceness_index
        histogram[idx] = histogram.get(idx, 0) + 1
        key = " ".join(str(x) for x in canonical_form(o).outmap.tolist())
        iso[key] = iso.get(key, 0) + 1

    enumerate_all(n, visit)
    result = Census(
        n=n,
        total_uso=total,
        acyclic=acyclic_count,
        cyclic=total - acyclic_count,
        decomposable=decomposable_count,
        niceness_histogram=histogram,
        iso_classes=iso,
    )
    assert result.decomposable <= result.acyclic
    assert sum(histogram.values()) == total
    return result


def recurrence_check(n: int) -> bool:
    """True iff the decomposable counts satisfy
    2*F(n-1)**2 <= F(n) <= 2n*F(n-1)**2."""
    if n not in (2, 3):
        raise ValueError("recurrence check is defined for n in {2, 3}")
    f_prev = census(n - 1).decomposable
    f_n = census(n).decomposable
    return 2 * f_prev**2 <= f_n <= 2 * n * f_prev**2
