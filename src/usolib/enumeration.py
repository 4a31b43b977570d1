"""Exhaustive generation and classification of small-dimension USOs.

The generator assigns outmaps vertex by vertex. Bits on coordinates already
present in the vertex are forced by edge consistency with lower neighbors;
the remaining bits are branched over and pruned with the pairwise criterion
against all fixed vertices, which at a full assignment is exactly the
unique-sink property.

The census classifies every generated USO: decomposability on one
(B, 2^n) stack of all the tables, niceness and the isomorphism class one
orientation at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bitops import submasks
from .core import (
    Orientation,
    canonical_form,
    decomposable_rows,
    topological_order,
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
) -> int:
    """Visit every USO of dimension ``n`` exactly once; returns the count."""
    _check_enumerable(n, heavy)
    size = 1 << n
    full = size - 1
    table = [0] * size
    count = 0

    def assign(v: int) -> None:
        nonlocal count
        if v == size:
            count += 1
            if visitor is not None:
                visitor(Orientation(n, table))
            return
        forced = 0
        b = v
        while b:
            low = b & -b
            b ^= low
            if not table[v ^ low] & low:
                forced |= low
        for f in submasks(full & ~v):
            cand = forced | f
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

    Decomposability is one :func:`~usolib.core.decomposable_rows` call on
    the (B, 2^n) stack of all the tables. Decomposable implies acyclic, so
    Kahn's :func:`~usolib.core.topological_order` runs only on the rows the
    decomposability test rejects. :func:`~usolib.reach.niceness_index` and
    :func:`~usolib.core.canonical_form` classify each orientation in turn.
    Classifying the millions of 4-dimensional USOs is out of reach for this
    routine (use :func:`enumerate_all` with ``heavy=True`` for the bare
    count there).
    """
    if n > 3:
        raise ValueError(
            "census supports n <= 3; use enumerate_all(n, heavy=True) for counts"
        )
    orientations: list[Orientation] = []
    enumerate_all(n, orientations.append)
    decomposable = decomposable_rows(np.stack([o.outmap for o in orientations]))
    acyclic = int(decomposable.sum()) + sum(
        topological_order(orientations[i]) is not None for i in np.flatnonzero(~decomposable)
    )
    histogram = Counter(niceness_index(o).niceness_index for o in orientations)
    orbits = Counter(
        " ".join(map(str, canonical_form(o).outmap.tolist())) for o in orientations
    )
    return Census(
        n=n,
        total_uso=len(orientations),
        acyclic=acyclic,
        cyclic=len(orientations) - acyclic,
        decomposable=int(decomposable.sum()),
        niceness_histogram=dict(histogram),
        iso_classes=dict(orbits),
    )


def recurrence_check(n: int) -> bool:
    """True iff the decomposable counts satisfy
    2*F(n-1)**2 <= F(n) <= 2n*F(n-1)**2."""
    if n not in (2, 3):
        raise ValueError("recurrence check is defined for n in {2, 3}")
    f_prev = census(n - 1).decomposable
    f_n = census(n).decomposable
    return 2 * f_prev**2 <= f_n <= 2 * n * f_prev**2
