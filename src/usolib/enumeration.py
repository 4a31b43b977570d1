"""Exhaustive generation and classification of small-dimension USOs.

The generator lifts every USO of the (n-1)-cube to the n-cube. Split along
coordinate n into a lower facet USO A, an upper facet USO B and one bit
c(u) per edge along n, set when the edge leaves the lower vertex u. By
Szabo and Welzl's pairwise criterion this is a USO exactly when c(u) = c(w)
for all lower vertices u, w where A(u) and B(w) agree on u xor w, so each
pair (A, B) yields 2^k tables for the k components of that "agree" graph.
n lifts from the 0-cube's one table give every USO of the n-cube.

The census classifies every generated USO: decomposability on one
(B, 2^n) stack of all the tables, niceness and the isomorphism class one
orientation at a time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Orientation, canonical_form, decomposable_rows, is_acyclic
from .reach import niceness_index

Visitor = Callable[[Orientation], None]


def _components(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each facet pair (A, B) of the (P, h) stack, A major, label every
    lower vertex with the least vertex of its component in the "agree"
    graph; returns the (P*P, h) labels and the mask of component leaders.

    u and w are joined when A(u) and B(w), or A(w) and B(u), agree on
    u xor w; the closure takes log2(h) boolean squarings (u = w agrees).
    """
    p, h = stack.shape
    u = np.arange(h, dtype=np.uint8)
    agree = ((stack[:, None, :, None] ^ stack[None, :, None, :]) & (u[:, None] ^ u)) == 0
    reach = agree | agree.swapaxes(2, 3)
    for _ in range(h.bit_length() - 1):
        reach = np.matmul(reach, reach)
    labels = reach.argmax(-1).reshape(p * p, h)
    return labels, labels == np.arange(h)


def _lift(stack: np.ndarray) -> np.ndarray:
    """Every USO one dimension above the (P, h) uint8 stack of all USOs of
    the (n-1)-cube, as a (count, 2h) uint8 stack in lexicographic order.

    Lower half ``A | c h``, upper half ``B | (1 - c) h``: c(u) is bit r of
    the pair's choice counter, r the rank of u's component in the pair.
    """
    p, h = stack.shape
    labels, leaders = _components(stack)
    rank = np.take_along_axis(np.cumsum(leaders, -1, dtype=np.uint8) - 1, labels, -1)
    counts = 1 << leaders.sum(-1)
    pair = np.repeat(np.arange(p * p), counts)
    choice = (np.arange(pair.size) - np.repeat(np.cumsum(counts) - counts, counts)).astype(np.uint8)
    c = (choice[:, None] >> rank[pair]) & 1
    table = np.concatenate(
        [stack[pair // p] | c * np.uint8(h), stack[pair % p] | (1 - c) * np.uint8(h)], axis=1
    )
    # pack the table into one key, vertex 0 the most significant digit
    key = np.zeros(len(table), dtype=np.uint64)
    for column in table.T:
        key = (key << np.uint64(h.bit_length())) | column
    return table[np.argsort(key)]


def _uso_stack(n: int) -> np.ndarray:
    """All USOs of the n-cube as a (count, 2^n) uint8 stack, sorted."""
    stack = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(n):
        stack = _lift(stack)
    return stack


def enumerate_all(n: int, visitor: Visitor | None = None) -> int:
    """Visit every USO of dimension ``n`` <= 4 exactly once, in
    lexicographic table order (vertex 0 first); returns the count.

    Without a visitor only the last lift's count is taken, so the n-cube's
    tables are never built: n = 4 counts 5 541 744 USOs in 1.1 s at
    136 MiB. A visitor gets each table as a validated
    :class:`~usolib.core.Orientation`, so a no-op visitor at n = 4 builds
    all 5 541 744 of them and took 27.4 s at 425 MiB (another run of the
    same code took 41.3 s at 424 MiB). Wall time and fresh-process
    ``ru_maxrss``, commit 1a30974, 2-CPU host, Python 3.11, numpy 2.4.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n > 4:
        raise ValueError("enumeration is supported for n <= 4 only")
    if visitor is None:
        _, leaders = _components(_uso_stack(n - 1))
        return int((1 << leaders.sum(-1)).sum())
    stack = _uso_stack(n)
    for row in stack:
        visitor(Orientation(n, row))
    return len(stack)


@dataclass(frozen=True)
class Census:
    """Classification counts for all USOs of one dimension; the CLI writes
    it with ``dataclasses.asdict``."""

    n: int
    total_uso: int
    acyclic: int
    cyclic: int
    decomposable: int
    niceness_histogram: dict[int, int]
    #: canonical outmap table (space-joined) -> orbit size
    iso_classes: dict[str, int]


def census(n: int) -> Census:
    """Full classification of all n-dimensional USOs; n <= 3 only.

    Decomposability is one :func:`~usolib.core.decomposable_rows` call on
    the (B, 2^n) stack of all the tables. Decomposable implies acyclic, so
    :func:`~usolib.core.is_acyclic` runs only on the rows the
    decomposability test rejects. :func:`~usolib.reach.niceness_index` and
    :func:`~usolib.core.canonical_form` classify each orientation in turn.
    Classifying the millions of 4-dimensional USOs one at a time is out of
    reach for this routine (:func:`enumerate_all` gives the bare count
    there).
    """
    if n > 3:
        raise ValueError("census supports n <= 3; use enumerate_all(4) for the count")
    orientations: list[Orientation] = []
    enumerate_all(n, orientations.append)
    decomposable = decomposable_rows(np.stack([o.outmap for o in orientations]))
    acyclic = int(decomposable.sum()) + sum(
        is_acyclic(orientations[i]) for i in np.flatnonzero(~decomposable)
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

