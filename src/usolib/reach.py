"""Reachability analysis: reachmaps, cover distances, niceness index.

The reachmap of a vertex is the union of the outmaps of every vertex it can
reach along directed edges (including itself). A vertex is covered at
distance d by a vertex whose reachmap is a proper subset of its own; the
niceness index of an orientation is the largest cover distance over all
non-sink vertices.

Cover distances follow a recurrence over the reach table, because a vertex
reachable from v never has a larger reachmap than v: d(v) = 1 when some
out-neighbour's reachmap differs from R(v), and otherwise 1 + min d(w) over
the out-neighbours w. :func:`niceness_index` evaluates it in one level sweep
of O(n 2^n) on top of :func:`reach_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .bitops import full_mask, popcount
from .core import Orientation


@dataclass(frozen=True)
class ReachTable:
    """Reachmap of every vertex; entry v is a coordinate bitmask."""

    n: int
    entries: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.entries[v]

    def __len__(self) -> int:
        return len(self.entries)


def reachmap(o: Orientation, v: int) -> int:
    """Union of outmaps over all vertices reachable from ``v``.

    Plain breadth-first traversal; the bulk variant :func:`reach_table` is
    preferred when many vertices are needed.
    """
    seen = 1 << v
    frontier = [v]
    acc = 0
    while frontier:
        nxt = []
        for u in frontier:
            s = o.out(u)
            acc |= s
            while s:
                low = s & -s
                s ^= low
                w = u ^ low
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    nxt.append(w)
        frontier = nxt
    return acc


def _reach_table_acyclic(o: Orientation) -> list[int] | None:
    """Reverse-topological accumulation; None when the orientation is cyclic."""
    size = o.vertex_count()
    table = o._table
    indeg = [o.n - popcount(int(table[v])) for v in range(size)]
    stack = [v for v in range(size) if indeg[v] == 0]
    order: list[int] = []
    while stack:
        v = stack.pop()
        order.append(v)
        s = int(table[v])
        while s:
            low = s & -s
            s ^= low
            u = v ^ low
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    if len(order) != size:
        return None
    reach = [0] * size
    for v in reversed(order):
        s = int(table[v])
        acc = s
        while s:
            low = s & -s
            s ^= low
            acc |= reach[v ^ low]
        reach[v] = acc
    return reach


def _reach_table_scc(o: Orientation) -> list[int]:
    """Reachmaps via strongly-connected-component condensation.

    Handles cyclic orientations without per-vertex traversals: vertices of a
    component share one reachmap, and the condensation is processed in
    reverse topological order.
    """
    size = o.vertex_count()
    table = o._table
    verts = np.arange(size)
    rows = []
    cols = []
    for j in range(o.n):
        b = 1 << j
        src = verts[(table & np.uint32(b)) != 0]
        rows.append(src)
        cols.append(src ^ b)
    row = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    col = np.concatenate(cols) if cols else np.empty(0, dtype=np.int64)
    graph = csr_matrix(
        (np.ones(row.size, dtype=np.int8), (row, col)), shape=(size, size)
    )
    n_comp, labels = connected_components(graph, directed=True, connection="strong")

    comp_out = [0] * n_comp  # union of outmaps inside each component
    succ: list[set[int]] = [set() for _ in range(n_comp)]
    indeg = [0] * n_comp
    for v in range(size):
        cv = labels[v]
        s = int(table[v])
        comp_out[cv] |= s
        while s:
            low = s & -s
            s ^= low
            cu = labels[v ^ low]
            if cu != cv and cu not in succ[cv]:
                succ[cv].add(cu)
                indeg[cu] += 1

    stack = [c for c in range(n_comp) if indeg[c] == 0]
    order: list[int] = []
    while stack:
        c = stack.pop()
        order.append(c)
        for u in succ[c]:
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)

    comp_reach = [0] * n_comp
    for c in reversed(order):
        acc = comp_out[c]
        for u in succ[c]:
            acc |= comp_reach[u]
        comp_reach[c] = acc
    return [comp_reach[labels[v]] for v in range(size)]


def reach_table(o: Orientation) -> ReachTable:
    """Reachmaps for all vertices.

    Acyclic orientations use reverse-topological accumulation; cyclic ones
    fall back to SCC condensation.
    """
    reach = _reach_table_acyclic(o)
    if reach is None:
        reach = _reach_table_scc(o)
    return ReachTable(o.n, tuple(reach))


def cover_distance(o: Orientation, t: ReachTable, v: int) -> int:
    """Minimum i such that some vertex at directed distance <= i from ``v``
    has a reachmap properly contained in ``v``'s.

    A view of :func:`niceness_index` over the given reach table.
    """
    if o.out(v) == 0:
        raise ValueError("cover_distance is undefined for the global sink")
    return niceness_index(o, t).cover_distance[v]


@dataclass(frozen=True)
class NicenessReport:
    """Cover distance and witness per vertex, plus the global maximum.

    The sink's entries are ``math.inf`` and ``None``; the niceness index is
    the maximum cover distance over the non-sink vertices.
    """

    n: int
    sink: int
    cover_distance: tuple[float, ...]
    witness: tuple[int | None, ...]
    niceness_index: int

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "sink": self.sink,
            "niceness_index": self.niceness_index,
            "cover_distance": [
                None if math.isinf(d) else int(d) for d in self.cover_distance
            ],
            "witness": list(self.witness),
        }


def niceness_index(o: Orientation, t: ReachTable | None = None) -> NicenessReport:
    """Cover distances for every non-sink vertex and their maximum.

    ``t`` is the orientation's reach table; it is computed when omitted.
    Witnesses are deterministic: the smallest vertex index among covers at
    the minimal distance.

    A vertex reachable from v never has a larger reachmap than v, so one
    level sweep over the reach table replaces a search per vertex:

    - d(v) = 1 when some out-neighbour w has R(w) != R(v); the witness is
      the smallest such w;
    - otherwise every out-neighbour shares R(v), d(v) = 1 + min d(w) over
      the out-neighbours, and the witness is the smallest witness among the
      out-neighbours with d(w) = d(v) - 1.

    Level L >= 2 is found from level L - 1 by following in-edges, and the
    sweep ends at the first level that assigns nothing. Every vertex joins
    at most one level and its n edges are scanned once there, so the sweep
    costs O(n 2^n) on top of :func:`reach_table`.

    Raises ``ValueError`` when the table (assumed edge-consistent) does not
    have exactly one sink, or when a non-sink vertex has no cover; neither
    happens on a USO.
    """
    if t is None:
        t = reach_table(o)
    table = o._table.tolist()
    reach = t.entries
    size = len(table)
    sinks = [v for v in range(size) if table[v] == 0]
    if len(sinks) != 1:
        raise ValueError(f"not a USO: {len(sinks)} vertices have an empty outmap")
    sink = sinks[0]
    full = full_mask(o.n)
    dists: list[float] = [0] * size
    wits: list[int | None] = [None] * size
    dists[sink] = math.inf
    frontier = []
    for v in range(size):
        rv = reach[v]
        best = size
        s = table[v]
        while s:
            low = s & -s
            s ^= low
            w = v ^ low
            if w < best and reach[w] != rv:
                best = w
        if best < size:
            dists[v] = 1
            wits[v] = best
            frontier.append(v)
    level = 1
    while frontier:
        level += 1
        found: dict[int, int] = {}
        for u in frontier:
            wu = wits[u]
            s = full ^ table[u]
            while s:
                low = s & -s
                s ^= low
                v = u ^ low
                if dists[v] == 0 and found.get(v, size) > wu:
                    found[v] = wu
        for v, w in found.items():
            dists[v] = level
            wits[v] = w
        frontier = list(found)
    if 0 in dists:
        raise ValueError(f"not a USO: vertex {dists.index(0)} has no cover")
    return NicenessReport(
        n=o.n,
        sink=sink,
        cover_distance=tuple(dists),
        witness=tuple(wits),
        niceness_index=level - 1,
    )
