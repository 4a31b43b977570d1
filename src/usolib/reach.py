"""Reachability analysis: reachmaps, cover distances, niceness index.

The reachmap of a vertex is the union of the outmaps of every vertex it can
reach along directed edges (including itself). A vertex is covered at
distance d by a vertex whose reachmap is a proper subset of its own; the
niceness index of an orientation is the largest cover distance over all
non-sink vertices.

:func:`reach_table` computes every reachmap at once as a least fixed point:
R(v) is s(v) joined with R(w) for every out-neighbour w. One vectorised
sweep per round ORs each out-neighbour's R into R(v), coordinate by
coordinate and in place, until a round changes nothing; it needs no
topological order, so cyclic tables and non-USOs take the same path.

Cover distances follow a recurrence over the reach table, because a vertex
reachable from v never has a larger reachmap than v: d(v) = 1 when some
out-neighbour's reachmap differs from R(v), and otherwise 1 + min d(w) over
the out-neighbours w. :func:`niceness_index` evaluates it in one numpy
level sweep of O(n 2^n) on top of :func:`reach_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bit
from .core import NotUSOError, Orientation, _check_vertex, sink_and_source


@dataclass(frozen=True, eq=False)
class ReachTable:
    """Reachmap of every vertex; entry v is a coordinate bitmask, held in a
    read-only uint32 array. ``t[v]`` is the reachmap of v as an int; a
    vertex outside the cube raises ``ValueError``."""

    n: int
    entries: np.ndarray

    def __getitem__(self, v: int) -> int:
        _check_vertex(self.n, v)
        return int(self.entries[v])


def reach_table(o: Orientation) -> ReachTable:
    """Reachmaps for all vertices, as the least fixed point of
    R(v) = s(v) | R(v xor e_j) over every j in s(v).

    Starting from R = s, each sweep visits the coordinates j = 1..n and ORs
    R(v xor e_j) into R(v) wherever j is in s(v). The update is in place,
    so one sweep carries information along any path whose coordinates
    descend; the loop stops after the first sweep that changes nothing,
    which is the first that leaves the sum of R unchanged, since R only
    gains bits. R stays inside the true reachmaps, so the fixed point is
    exactly the reachmap on any table (acyclic, cyclic, or not a USO), and
    every sweep but the last sets a new bit: at most n 2^n + 1 sweeps.
    Measured counts, the final unchanged sweep included, at n = 11, 14 and
    16 (seeds 0..4 for the random families): uniform 1, Klee-Minty 2,
    target-combed 2 to 3, product 5 to 11, random FMO 8 to 17, and
    ``cyclic_full_reach`` and ``auso_lower_bound`` 10 / 13 / 15 (n - 1).

    Each step is a mask and an OR: the bool out-masks "j in s(v)" are
    built once in the (-1, 2, 2^(j-1)) pair view (n 2^n bytes), and the
    step writes R(v xor e_j) times the mask, read through that view
    reversed on its middle axis, into one ``partner`` buffer and ORs it
    into R, so both ends of a pair update from the old values. A masked
    ``where=`` OR straight into R reads a reversed view of its own output,
    which numpy answers with a hidden copy on every call.
    """
    table = o._table
    # row r of a pair view pairs vertex 2br + c (coordinate j clear) with 2br + b + c
    bits = [bit(j) for j in range(1, o.n + 1)]
    masks = [((table & np.uint32(b)) != 0).reshape(-1, 2, b) for b in bits]
    reach = table.copy()
    partner = np.empty_like(reach)
    total = reach.sum()
    while True:
        for out_j in masks:
            pairs = reach.reshape(out_j.shape)
            np.multiply(pairs[:, ::-1], out_j, out=partner.reshape(out_j.shape))
            reach |= partner
        total, before = reach.sum(), total
        if total == before:
            reach.setflags(write=False)
            return ReachTable(o.n, reach)


@dataclass(frozen=True, eq=False)
class NicenessReport:
    """Reach table, cover distance and witness per vertex, plus the maximum.

    ``reach`` is the reach table the sweep read. ``cover_distance`` and
    ``witness`` are the sweep's read-only int32 arrays of 2^n entries; the
    sink's entries are 0 and -1 (``uso analyze`` writes them as null or -).
    The niceness index is the largest cover distance of a non-sink vertex.
    """

    reach: ReachTable
    sink: int
    cover_distance: np.ndarray
    witness: np.ndarray
    niceness_index: int


def niceness_index(o: Orientation) -> NicenessReport:
    """Cover distances for every non-sink vertex and their maximum.

    Witnesses are deterministic: the smallest vertex index among covers at
    the minimal distance. The report holds the orientation's reach table
    and the sweep's own distance and witness arrays (int32, read-only),
    with 0 and -1 at the sink.

    A vertex reachable from v never has a larger reachmap than v, so one
    numpy level sweep over the reach table replaces a search per vertex:

    - d(v) = 1 when some out-neighbour w has R(w) != R(v); the witness is
      the smallest such w. Level 1 compares every vertex with its
      neighbour along each coordinate in turn.
    - Otherwise every out-neighbour shares R(v), d(v) = 1 + min d(w) over
      the out-neighbours, and the witness is the smallest witness among the
      out-neighbours with d(w) = d(v) - 1. Level L >= 2 gathers, coordinate
      by coordinate, the unassigned in-neighbours of the level L - 1
      frontier, an array of vertex indices.

    Every vertex v but the sink must first have an outgoing edge along a
    coordinate of v xor sink (Szabo & Welzl's pairwise criterion on the
    pairs with the sink). Then every vertex reaches the sink in |v xor sink|
    steps, so each has a cover, and the sweep runs until every vertex but
    the sink has a distance. Every vertex joins at most one frontier and its
    n edges are scanned once there: O(n 2^n) on top of :func:`reach_table`.

    Raises ``NotUSOError`` when the outmap fails
    :func:`~usolib.core.sink_and_source`'s bijection gate, or with the pair
    (sink, v) for the least v without an edge towards the sink; neither
    happens on a USO. Both are only a prefix of the full check: the
    bijective non-USO ``[0, 9, 7, 10, 12, 5, 2, 15, 8, 1, 11, 6, 4, 13, 14,
    3]`` passes them with niceness 1, though face span={1,3} anchor={2} has
    2 sinks. A caller that takes tables from outside runs
    :func:`~usolib.core.uso_violation` first, as ``uso analyze`` does.
    """
    sink = sink_and_source(o)[0]
    table = o._table
    size = len(table)
    vertices = np.arange(size, dtype=np.int32)
    towards = table & (vertices ^ sink).view(np.uint32)  # v's edges towards the sink
    if np.count_nonzero(towards) < size - 1:  # the sink alone has none
        stuck = np.flatnonzero(towards == 0)
        raise NotUSOError(pair=(sink, int(stuck[stuck != sink][0])))
    t = reach_table(o)
    reach = t.entries
    # distances and witnesses; the sink keeps distance 0, and witness 2^n
    # until the sweep ends
    wits = np.full(size, size, dtype=np.int32)
    for j in range(1, o.n + 1):
        b = bit(j)
        w = vertices ^ b
        cover = ((table & np.uint32(b)) != 0) & (reach != reach[w])
        np.minimum(wits, np.where(cover, w, size), out=wits)
    dists = (wits < size).astype(np.int32)
    frontier = np.flatnonzero(dists)
    unassigned = size - 1 - frontier.size
    level = 1
    while unassigned:
        level += 1
        found = []
        front_wits = wits[frontier]
        for j in range(1, o.n + 1):
            b = bit(j)
            v = frontier ^ b
            dv = dists[v]
            into = ((table[v] & np.uint32(b)) != 0) & ((dv == 0) | (dv == level))
            v = v[into]
            found.append(v[dv[into] == 0])
            dists[v] = level
            wits[v] = np.minimum(wits[v], front_wits[into])
        frontier = np.concatenate(found)
        unassigned -= frontier.size
    wits[sink] = -1
    dists.setflags(write=False)
    wits.setflags(write=False)
    return NicenessReport(t, sink, dists, wits, int(dists.max()))
