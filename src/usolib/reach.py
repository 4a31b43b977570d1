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
the out-neighbours w. :func:`niceness_index` finds level 1 in one pass over
the coordinates, and the deeper levels, when there are any, as a second
in-place fixed point: a min-plus sweep over keys that pack the distance
above the witness, which takes 1 to 3 sweeps on the families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import bit, full_mask
from .core import MAX_DIMENSION, NotUSOError, Orientation, _check_vertex, sink_and_source


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
    Measured counts at commits 208914f and 1a30974, the final unchanged
    sweep included, at n = 11, 14 and 16 (seeds 0..4 for the random
    families): uniform 1, Klee-Minty 2, target-combed 2 to 3, product 5 to
    11, random FMO 8 to 17, and ``cyclic_full_reach`` and
    ``auso_lower_bound`` 10 / 13 / 15 (n - 1).

    Before the first sweep each coordinate j gets three arrays in the
    (-1, 2, 2^(j-1)) pair view, built once: R reversed on its middle axis,
    which reads R(v xor e_j) at v; the bool out-mask "j in s(v)"; and a
    view of one shared ``partner`` buffer. A step is then two ufunc calls
    that build no view: R(v xor e_j) times the mask into ``partner``, and
    ``R |= partner``, so both ends of a pair update from the old values.
    The buffer stays because a masked ``where=`` OR straight into R reads a
    reversed view of its own output, which numpy answers with a hidden copy
    on every call. The masks (n 2^n bytes) are the peak, and each is cut
    from ``s & e_j`` written into ``partner``, so no uint32 temporary sits
    on top of them: 25.1 B/vertex at n = 16 (traced). Building the views
    once rather than per step took a call from 31.7 to 24.3 us on the 744
    USOs of the 3-cube, fmo 11 from 0.54 to 0.45 ms,
    ``cyclic_full_reach(10)`` from 0.43 to 0.33 ms and Klee-Minty 11 from
    0.169 to 0.145 ms (best of 3 processes of 5 or 7 runs, 2-CPU host,
    Python 3.11, numpy 2.4).
    """
    table = o._table
    reach = table.copy()
    partner = np.empty_like(reach)
    # row r of a pair view pairs vertex 2br + c (coordinate j clear) with
    # 2br + b + c; per coordinate: R(v xor e_j), "j in s(v)", the output
    steps = []
    for j in range(1, o.n + 1):
        b = bit(j)
        out_j = np.bitwise_and(table, b, out=partner).astype(bool).reshape(-1, 2, b)
        steps.append((reach.reshape(out_j.shape)[:, ::-1], out_j, partner.reshape(out_j.shape)))
    total = reach.sum()
    while True:
        for across, out_j, into in steps:
            np.multiply(across, out_j, out=into)
            reach |= partner
        total, before = reach.sum(), total
        if total == before:
            reach.setflags(write=False)
            return ReachTable(o.n, reach)


#: one row per coordinate, bit(j) in row j - 1
_COORDINATE_BITS = np.left_shift(np.uint32(1), np.arange(MAX_DIMENSION, dtype=np.uint32))[:, None]


def reachmap(o: Orientation, v: int) -> int:
    """The reachmap of one vertex, equal to ``reach_table(o)[v]`` on any
    table, from a breadth-first search that stops as soon as it has proved
    its answer; a vertex outside the cube raises ``ValueError``.

    ``acc``, the OR of the outmaps of the vertices visited so far, lies
    inside R(v) throughout, and the search returns it at the first of three
    stops, each of which proves ``acc`` = R(v):

    1. ``acc`` holds every coordinate;
    2. the face through v spanned by ``acc`` is closed: none of its vertices
       has an outgoing coordinate outside ``acc``, so every path from v
       stays in it. Tested only when ``acc`` grows, so at most n times, as
       an OR-reduce over a strided view of the table, with no copy;
    3. no vertex is left to visit.

    Each level's frontier drops the vertices already visited and is
    deduplicated by a sort (``np.unique`` cost 2-10 times as much on these
    small arrays under numpy 2.4). :func:`reach_table` answers every vertex
    at once and remains the function for whole-cube analysis; this one
    answers the few vertices of a seesaw trace, and holds one bool per
    vertex plus its frontiers.
    Fresh-process ``uso solve --algo fsr --start random --seed 5`` on seed-0
    files at n = 22 (2-CPU host, Python 3.11, numpy 2.4), two runs each,
    with the trace read from a full reach table (commit 960d1ce) and then
    from this search: cyclic-lb 4.94-5.01 s against 0.74-0.85 s, random FMO
    3.26-3.39 s against 0.70-0.72 s, Klee-Minty 1.20-1.29 s against
    0.81-0.85 s. ``ru_maxrss`` was 228-229 MiB on both sides, because the
    loader, not the trace, sets the peak.
    """
    _check_vertex(o.n, v)
    table = o._table
    full = full_mask(o.n)
    cube = table.reshape((2,) * o.n)  # axis k holds bit n - 1 - k
    bits = _COORDINATE_BITS[: o.n]
    acc = level = int(table[v])  # level: the OR of the frontier's outmaps
    visited = np.zeros(len(table), dtype=bool)
    visited[v] = True
    frontier = np.array([v], dtype=np.uint32)
    outs = table[frontier]
    grew = True
    while acc != full and level:
        if grew:
            face = [slice(None) if acc >> i & 1 else v >> i & 1 for i in reversed(range(o.n))]
            if int(np.bitwise_or.reduce(cube[tuple(face)], axis=None)) & ~acc == 0:
                break
        steps = (frontier ^ bits)[(outs & bits).astype(bool)]  # row j - 1: the steps along j
        steps = np.sort(steps[~visited[steps]])
        first = np.ones(len(steps), dtype=bool)  # the first copy of each vertex
        np.not_equal(steps[1:], steps[:-1], out=first[1:])
        frontier = steps[first]
        visited[frontier] = True
        outs = table[frontier]
        level = int(np.bitwise_or.reduce(outs))
        grew = level & ~acc != 0
        acc |= level
    return acc


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


def _sink_reached_by_every_vertex(o: Orientation) -> int:
    """The sink, once every other vertex has an outgoing edge along a
    coordinate of v xor sink; raises as :func:`niceness_index` documents.
    Its arrays are freed before the reach sweep, which is the peak."""
    sink = sink_and_source(o)[0]
    vertices = np.arange(o.vertex_count(), dtype=np.uint32)
    towards = o._table & (vertices ^ sink)  # v's edges towards the sink
    if np.count_nonzero(towards) < len(towards) - 1:  # the sink alone has none
        stuck = np.flatnonzero(towards == 0)
        raise NotUSOError(pair=(sink, int(stuck[stuck != sink][0])))
    return sink


def niceness_index(o: Orientation) -> NicenessReport:
    """Cover distances for every non-sink vertex and their maximum.

    Witnesses are deterministic: the smallest vertex index among covers at
    the minimal distance. The report holds the orientation's reach table
    and the sweep's own distance and witness arrays (int32, read-only),
    with 0 and -1 at the sink.

    A vertex reachable from v never has a larger reachmap than v, so two
    numpy stages replace a search per vertex:

    - d(v) = 1 when some out-neighbour w has R(w) != R(v); the witness is
      the smallest such w. Level 1 compares every vertex with its
      neighbour along each coordinate in turn. On 1-nice tables (KM,
      target-combed, 680 of the 744 3-cube USOs) it is the only pass.
    - Otherwise every out-neighbour shares R(v), d(v) = 1 + min d(w) over
      the out-neighbours, and the witness is the smallest witness among the
      out-neighbours with d(w) = d(v) - 1. That is a minimum over keys
      d << (n+1) | witness, so the deeper levels are one min-plus fixed
      point: sweep j = 1..n in place, key(v) = min(key(v), key(v xor e_j) +
      2^(n+1)) wherever j is in s(v). An in-place sweep carries a distance
      along any path whose coordinates descend, so few sweeps suffice.
      Sweeps per call, measured at commit 942ab0e at n = 10, 11 and 16
      (seeds 0..4): random FMO 3, ``cyclic_full_reach`` and
      ``auso_lower_bound`` 2, product 1 to 3.

    Every vertex v but the sink must first have an outgoing edge along a
    coordinate of v xor sink (Szabo & Welzl's pairwise criterion on the
    pairs with the sink). Then every vertex reaches the sink in |v xor sink|
    steps, so each has a cover and a distance of at most n. Level 1 and
    each sweep cost O(n 2^n) on top of :func:`reach_table`, whose n masks
    of 2^n bytes dominate the peak: building ``klee_minty(24)`` or
    ``cyclic_full_reach(24)`` and taking its niceness peaked at 606 MiB
    (8.5 s and 34.2 s; fresh-process ``ru_maxrss``, commit 1a30974, 2-CPU
    host). On small tables numpy's fixed cost per call dominates, so level
    1 builds each coordinate's cover mask with one ``astype`` and ANDs the
    reachmap test into it in place, and the sink gate XORs a uint32
    ``arange``: a call on the 744 USOs of the 3-cube took 59.6 us, against
    70.8 us at commit 9b83d3d (with :func:`reach_table`'s views built
    once; best of 3 processes of 7 x 3 runs, 2-CPU host, Python 3.11,
    numpy 2.4).

    Raises ``NotUSOError`` when the outmap fails
    :func:`~usolib.core.sink_and_source`'s bijection gate, or with the pair
    (sink, v) for the least v without an edge towards the sink; neither
    happens on a USO. Together they reject every bijective edge-consistent
    non-USO of the 3-cube, but they are only a prefix of the full check: the
    bijective non-USO ``[0, 9, 7, 10, 12, 5, 2, 15, 8, 1, 11, 6, 4, 13, 14,
    3]`` passes them with niceness 1, though face span={1,3} anchor={2} has
    2 sinks. A caller that takes tables from outside runs
    :func:`~usolib.core.first_uso_violation` first, as ``uso analyze`` does.
    """
    sink = _sink_reached_by_every_vertex(o)
    table = o._table
    size = len(table)
    t = reach_table(o)
    reach = t.entries
    vertices = np.arange(size, dtype=np.int32)
    # level 1: the least out-neighbour with another reachmap, 2^n for none
    wits = np.full(size, size, dtype=np.int32)
    for j in range(1, o.n + 1):
        b = bit(j)
        w = vertices ^ b
        cover = (table & b).astype(bool)
        cover &= reach != reach[w]
        np.minimum(wits, np.where(cover, w, size), out=wits)
    level1 = wits < size
    if np.count_nonzero(level1) == size - 1:  # every vertex but the sink
        dists = level1.astype(np.int32)
    else:
        dists = _deeper_levels(table, o.n, sink, level1, wits)
    wits[sink] = -1
    dists.setflags(write=False)
    wits.setflags(write=False)
    return NicenessReport(t, sink, dists, wits, int(dists.max()))


def _deeper_levels(
    table: np.ndarray, n: int, sink: int, level1: np.ndarray, wits: np.ndarray
) -> np.ndarray:
    """The distances of every vertex as an int32 array, given the level-1
    vertices and their witnesses in ``wits``, where it writes the other
    witnesses: the fixed point of :func:`niceness_index` on the packed keys
    d << (n+1) | witness, which fit int32 up to n = 24.

    A level-1 key lies below every candidate, and the sink's key is its own
    index, no larger than the witness of any vertex with an edge into it;
    so neither changes, and every other key falls to 1 + the least distance
    among its out-neighbours, with the least witness among those. Keys only
    fall and never below the answer, so after k sweeps every vertex at
    distance k + 1 or less holds its answer: the loop stops once no key is
    further than that (a 2-nice table takes one sweep), or once a sweep
    leaves the sum, and so every key, unchanged.
    """
    shift = n + 1
    step = np.int32(1 << shift)
    # far lies above every key, which starts at most at (n + 2) << (n + 1);
    # a candidate, at most that key plus step plus far, stays below 2^31
    # up to n = 24
    far = np.int32(1 << 30)
    key = np.where(level1, wits | step, np.int32((n + 2) << shift))
    key[sink] = sink
    codes = table.view(np.int32)
    candidate = np.empty_like(key)
    total = key.sum()
    sweeps = 0
    while True:
        sweeps += 1
        for j in range(1, n + 1):
            b = bit(j)
            # key(v xor e_j) + step, plus far unless j is in s(v)
            np.bitwise_and(codes, b, out=candidate)
            np.left_shift(candidate, 31 - j, out=candidate)  # b becomes far
            np.subtract(step + far, candidate, out=candidate)
            pairs = key.reshape(-1, 2, b)
            np.add(candidate.reshape(pairs.shape), pairs[:, ::-1], out=candidate.reshape(pairs.shape))
            np.minimum(key, candidate, out=key)
        total, before = key.sum(), total
        if total == before or key.max() < (sweeps + 2) << shift:
            np.bitwise_and(key, step - 1, out=wits)
            key >>= shift
            return key
