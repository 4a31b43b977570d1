"""Orientation families and combinators.

Includes the uniform and Klee-Minty orientations, single-edge flips,
flip-matching orientations (FMO), the frame/fiber product, hypersink
reorientation, the target-combed family, and the two lower-bound families
with extreme niceness (a cyclic one with full reachmaps everywhere and an
acyclic one whose niceness is n-2); :func:`build_family` builds them by name.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitops import bit, full_mask
from .core import Face, Orientation, _check_dimension, _check_face, _check_vertex
from .rng import SplitMix64

#: Edges are written (vertex, coordinate), as pairs or (k, 2) array rows, and
#: denote the edge between ``vertex`` and ``vertex ^ bit(coordinate)``.
Matching = Sequence[tuple[int, int]] | np.ndarray

#: The family names that :func:`build_family` builds: the ``--family``
#: choices of ``uso gen`` and ``uso bench``.
FAMILIES = ("uniform", "km", "fmo", "target-combed", "cyclic-lb", "auso-lb", "product")


class FlipPreconditionViolated(ValueError):
    """Flipping this edge is not guaranteed to preserve the USO property."""


class HypersinkViolated(ValueError):
    """The given face is not a hypersink of the orientation."""


def uniform(n: int) -> Orientation:
    """All edges pointing from smaller to larger vertex sets (sink at the
    full set); :func:`reverse_orientation` gives the mirror, with its sink
    at the empty set."""
    _check_dimension(n)
    return Orientation._own(n, _forward_uniform(n))


def _forward_uniform(n: int) -> np.ndarray:
    """The table of :func:`uniform`: one ``arange``, xored in place."""
    table = np.arange(1 << n, dtype=np.uint32)
    table ^= np.uint32(full_mask(n))
    return table


def klee_minty(n: int) -> Orientation:
    """Combinatorial Klee-Minty cube: coordinate i is outgoing at v exactly
    when v contains an odd number of coordinates >= i. Decomposable, with a
    directed Hamiltonian path from source to sink (the sink is the empty
    vertex).

    Bit i-1 of v >> k is coordinate i + k of v, so the table is the xor of
    v >> k over all k >= 0: the inverse Gray code of v. Adding coordinate
    j + 1 to a vertex below 2^j flips every coordinate up to j + 1, so
    block [2^j, 2^(j+1)) of the table is block [0, 2^j) xor (2^(j+1) - 1):
    n doubling calls fill one buffer, with no whole-table temporary."""
    _check_dimension(n)
    table = np.empty(1 << n, dtype=np.uint32)
    table[0] = 0
    for j in range(n):
        np.bitwise_xor(table[: 1 << j], np.uint32((2 << j) - 1), out=table[1 << j : 2 << j])
    return Orientation._own(n, table)


def reverse_orientation(o: Orientation) -> Orientation:
    """Reverse every edge. The reversal of a USO is again a USO (faces have
    unique sources)."""
    return Orientation._own(o.n, o.outmap ^ np.uint32(full_mask(o.n)))


def flip_edge(o: Orientation, v: int, j: int) -> Orientation:
    """Reverse the single edge between ``v`` and ``v ^ bit(j)``.

    Allowed only when the two endpoint outmaps agree outside coordinate j;
    that condition makes the flip safe (the result of flipping an edge of a
    USO is then again a USO). Raises FlipPreconditionViolated otherwise.
    """
    if j < 1 or j > o.n:
        raise ValueError(f"coordinate {j} out of range for dimension {o.n}")
    b = bit(j)
    u = v ^ b
    if (o.out(v) ^ o.out(u)) & ~b:
        raise FlipPreconditionViolated(f"outmaps of {v} and {u} differ off coordinate {j}")
    table = o.outmap.copy()
    table[[v, u]] ^= np.uint32(b)
    return Orientation._own(o.n, table)


def validate_matching(n: int, m: Matching) -> np.ndarray:
    """Raise ValueError, naming the first bad edge, unless the edges are
    pairwise vertex-disjoint and in range; else return the (k, 2) array of
    their endpoints."""
    _check_dimension(n)
    edges = np.asarray(m).reshape(-1, 2)
    if edges.size and edges.dtype.kind not in "iu":
        raise ValueError(f"matching entries must be integers, got {edges.dtype}")
    edges = edges.astype(np.int64)
    v, j = edges.T
    bad = np.flatnonzero((j < 1) | (j > n) | (v >> n != 0))
    k = int(bad[0]) if bad.size else len(edges)
    ends = edges[:k].copy()
    ends[:, 1] = ends[:, 0] ^ (1 << (ends[:, 1] - 1))
    taken = np.zeros(1 << n, bool)
    taken[ends] = True
    if np.count_nonzero(taken) < ends.size:  # some edge before k reuses a vertex
        repeat = np.ones(ends.size, bool)
        repeat[np.unique(ends, return_index=True)[1]] = False
        k = int(np.argmax(repeat)) // 2
        raise ValueError(f"matching reuses a vertex of edge ({v[k]}, {j[k]})")
    if k < len(edges):
        if not 1 <= j[k] <= n:
            raise ValueError(f"coordinate {j[k]} out of range for dimension {n}")
        _check_vertex(n, int(v[k]))
    return ends


def flip_matching(n: int, m: Matching) -> Orientation:
    """Forward-uniform orientation with every matching edge reversed (an
    FMO): one fancy-index xor over the edges' endpoints. The FMOs over the
    backward-uniform base are their :func:`reverse_orientation`.

    FMOs are always USOs; they may be cyclic.
    """
    ends = validate_matching(n, m)
    table = _forward_uniform(n)
    table[ends] ^= (ends[:, :1] ^ ends[:, 1:]).astype(np.uint32)
    return Orientation._own(n, table)


def _shuffled_range(count: int, rng: SplitMix64) -> np.ndarray:
    """``shuffle(list(range(count)), rng)``, the Fisher-Yates list oracle in
    ``tests/helpers.py``, as an int32 array, with ``rng`` advanced as that
    shuffle advances it. Step i = count-1, ..., 1 swaps positions i and
    j_i, and no later step touches i: the item that ends at i is j_i's own
    unless an earlier step s > i into j_i put one there, the item at s
    before step s. Pointer jumping resolves these chains."""
    # step i >= 1 reads draw count-1-i; step 0, a swap of position 0 with
    # itself, draws nothing, and any key is 0 mod 1
    key = np.empty(count, np.uint64)
    key[0] = 0
    key[1:] = rng.draw(count - 1)[::-1]
    np.remainder(key, np.arange(1, count + 1, dtype=np.uint64), out=key)
    # one sort groups the steps by j_i, ascending within a group
    shift = count.bit_length()
    key = (key.view(np.int64) << shift) | np.arange(count)
    key.sort()
    step = (key & ((1 << shift) - 1)).astype(np.int32)
    target = (key >> shift).astype(np.int32)
    del key
    head = np.ones(count, bool)  # the first step of each target's group
    np.not_equal(target[1:], target[:-1], out=head[1:])
    later = np.empty(count, np.int32)  # the next step into the same position, or ~j_i
    later[step[:-1]] = np.where(head[1:], ~target[:-1], step[1:])
    later[step[-1]] = ~target[-1]
    q, s = target[head], step[head]  # the first step s into each position q
    s = np.where(s == q, later[s], s)  # skip step q's swap with itself
    chain = np.arange(count, dtype=np.int32)  # the first step s > q into q, or q
    chain[q] = np.where(s < 0, q, s)
    del step, target, head, q, s
    jumped = chain[chain]
    while (jumped != chain).any():
        chain, jumped = jumped, jumped[jumped]
    return np.where(later >= 0, chain[later], ~later)


def _greedy_matching(n: int, rng: SplitMix64) -> np.ndarray:
    """:func:`random_maximal_matching` as (vertex, coordinate) array rows."""
    count = n << (n - 1)
    order = _shuffled_range(count, rng)
    verts = np.arange(1 << n, dtype=np.int32)
    bits = np.int32(1) << np.arange(n, dtype=np.int32)
    # edge code (j - 1) * 2^n + v for v's edge along j; listed by v, then j
    codes = (np.arange(n, dtype=np.int32) << n) | verts[:, None]
    edges = codes[(verts[:, None] & bits) == 0][order]
    del codes, order
    rank = np.empty((n, 1 << n), np.int32)  # rank[j - 1, v] of v's edge along j
    flat = rank.reshape(-1)
    flat[edges] = np.arange(count, dtype=np.int32)
    step_bit = bits[edges >> n]
    flat[edges | step_bit] = flat[edges]
    picked = np.zeros(count, bool)
    while True:  # a dead edge ranks count, and so does a vertex with no live edge
        best = np.minimum.reduce(rank)
        mate = verts ^ step_bit.take(best, mode="clip")
        ends = ((best[mate] == best) & (best < count)).nonzero()[0]
        if not ends.size:
            edges = edges[picked]
            return np.stack((edges & (verts.size - 1), (edges >> n) + 1), axis=1)
        picked[best[ends]] = True
        rank[:, ends] = count
        for j, b in enumerate(bits.tolist()):
            rank[j, ends ^ b] = count


def random_maximal_matching(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Greedy maximal matching over a seeded shuffle of all cube edges
    (listed by lower endpoint, then coordinate), in pick order.

    The edges are int32 codes; one ``rng.draw`` block gives the values of
    a Fisher-Yates shuffle (the list oracle ``shuffle`` in
    ``tests/helpers.py``) and pointer jumping resolves its swaps
    (:func:`_shuffled_range`), leaving ``rng`` where the shuffle would.
    Each greedy round picks every live edge ranked below all other live
    edges at both its endpoints and kills the edges touching them; this is
    exactly greedy matching over a fixed order (Blelloch, Fineman & Shun,
    SPAA 2012), in 7 rounds at n = 14 and 9 at n = 18 (commit c99b645).
    The traced peak is 25 bytes per edge at n = 16, against 79 for a list
    of tuples (``tracemalloc``, commit 009130e).
    """
    return [tuple(e) for e in _greedy_matching(n, rng).tolist()]


def random_fmo(n: int, rng: SplitMix64) -> Orientation:
    """FMO over a random maximal matching, flipped from its arrays."""
    return flip_matching(n, _greedy_matching(n, rng))


def product(frame: Orientation, fibers: Sequence[Orientation]) -> Orientation:
    """Combine a frame orientation with one fiber orientation per frame
    vertex.

    The result lives on fiber.n + frame.n coordinates, the frame on the top
    frame.n of them: vertex u * 2^fiber.n + w has outmap s_frame(u) shifted
    above the fiber coordinates, together with the outmap of w under fiber
    u. So the table is the fibers' tables, one after another, each with its
    frame outmap added. The result is a USO when all inputs are, and
    acyclic when all inputs are.
    """
    if len(fibers) != frame.vertex_count():
        raise ValueError(f"need {frame.vertex_count()} fibers, got {len(fibers)}")
    fiber_dim = fibers[0].n
    if any(f.n != fiber_dim for f in fibers):
        raise ValueError("all fibers must share one coordinate set")
    n = frame.n + fiber_dim
    _check_dimension(n)
    table = np.concatenate([f.outmap for f in fibers])
    rows = table.reshape(len(fibers), -1)  # a view of the table, one row per fiber
    rows |= (frame.outmap << np.uint32(fiber_dim))[:, None]
    return Orientation._own(n, table)


def hypersink_reorient(
    o: Orientation, sub: Face, replacement: Orientation
) -> Orientation:
    """Replace the orientation inside a hypersink subcube.

    ``sub`` must be a hypersink: no vertex of the face has an outgoing edge
    leaving the face. Any USO on the subcube may then be substituted without
    breaking the USO property (and acyclicity is preserved when both inputs
    are acyclic). Raises HypersinkViolated otherwise, naming the least
    vertex with an edge leaving the face; a face that reaches outside the
    cube raises ``ValueError`` naming its least vertex there, as
    :func:`~usolib.core.face_sink` does. One gather checks the face and
    one scatter writes it: a 14-dimensional face of the uniform 16-cube
    takes 0.2-0.4 ms, against 68-120 ms for the per-vertex loops of commit
    69240f9, now the oracle in ``tests/helpers.py`` (best of 7, 2-CPU
    Python 3.11 / numpy 2.4 host).
    """
    if replacement.n != sub.dimension:
        raise ValueError(f"replacement dimension {replacement.n} != face dimension {sub.dimension}")
    _check_face(o.n, sub)
    verts = sub.vertices()
    leaving = np.flatnonzero(o.outmap[verts] & np.uint32(full_mask(o.n) ^ sub.span))
    if leaving.size:
        v = verts[leaving[0]]
        raise HypersinkViolated(f"vertex {v} has outgoing edges leaving the subcube")
    table = o.outmap.copy()
    # replacement vertex w is the face's w-th vertex, at offset verts[w] ^ anchor
    table[verts] = (verts ^ sub.anchor)[replacement.outmap]
    return Orientation._own(o.n, table)


def target_combed(n: int, fiber_choices: Sequence[Orientation]) -> Orientation:
    """Grow an orientation one coordinate at a time, placing an arbitrary
    k-dimensional USO antipodally and combing every new coordinate towards
    the half that holds the sink.

    ``fiber_choices[k-1]`` is the k-dimensional USO used when coordinate
    k+1 is added, so the list has n-1 entries. For every vertex, the
    minimal face containing it and the global sink has a combed coordinate;
    the result is always 1-nice, and it is cyclic whenever a cyclic fiber
    is embedded.
    """
    _check_dimension(n)
    if len(fiber_choices) != n - 1:
        raise ValueError(f"need {n - 1} fiber choices, got {len(fiber_choices)}")
    for k, fiber in enumerate(fiber_choices, 1):
        if fiber.n != k:
            raise ValueError(
                f"fiber for coordinate {k + 1} must have dimension {k}, got {fiber.n}"
            )
    # the 1-cube with its sink at 0, then fiber k on top, combed down along k + 1
    table = np.empty(1 << n, dtype=np.uint32)
    table[:2] = 0, 1
    for k, f in enumerate(fiber_choices, 1):
        np.bitwise_or(f.outmap, np.uint32(bit(k + 1)), out=table[1 << k : 2 << k])
    return Orientation._own(n, table)


def random_target_combed(n: int, rng: SplitMix64) -> Orientation:
    """Target-combed orientation with random FMO fibers."""
    fibers = [random_fmo(k, rng) for k in range(1, n)]
    return target_combed(n, fibers)


def random_product(n: int, rng: SplitMix64) -> Orientation:
    """Product of a random FMO frame on the top n // 2 coordinates with one
    random FMO fiber per frame vertex, all drawn from ``rng``, the frame
    first. Requires n >= 2."""
    if n < 2:
        raise ValueError("product family requires n >= 2")
    _check_dimension(n)
    frame = random_fmo(n // 2, rng)
    return product(frame, [random_fmo(n - n // 2, rng) for _ in range(1 << n // 2)])


def cyclic_full_reach(n: int) -> Orientation:
    """Cyclic USO in which every non-sink vertex has a full reachmap.

    Forward-uniform base with one edge per coordinate flipped, forming a
    directed cycle through all vertices one level below the sink; the
    niceness index is exactly n. Requires n >= 3 (no cyclic USO exists
    below dimension 3).
    """
    if n < 3:
        raise ValueError("cyclic USOs require dimension >= 3")
    _check_dimension(n)
    return flip_matching(n, [(full_mask(n) ^ bit(i), i % n + 1) for i in range(1, n + 1)])


def auso_lower_bound(n: int) -> Orientation:
    """Acyclic USO with niceness exactly n-2 (the worst possible for n >= 4).

    Built from the forward-uniform orientation by reversing one 2-face near
    the top, reversing a path of edges that together span coordinates
    4..n, and reversing the coordinate-3 edge below every third-level
    vertex containing coordinate 3. Every vertex in the bottom n-2 levels
    then has a full reachmap, so nothing below level n-2 can cover the
    bottom vertex. Requires n >= 4. One fancy-index xor reverses every
    edge, unchecked; ``tests/helpers.py`` keeps the chain of checked
    ``flip_edge`` calls as the definition. n = 14 takes 0.1 ms and n = 18
    1.6 ms, against 0.5-1.0 and 2.2-4.1 ms for the flip loop of commit
    69240f9 (best of 7, 2-CPU Python 3.11 / numpy 2.4 host).
    """
    if n < 4:
        raise ValueError("construction requires dimension >= 4")
    _check_dimension(n)
    full = full_mask(n)
    # each reversed edge as its two endpoints, all distinct; reversing the
    # four edges of the 2-face on {1,2} anchored at full minus {1,2,3} xors
    # {1,2} into its four vertices, the ends of its two diagonals
    top = full ^ 0b111
    face = np.array([[top, top | 0b11], [top | 0b01, top | 0b10]])
    # the path spanning 4..n: full minus 2 along 4, then full minus k along k + 1
    along = np.int64(1) << np.arange(3, n)
    start = full ^ np.concatenate([[0b10], along[:-1]])
    path = np.stack([start, start ^ along], axis=1)
    # the coordinate-3 edge at every level-(n-3) vertex containing 3: the
    # full set minus three other coordinates
    others = np.delete(np.int64(1) << np.arange(n), 2)
    i, j, k = np.indices((n - 1,) * 3).reshape(3, -1)
    pick = (i < j) & (j < k)
    upper = full ^ (others[i[pick]] | others[j[pick]] | others[k[pick]])
    ends = np.concatenate([face, path, np.stack([upper, upper ^ 0b100], axis=1)])
    table = _forward_uniform(n)
    table[ends] ^= (ends[:, :1] ^ ends[:, 1:]).astype(np.uint32)
    return Orientation._own(n, table)


def build_family(family: str, n: int, seed: int) -> Orientation:
    """Instance of a family named in :data:`FAMILIES`; the random ones draw
    from ``SplitMix64(seed)``. Constructors are called by their module-global
    names, so a wrapper rebound to one of those names sees the call."""
    if family == "uniform":
        return uniform(n)
    if family == "km":
        return klee_minty(n)
    if family == "fmo":
        return random_fmo(n, SplitMix64(seed))
    if family == "target-combed":
        return random_target_combed(n, SplitMix64(seed))
    if family == "cyclic-lb":
        return cyclic_full_reach(n)
    if family == "auso-lb":
        return auso_lower_bound(n)
    if family == "product":
        return random_product(n, SplitMix64(seed))
    raise ValueError(f"unknown family {family!r}")
