"""Orientation families and combinators.

Includes the uniform and Klee-Minty orientations, single-edge flips,
flip-matching orientations (FMO), the frame/fiber product, hypersink
reorientation, the target-combed family, and the two lower-bound families
with extreme niceness (a cyclic one with full reachmaps everywhere and an
acyclic one whose niceness is n-2).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

import numpy as np

from .bitops import bit, full_mask, mask_deposit
from .core import Face, Orientation, _check_dimension, _check_vertex
from .rng import SplitMix64

#: Edges are written (vertex, coordinate) and denote the edge between
#: ``vertex`` and ``vertex ^ bit(coordinate)``.
Matching = Sequence[tuple[int, int]]


class FlipPreconditionViolated(ValueError):
    """Flipping this edge is not guaranteed to preserve the USO property."""


class HypersinkViolated(ValueError):
    """The given face is not a hypersink of the orientation."""


def uniform(n: int) -> Orientation:
    """All edges pointing from smaller to larger vertex sets (sink at the
    full set); :func:`reverse_orientation` gives the mirror, with its sink
    at the empty set."""
    _check_dimension(n)
    table = np.arange(1 << n, dtype=np.uint32) ^ np.uint32(full_mask(n))
    return Orientation(n, table, copy=False)


def klee_minty(n: int) -> Orientation:
    """Combinatorial Klee-Minty cube: coordinate i is outgoing at v exactly
    when v contains an odd number of coordinates >= i. Decomposable, with a
    directed Hamiltonian path from source to sink (the sink is the empty
    vertex)."""
    _check_dimension(n)
    verts = np.arange(1 << n, dtype=np.uint32)
    # bit i-1 of v >> k is coordinate i + k of v, so xoring the n shifts
    # leaves the parity of v's coordinates >= i in bit i-1
    table = verts.copy()
    for k in range(1, n):
        table ^= verts >> np.uint32(k)
    return Orientation(n, table, copy=False)


def reverse_orientation(o: Orientation) -> Orientation:
    """Reverse every edge. The reversal of a USO is again a USO (faces have
    unique sources)."""
    return Orientation(o.n, o.outmap ^ np.uint32(full_mask(o.n)), copy=False)


def _flip(n: int, table: np.ndarray, v: int, j: int) -> None:
    """Reverse the edge between ``v`` and ``v ^ bit(j)`` of the n-cube
    outmap ``table`` in place, under :func:`flip_edge`'s precondition."""
    if j < 1 or j > n:
        raise ValueError(f"coordinate {j} out of range for dimension {n}")
    _check_vertex(n, v)
    b = bit(j)
    u = v ^ b
    if (int(table[v]) ^ int(table[u])) & ~b:
        raise FlipPreconditionViolated(f"outmaps of {v} and {u} differ off coordinate {j}")
    table[v] ^= b
    table[u] ^= b


def flip_edge(o: Orientation, v: int, j: int) -> Orientation:
    """Reverse the single edge between ``v`` and ``v ^ bit(j)``.

    Allowed only when the two endpoint outmaps agree outside coordinate j;
    that condition makes the flip safe (the result of flipping an edge of a
    USO is then again a USO). Raises FlipPreconditionViolated otherwise.
    """
    table = o.outmap.copy()
    _flip(o.n, table, v, j)
    return Orientation(o.n, table, copy=False)


def validate_matching(n: int, m: Matching) -> None:
    """Raise ValueError unless the edges are pairwise vertex-disjoint and in
    range. Each edge occupies both of its endpoints."""
    occupied: set[int] = set()
    for v, j in m:
        if j < 1 or j > n:
            raise ValueError(f"coordinate {j} out of range for dimension {n}")
        _check_vertex(n, v)
        u = v ^ bit(j)
        if v in occupied or u in occupied:
            raise ValueError(f"matching reuses a vertex of edge ({v}, {j})")
        occupied.add(v)
        occupied.add(u)


def flip_matching(n: int, m: Matching) -> Orientation:
    """Forward-uniform orientation with every matching edge reversed (an
    FMO).

    FMOs are always USOs; they may be cyclic.
    """
    validate_matching(n, m)
    table = uniform(n).outmap.copy()
    for v, j in m:
        b = np.uint32(bit(j))
        table[v] ^= b
        table[v ^ bit(j)] ^= b
    return Orientation(n, table, copy=False)


def random_maximal_matching(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Greedy maximal matching over a seeded shuffle of all cube edges."""
    edges = [(v, j) for v in range(1 << n) for j in range(1, n + 1) if not (v >> (j - 1)) & 1]
    rng.shuffle(edges)
    occupied: set[int] = set()
    picked: list[tuple[int, int]] = []
    for v, j in edges:
        u = v ^ bit(j)
        if v in occupied or u in occupied:
            continue
        occupied.add(v)
        occupied.add(u)
        picked.append((v, j))
    return picked


def random_fmo(n: int, rng: SplitMix64) -> Orientation:
    """FMO over a random maximal matching."""
    return flip_matching(n, random_maximal_matching(n, rng))


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
        raise ValueError(
            f"need {frame.vertex_count()} fibers, got {len(fibers)}"
        )
    fiber_dim = fibers[0].n
    if any(f.n != fiber_dim for f in fibers):
        raise ValueError("all fibers must share one coordinate set")
    n = frame.n + fiber_dim
    _check_dimension(n)
    table = np.concatenate(
        [f.outmap | np.uint32(s << fiber_dim) for f, s in zip(fibers, frame.outmap.tolist())]
    )
    return Orientation(n, table, copy=False)


def hypersink_reorient(
    o: Orientation, sub: Face, replacement: Orientation
) -> Orientation:
    """Replace the orientation inside a hypersink subcube.

    ``sub`` must be a hypersink: no vertex of the face has an outgoing edge
    leaving the face. Any USO on the subcube may then be substituted without
    breaking the USO property (and acyclicity is preserved when both inputs
    are acyclic). Raises HypersinkViolated otherwise.
    """
    if replacement.n != sub.dimension:
        raise ValueError(
            f"replacement dimension {replacement.n} != face dimension {sub.dimension}"
        )
    outside = ~sub.span
    for v in sub.vertices():
        if o.out(v) & outside:
            raise HypersinkViolated(
                f"vertex {v} has outgoing edges leaving the subcube"
            )
    table = o.outmap.copy()
    for w in range(replacement.vertex_count()):
        v = sub.anchor | mask_deposit(w, sub.span)
        table[v] = mask_deposit(replacement.out(w), sub.span)
    return Orientation(o.n, table, copy=False)


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
    table = np.concatenate(
        [np.arange(2, dtype=np.uint32)]
        + [f.outmap | np.uint32(bit(k + 1)) for k, f in enumerate(fiber_choices, 1)]
    )
    return Orientation(n, table, copy=False)


def random_target_combed(n: int, rng: SplitMix64) -> Orientation:
    """Target-combed orientation with random FMO fibers."""
    fibers = [random_fmo(k, rng) for k in range(1, n)]
    return target_combed(n, fibers)


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
    full = full_mask(n)
    edges = []
    for i in range(1, n + 1):
        j = (i % n) + 1
        edges.append((full ^ bit(i), j))
    return flip_matching(n, edges)


def auso_lower_bound(n: int) -> Orientation:
    """Acyclic USO with niceness exactly n-2 (the worst possible for n >= 4).

    Built from the forward-uniform orientation by reversing one 2-face near
    the top, reversing a path of edges that together span coordinates
    4..n, and reversing the coordinate-3 edge below every third-level
    vertex containing coordinate 3. Every vertex in the bottom n-2 levels
    then has a full reachmap, so nothing below level n-2 can cover the
    bottom vertex. Requires n >= 4.
    """
    if n < 4:
        raise ValueError("construction requires dimension >= 4")
    _check_dimension(n)
    full = full_mask(n)
    table = uniform(n).outmap.copy()

    # reverse the 2-face on coordinates {1,2} anchored three levels down:
    # first the two coordinate-1 edges, then the two coordinate-2 edges
    v = full ^ (bit(1) | bit(2) | bit(3))
    for u, j in ((v, 1), (v | bit(2), 1), (v, 2), (v | bit(1), 2)):
        _flip(n, table, u, j)

    # reverse a path of edges spanning coordinates 4..n
    _flip(n, table, full ^ bit(2), 4)
    for k in range(4, n):
        _flip(n, table, full ^ bit(k), k + 1)

    # reverse the coordinate-3 edge at every level-(n-3) vertex containing 3,
    # the full set minus three other coordinates (disjoint edges, any order)
    for gone in combinations([j for j in range(1, n + 1) if j != 3], 3):
        _flip(n, table, full ^ sum(bit(j) for j in gone), 3)
    return Orientation(n, table, copy=False)
