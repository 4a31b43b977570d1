"""Orientation families and combinators.

Includes the uniform and Klee-Minty orientations, single-edge flips,
flip-matching orientations (FMO), the frame/fiber product, hypersink
reorientation, the target-combed family, and the two lower-bound families
with extreme niceness (a cyclic one with full reachmaps everywhere and an
acyclic one whose niceness is n-2).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitops import bit, full_mask, mask_deposit, mask_extract, popcount
from .core import Face, Orientation, _check_dimension
from .rng import SplitMix64

#: Edges are written (vertex, coordinate) and denote the edge between
#: ``vertex`` and ``vertex ^ bit(coordinate)``.
Matching = Sequence[tuple[int, int]]


class FlipPreconditionViolated(ValueError):
    """Flipping this edge is not guaranteed to preserve the USO property."""


class HypersinkViolated(ValueError):
    """The given face is not a hypersink of the orientation."""


def uniform(n: int, forward: bool = True) -> Orientation:
    """All edges pointing from smaller to larger vertex sets (sink at the
    full set) or the mirror of that (sink at the empty set)."""
    _check_dimension(n)
    verts = np.arange(1 << n, dtype=np.uint32)
    table = (verts ^ np.uint32(full_mask(n))) if forward else verts
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


def flip_edge(o: Orientation, v: int, j: int) -> Orientation:
    """Reverse the single edge between ``v`` and ``v ^ bit(j)``.

    Allowed only when the two endpoint outmaps agree outside coordinate j;
    that condition makes the flip safe (the result of flipping an edge of a
    USO is then again a USO). Raises FlipPreconditionViolated otherwise.
    """
    b = bit(j)
    if j < 1 or j > o.n:
        raise ValueError(f"coordinate {j} out of range for dimension {o.n}")
    u = v ^ b
    sv, su = o.out(v), o.out(u)
    if (sv ^ su) & ~b:
        raise FlipPreconditionViolated(
            f"outmaps of {v} and {u} differ off coordinate {j}"
        )
    table = o.outmap.copy()
    table[v] ^= b
    table[u] ^= b
    return Orientation(o.n, table, copy=False)


def validate_matching(n: int, m: Matching) -> None:
    """Raise ValueError unless the edges are pairwise vertex-disjoint and in
    range. Each edge occupies both of its endpoints."""
    occupied: set[int] = set()
    for v, j in m:
        if j < 1 or j > n:
            raise ValueError(f"coordinate {j} out of range for dimension {n}")
        if not 0 <= v < (1 << n):
            raise ValueError(f"vertex {v} out of range for dimension {n}")
        u = v ^ bit(j)
        if v in occupied or u in occupied:
            raise ValueError(f"matching reuses a vertex of edge ({v}, {j})")
        occupied.add(v)
        occupied.add(u)


def flip_matching(n: int, m: Matching, forward_base: bool = True) -> Orientation:
    """Uniform orientation with every matching edge reversed (an FMO).

    FMOs are always USOs; they may be cyclic.
    """
    validate_matching(n, m)
    base = uniform(n, forward=forward_base)
    table = base.outmap.copy()
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


def random_fmo(n: int, rng: SplitMix64, forward_base: bool = True) -> Orientation:
    """FMO over a random maximal matching."""
    return flip_matching(n, random_maximal_matching(n, rng), forward_base)


def product(
    frame: Orientation,
    fibers: Sequence[Orientation],
    frame_coords: int | None = None,
) -> Orientation:
    """Combine a frame orientation with one fiber orientation per frame
    vertex.

    The result lives on frame.n + fiber.n coordinates; ``frame_coords``
    selects which result coordinates the frame occupies (default: the top
    frame.n coordinates). The outmap of a combined vertex is the frame
    outmap of its frame part together with the outmap, under the fiber
    selected by the frame part, of its fiber part. The result is a USO when
    all inputs are, and acyclic when all inputs are.
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
    full = full_mask(n)
    if frame_coords is None:
        frame_coords = full ^ full_mask(fiber_dim)
    if popcount(frame_coords) != frame.n or frame_coords & ~full:
        raise ValueError("frame coordinate set does not match frame dimension")
    fiber_coords = full ^ frame_coords

    table = np.zeros(1 << n, dtype=np.uint32)
    for v in range(1 << n):
        u = mask_extract(v, frame_coords)
        w = mask_extract(v, fiber_coords)
        s = mask_deposit(frame.out(u), frame_coords) | mask_deposit(
            fibers[u].out(w), fiber_coords
        )
        table[v] = s
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
    current = uniform(1, forward=False)  # sink at the empty vertex
    for k in range(1, n):
        upper = fiber_choices[k - 1]
        if upper.n != k:
            raise ValueError(
                f"fiber for coordinate {k + 1} must have dimension {k}, got {upper.n}"
            )
        top = np.uint32(bit(k + 1))
        table = np.concatenate([current.outmap, upper.outmap | top])
        current = Orientation(k + 1, table, copy=False)
    return current


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
    return flip_matching(n, edges, forward_base=True)


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
    o = uniform(n, forward=True)

    # reverse the 2-face on coordinates {1,2} anchored three levels down:
    # first the two coordinate-1 edges, then the two coordinate-2 edges
    v = full ^ (bit(1) | bit(2) | bit(3))
    o = flip_edge(o, v, 1)
    o = flip_edge(o, v | bit(2), 1)
    o = flip_edge(o, v, 2)
    o = flip_edge(o, v | bit(1), 2)

    # reverse a path of edges spanning coordinates 4..n
    o = flip_edge(o, full ^ bit(2), 4)
    for k in range(4, n):
        o = flip_edge(o, full ^ bit(k), k + 1)

    # reverse the coordinate-3 edge at every level-(n-3) vertex containing 3
    for u in range(1 << n):
        if popcount(u) == n - 3 and u & bit(3):
            o = flip_edge(o, u, 3)
    return o
