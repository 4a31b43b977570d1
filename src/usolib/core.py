"""Hypercube orientation model.

An orientation of the n-cube is stored as a dense outmap table: entry v is
the set of coordinates along which the edges at vertex v point away from v.
This module provides the table type, faces, one edge-consistency check and
one unique-sink check (each returns the first violation it finds), a
topological order with the acyclicity test built on it, the
decomposability test, and canonicalization under the hypercube
automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .bitops import (
    bit,
    coords,
    format_coord_set,
    full_mask,
    popcount,
    submasks,
)

#: Largest dimension for which dense tables are supported (2**n entries).
MAX_DIMENSION = 24


class FaceSinkError(Exception):
    """A face of the cube does not have exactly one sink."""

    def __init__(self, face: "Face", count: int):
        self.face = face
        self.count = count
        super().__init__(
            f"face span={format_coord_set(face.span)} "
            f"anchor={format_coord_set(face.anchor)} has {count} sinks"
        )


class ZeroSinksError(FaceSinkError):
    def __init__(self, face: "Face"):
        super().__init__(face, 0)


class MultipleSinksError(FaceSinkError):
    def __init__(self, face: "Face", count: int):
        super().__init__(face, count)


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


@dataclass(frozen=True)
class Face:
    """Subcube spanned by ``span`` through the vertex ``anchor``.

    The anchor is normalized (span bits cleared), so two faces are equal
    exactly when they contain the same vertex set.
    """

    anchor: int
    span: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "anchor", self.anchor & ~self.span)

    @property
    def dimension(self) -> int:
        return popcount(self.span)

    def vertex_count(self) -> int:
        return 1 << self.dimension

    def contains(self, v: int) -> bool:
        return (v ^ self.anchor) & ~self.span == 0

    def vertices(self):
        """All vertices of the face, ascending by vertex index."""
        for sub in submasks(self.span):
            yield self.anchor | sub

    @classmethod
    def whole_cube(cls, n: int) -> "Face":
        return cls(0, full_mask(n))

    def __repr__(self) -> str:
        return (
            f"Face(anchor={format_coord_set(self.anchor)}, "
            f"span={format_coord_set(self.span)})"
        )


class Orientation:
    """Dimension plus a dense outmap table of 2**n coordinate sets.

    The table is held in a read-only numpy array; every construction that
    changes an orientation returns a new instance. The constructor checks
    value ranges only; edge consistency is a separate predicate so that
    deliberately broken tables can be represented and rejected.
    """

    __slots__ = ("n", "_table")

    def __init__(self, n: int, outmap, *, copy: bool = True):
        _check_dimension(n)
        table = np.array(outmap, dtype=np.uint32, copy=True if copy else None)
        if table.shape != (1 << n,):
            raise ValueError(
                f"outmap table must have {1 << n} entries, got {table.shape}"
            )
        if table.size and int(table.max()) > full_mask(n):
            raise ValueError("outmap entry out of range for dimension")
        table.setflags(write=False)
        self.n = n
        self._table = table

    @property
    def outmap(self) -> np.ndarray:
        """The read-only outmap table (uint32, 2**n entries)."""
        return self._table

    def out(self, v: int) -> int:
        """Outmap of vertex ``v`` as a plain int."""
        return int(self._table[v])

    def vertex_count(self) -> int:
        return 1 << self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._table, other._table))

    def __hash__(self) -> int:
        return hash((self.n, self._table.tobytes()))

    def __repr__(self) -> str:
        return f"Orientation(n={self.n}, outmap={self._table.tolist()!r})"


class EvalCounter:
    """Vertex oracle over a stored table, counting distinct evaluations.

    Re-querying an already-evaluated vertex is free: the count is the number
    of distinct vertices whose outmap has been requested.
    """

    __slots__ = ("orientation", "_cache")

    def __init__(self, o: Orientation):
        self.orientation = o
        self._cache: dict[int, int] = {}

    def __call__(self, v: int) -> int:
        s = self._cache.get(v)
        if s is None:
            s = self.orientation.out(v)
            self._cache[v] = s
        return s

    @property
    def evaluations(self) -> int:
        return len(self._cache)

    def known(self, v: int) -> bool:
        return v in self._cache


def outmap_of(o: Orientation, v: int) -> int:
    """Outmap lookup with range checking."""
    if not 0 <= v < o.vertex_count():
        raise ValueError(f"vertex {v} out of range for dimension {o.n}")
    return o.out(v)


def first_edge_violation(o: Orientation) -> tuple[int, int] | None:
    """(vertex, coordinate) of the first edge whose endpoints agree on it.

    An edge is consistent when exactly one endpoint has it outgoing. The
    result is the smallest bad vertex and, for that vertex, its smallest bad
    coordinate (1-based); None when every edge is consistent.
    """
    best = None
    for j in range(1, o.n + 1):
        b = bit(j)
        # row r pairs vertex 2br + c (coordinate j clear) with 2br + b + c
        sides = (o._table & np.uint32(b)).reshape(-1, 2, b)
        bad = np.flatnonzero(sides[:, 0] == sides[:, 1])
        if bad.size:
            row, col = divmod(int(bad[0]), b)
            v = 2 * b * row + col
            if best is None or v < best[0]:
                best = (v, j)
    return best


def validate_orientation(o: Orientation) -> bool:
    """True iff every edge has exactly one outgoing endpoint."""
    return first_edge_violation(o) is None


def face_sink(o: Orientation, f: Face) -> int:
    """The unique vertex of ``f`` with no outgoing edge inside ``f``.

    Raises ZeroSinksError or MultipleSinksError when the face violates the
    unique-sink property; callers use this as the detection mechanism.
    """
    found = -1
    count = 0
    for v in f.vertices():
        if o.out(v) & f.span == 0:
            count += 1
            if found < 0:
                found = v
    if count == 0:
        raise ZeroSinksError(f)
    if count > 1:
        raise MultipleSinksError(f, count)
    return found


def first_uso_violation(o: Orientation) -> tuple[Face, int] | None:
    """First face (ordered by span then anchor) with sink count != 1."""
    n = o.n
    full = full_mask(n)
    table = o._table
    verts = np.arange(table.size)
    for span in range(1, full + 1):
        sinks = (table & span) == 0
        anchors = verts & ~span
        counts = np.bincount(anchors[sinks], minlength=table.size)
        bad = np.flatnonzero(counts[anchors] != 1)
        if bad.size:
            a = int(anchors[bad[0]])
            return Face(a, span), int(counts[a])
    return None


def validate_uso(o: Orientation) -> bool:
    """True iff every face has exactly one sink."""
    return first_uso_violation(o) is None


def topological_order(o: Orientation) -> list[int] | None:
    """Vertices ordered so that every edge points forward (Kahn's
    algorithm); None when the directed edge relation has a cycle.

    In-degree of a vertex is n minus its out-degree, so the scan needs no
    adjacency construction.
    """
    table = o._table.tolist()
    indeg = [o.n - s.bit_count() for s in table]
    stack = [v for v, d in enumerate(indeg) if d == 0]
    order: list[int] = []
    while stack:
        v = stack.pop()
        order.append(v)
        s = table[v]
        while s:
            low = s & -s
            s ^= low
            u = v ^ low
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    return order if len(order) == len(table) else None


def is_acyclic(o: Orientation) -> bool:
    """True iff the directed edge relation has no cycle."""
    return topological_order(o) is not None


def _combed_direction(o: Orientation, f: Face, j: int) -> int:
    """-1 if coordinate j is not combed in face f; else 0/1 for the shared
    direction bit (1 means edges point from the j=0 side to the j=1 side)."""
    b = bit(j)
    lower = Face(f.anchor, f.span & ~b)
    direction = -1
    for v in lower.vertices():
        d = 1 if o.out(v) & b else 0
        if direction < 0:
            direction = d
        elif d != direction:
            return -1
    return direction


def is_decomposable(o: Orientation) -> bool:
    """True iff every face of dimension >= 1 contains a combed coordinate.

    Recursive: a combed coordinate splits a face into two halves which are
    checked independently; results are memoized per face.
    """
    memo: dict[Face, bool] = {}

    def check(f: Face) -> bool:
        if f.dimension <= 1:
            return True
        cached = memo.get(f)
        if cached is not None:
            return cached
        result = False
        for j in coords(f.span):
            if _combed_direction(o, f, j) < 0:
                continue
            rest = f.span & ~bit(j)
            if check(Face(f.anchor, rest)) and check(Face(f.anchor | bit(j), rest)):
                result = True
                break
        memo[f] = result
        return result

    return check(Face.whole_cube(o.n))


def _permute_mask_table(n: int, perm: tuple[int, ...]) -> list[int]:
    """table[mask] = image of mask under the coordinate permutation
    perm (0-based: bit i goes to bit perm[i])."""
    size = 1 << n
    table = [0] * size
    single = [1 << perm[i] for i in range(n)]
    for mask in range(size):
        m = mask
        out = 0
        while m:
            low = m & -m
            out |= single[low.bit_length() - 1]
            m ^= low
        table[mask] = out
    return table


def hypercube_automorphisms(n: int):
    """Yield (vertex_map, coord_map) tables for every automorphism of Q^n.

    Automorphisms are coordinate permutations composed with coordinate-wise
    reflections: phi(v) = pi(v) xor m. ``vertex_map[v]`` gives phi(v) and
    ``coord_map[mask]`` gives pi(mask).
    """
    size = 1 << n
    for perm in permutations(range(n)):
        pmask = _permute_mask_table(n, perm)
        for m in range(size):
            yield [pmask[v] ^ m for v in range(size)], pmask


def canonical_form(o: Orientation) -> Orientation:
    """Lexicographically least outmap table over all hypercube automorphisms.

    Two orientations are isomorphic (same up to relabeling of the cube) iff
    their canonical forms are identical. Isomorphism here means the full
    automorphism group of the cube: coordinate permutations composed with
    reflections. Restricted to n <= 6; the group has size 2**n * n!.
    """
    if o.n > 6:
        raise ValueError("canonical_form supports n <= 6 only")
    size = o.vertex_count()
    table = [o.out(v) for v in range(size)]
    best: tuple[int, ...] | None = None
    for vertex_map, coord_map in hypercube_automorphisms(o.n):
        inverse = [0] * size
        for v, w in enumerate(vertex_map):
            inverse[w] = v
        candidate = tuple(coord_map[table[inverse[w]]] for w in range(size))
        if best is None or candidate < best:
            best = candidate
    assert best is not None
    return Orientation(o.n, best)
