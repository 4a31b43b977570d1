"""Hypercube orientation model.

An orientation of the n-cube is stored as a dense outmap table: entry v is
the set of coordinates along which the edges at vertex v point away from v.
This module provides the table type, faces, one edge-consistency check and
one unique-sink check (each returns the first violation it finds, and
:func:`uso_violation` the latter as a ``NotUSOError``), the outmap gate
:func:`sink_and_source`, ``NotUSOError`` with its certificate, a topological
order with the acyclicity test built on it, the decomposability test, and
canonicalization under the hypercube automorphism group. The decomposability
test runs as one kernel over a (B, 2^n) stack of tables
(:func:`decomposable_rows`), so the census classifies all its tables in one
call; :func:`is_decomposable` calls it on a stack of one.

The unique-sink check uses the face-sink recurrence of Szabo & Welzl: when
both facets of a face along its top coordinate j have one sink, the face's
sinks are the facet sinks with j incoming. It keeps one sink per face, as
that sink's outmap in the narrowest unsigned dtype that holds n bits
(uint8 up to n = 8, uint16 up to 16, then uint32), since the recurrence
reads nothing else of a sink; so it costs O(3^n) time and never gathers
from the table. Its low coordinates run as one array sweep of at most
``_SWEEP_ENTRIES`` = 2^22 sink outmaps (16 MiB at uint32), or 2^n when
n > 22; the high coordinates run depth first over their spans on arrays
no larger than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .bitops import (
    _check_mask,
    bit,
    format_coord_set,
    full_mask,
    mask_deposit,
    popcount,
    submasks,
)

#: Largest dimension for which dense tables are supported (2**n entries).
MAX_DIMENSION = 24

#: Most face sink outmaps the low-coordinate sweep of
#: :func:`first_uso_violation` holds in one array (16 MiB at uint32).
_SWEEP_ENTRIES = 1 << 22


class NotUSOError(ValueError):
    """Proof that a table is not a unique sink orientation.

    The certificate is one of:

    - ``face`` and ``count``: a face with ``count`` != 1 sinks;
    - ``pair``: two distinct vertices whose outmaps agree on every
      coordinate where the vertices differ, which breaks the pairwise
      criterion of Szabo & Welzl.

    The message defaults to a description of the certificate.
    """

    def __init__(
        self,
        message: str | None = None,
        *,
        face: Face | None = None,
        count: int | None = None,
        pair: tuple[int, int] | None = None,
    ):
        if message is None and face is not None:
            message = (
                f"not a USO: face span={format_coord_set(face.span)} "
                f"anchor={format_coord_set(face.anchor)} has {count} sinks"
            )
        elif message is None and pair is not None:
            u, v = pair
            message = (
                f"not a USO: vertices {u} and {v} differ on "
                f"{format_coord_set(u ^ v)} but their outmaps agree there"
            )
        super().__init__(message)
        self.face = face
        self.count = count
        self.pair = pair


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 1..{MAX_DIMENSION}, got {n}")


def _check_vertex(n: int, v: int) -> None:
    """Raise ``ValueError`` unless ``v`` is a vertex of the n-cube."""
    if not 0 <= v < 1 << n:
        raise ValueError(f"vertex {v} out of range for dimension {n}")


@dataclass(frozen=True)
class Face:
    """Subcube spanned by ``span`` through the vertex ``anchor``.

    The anchor is normalized (span bits cleared), so two faces are equal
    exactly when they contain the same vertex set. A negative span raises
    ``ValueError``.
    """

    anchor: int
    span: int

    def __post_init__(self) -> None:
        _check_mask(self.span)
        object.__setattr__(self, "anchor", self.anchor & ~self.span)

    @property
    def dimension(self) -> int:
        return popcount(self.span)

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
    only that the entries are integers (by dtype, so floats and booleans
    raise rather than truncate) within range; edge consistency is a
    separate predicate so that deliberately broken tables can be
    represented and rejected.
    """

    __slots__ = ("n", "_table")

    def __init__(self, n: int, outmap, *, copy: bool = True):
        _check_dimension(n)
        table = np.asarray(outmap)
        if table.shape != (1 << n,):
            raise ValueError(
                f"outmap table must have {1 << n} entries, got {table.shape}"
            )
        if table.dtype.kind not in "iu":
            raise ValueError(f"outmap table must hold integers, got dtype {table.dtype}")
        if int(table.min()) < 0 or int(table.max()) > full_mask(n):
            raise ValueError("outmap entry out of range for dimension")
        table = np.array(table, dtype=np.uint32, copy=True if copy else None)
        table.setflags(write=False)
        self.n = n
        self._table = table

    @property
    def outmap(self) -> np.ndarray:
        """The read-only outmap table (uint32, 2**n entries)."""
        return self._table

    def out(self, v: int) -> int:
        """Outmap of vertex ``v`` as a plain int; a vertex outside the cube
        raises ``ValueError`` rather than wrapping around."""
        _check_vertex(self.n, v)
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

    Raises ``NotUSOError`` with the face and its sink count when the face
    has other than one sink.
    """
    sinks = [v for v in f.vertices() if o.out(v) & f.span == 0]
    if len(sinks) != 1:
        raise NotUSOError(face=f, count=len(sinks))
    return sinks[0]


def sink_and_source(o: Orientation) -> tuple[int, int]:
    """The vertices with the empty and the full outmap, once one O(2^n)
    scan has found the outmap to be a bijection.

    A bijective outmap is the S = [n] case of Szabo & Welzl's pairwise
    criterion: two vertices with one outmap agree wherever they differ. It
    is necessary for a USO, not sufficient (``first_uso_violation`` decides
    that). Raises ``NotUSOError`` with the whole cube and its sink count
    when other than one vertex has an empty outmap, and otherwise with the
    pair (u, v): v the least vertex whose outmap an earlier vertex has, u
    the least vertex with that outmap.
    """
    table = o._table
    seen = np.zeros(table.size, dtype=bool)
    seen[table] = True
    if seen.all():
        return int(table.argmin()), int(table.argmax())
    sinks = np.count_nonzero(table == 0)
    if sinks != 1:
        raise NotUSOError(
            f"not a USO: {sinks} vertices have an empty outmap",
            face=Face.whole_cube(o.n),
            count=sinks,
        )
    repeated = np.ones(table.size, dtype=bool)
    repeated[np.unique(table, return_index=True)[1]] = False
    v = int(np.flatnonzero(repeated)[0])
    raise NotUSOError(pair=(int(np.flatnonzero(table == table[v])[0]), v))


def _join(b: np.unsignedinteger, a: np.ndarray, c: np.ndarray):
    """Sink outmaps of the faces joined along coordinate bit ``b`` from the
    facet sink outmaps ``a`` (b clear) and ``c`` (b set): the one of the two
    with b incoming. Also returns the sink count of every face where both or
    neither have b incoming (-1 elsewhere), or None when there is none.
    ``b`` has the dtype of ``a`` and ``c``, so no operand is widened.
    """
    in_a = (a & b) == 0
    joined = np.where(in_a, a, c)
    bad = in_a == ((c & b) == 0)
    if not bad.any():
        return joined, None
    return joined, np.where(bad, 2 * in_a, -1)


def _least_face(
    counts: np.ndarray, m: int, n: int, fixed: int, free: int
) -> tuple[Face, int]:
    """The least face, by span then anchor, among the entries of ``counts``
    that are not -1, with its count.

    Entry [r, t] is the face whose span is ``fixed`` plus the coordinates
    where the base-3 code t (m digits, coordinate 1 lowest) has digit 2,
    and whose anchor is r deposited into the coordinates ``free`` plus the
    coordinates where t has digit 1. ``free`` lies above coordinate m.
    """
    rows, codes = np.nonzero(counts >= 0)
    span = np.zeros_like(codes)
    anchor = np.zeros_like(codes)
    t = codes
    for i in range(m):
        t, d = np.divmod(t, 3)
        span |= (d == 2).astype(np.int64) << i
        anchor |= (d == 1).astype(np.int64) << i
    # depositing rows into ``free`` keeps their order and misses the low bits
    i = int(np.argmin((span << n) | (rows << m) | anchor))
    face = Face(mask_deposit(int(rows[i]), free) | int(anchor[i]), fixed | int(span[i]))
    return face, int(counts[rows[i], codes[i]])


def first_uso_violation(o: Orientation) -> tuple[Face, int] | None:
    """First face (ordered by span then anchor) with sink count != 1.

    Recurrence over the top coordinate j of a span: when both facets of a
    face along j have one sink, the face's sinks are the facet sinks with j
    incoming, so it has 0, 1 or 2. The recurrence reads a sink only through
    its outmap, so each face keeps its sink's outmap, not its vertex id, in
    the narrowest unsigned dtype for n bits: O(3^n) over all faces, with no
    gather from the table. The first bad face has only good proper
    subfaces, so it is found with its exact count. A face computed from a
    bad face's entry (one of its facet sinks) may look bad too, but it has
    that face as a proper subface, so it comes later in span order and is
    never reported.

    Coordinates 1..k run as one sweep over an array x[h, t]: h holds the
    vertex bits above coordinate j and t is a base-3 face code over
    coordinates 1..j (digit 0, 1 or "in span"). k is the largest value with
    3^k * 2^(n-k) <= ``_SWEEP_ENTRIES`` (every coordinate up to n = 13).
    Spans with a higher top all exceed those with top j, so the sweep stops
    at the first step that finds a bad face. The coordinates k+1..n follow
    depth first over their spans T -> T + {j}, j > top(T); each node holds
    a (2^(n-k-|T|), 3^k) array and spans not below the least bad face found
    are pruned.
    """
    n = o.n
    full = full_mask(n)
    k = 0
    while k < n and 3 ** (k + 1) << (n - k - 1) <= _SWEEP_ENTRIES:
        k += 1
    x = o._table.astype(np.min_scalar_type(full), copy=False).reshape(-1, 1)
    for j in range(1, k + 1):
        b = bit(j)
        pairs = x.reshape(-1, 2, x.shape[1])
        a, c = pairs[:, 0], pairs[:, 1]
        joined, counts = _join(x.dtype.type(b), a, c)
        if counts is not None:
            return _least_face(counts, j - 1, n, b, full ^ (2 * b - 1))
        x = np.concatenate([a, c, joined], axis=1)

    best = None

    def descend(y: np.ndarray, span: int, free: int) -> None:
        # rows of y hold the vertex bits at the coordinates ``free``
        nonlocal best
        for j in range(max(k, span.bit_length()) + 1, n + 1):
            b = bit(j)
            child = span | b
            if best is not None and best[0].span < child:
                return  # every span below here is at least child
            pairs = y.reshape(-1, 2, 1 << popcount(free & (b - 1)), y.shape[1])
            joined, counts = _join(y.dtype.type(b), pairs[:, 0], pairs[:, 1])
            joined = joined.reshape(-1, y.shape[1])
            if counts is not None:
                # the pruning above leaves only spans below ``best``
                best = _least_face(counts.reshape(joined.shape), k, n, child, free ^ b)
            descend(joined, child, free ^ b)

    descend(x, 0, full ^ full_mask(k))
    return best


def validate_uso(o: Orientation) -> bool:
    """True iff every face has exactly one sink."""
    return first_uso_violation(o) is None


def uso_violation(o: Orientation) -> NotUSOError | None:
    """``NotUSOError`` with the face and sink count that
    :func:`first_uso_violation` names; None when ``o`` is a USO."""
    violation = first_uso_violation(o)
    return None if violation is None else NotUSOError(face=violation[0], count=violation[1])


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


def decomposable_rows(tables: np.ndarray) -> np.ndarray:
    """Which rows of a (B, 2^n) stack of edge-consistent tables are
    decomposable: every face of dimension >= 1 has a combed coordinate.

    With d(v) = s(v) xor v, bit j of d(v) is the direction of the j-edge at
    v, the same at both endpoints, so j is combed in a face F exactly when
    bit j of d is constant on F (Szabo & Welzl's combed coordinates).
    Having a combed coordinate in every face is inherited by subfaces, so
    splitting each face along its lowest combed coordinate decides it,
    with no backtracking over coordinates and no memo: level k holds up to
    B 2^k faces as rows of the d values of their 2^(n-k) vertices in
    ascending order, and a face with no combed coordinate marks its table
    false and drops its table's faces. Faces of dimension 1 are always
    combed, so there are at most n - 1 levels. On a row that is not
    edge-consistent, d reads no edge direction and the row's answer says
    nothing about its edges.
    """
    size = tables.shape[1]
    d = tables ^ np.arange(size, dtype=np.uint32)
    span = np.full(len(d), size - 1, dtype=np.uint32)
    owner = np.arange(len(d))
    ok = np.ones(len(d), dtype=bool)
    while d.shape[1] > 2 and owner.size:
        combed = span & (np.bitwise_and.reduce(d, axis=1) | ~np.bitwise_or.reduce(d, axis=1))
        ok[owner[combed == 0]] = False
        keep = ok[owner]
        d, span, owner, combed = d[keep], span[keep], owner[keep], combed[keep]
        low = combed & ~(combed - np.uint32(1))
        # a face vertex has the split coordinate set exactly when bit
        # rank(low in span) of its position in the row is set
        rank = np.bitwise_count(span & (low - np.uint32(1)))
        lower = (np.arange(d.shape[1]) >> rank[:, None]) & 1 == 0
        half = d.shape[1] // 2
        d = np.concatenate([d[lower].reshape(-1, half), d[~lower].reshape(-1, half)])
        span = np.tile(span ^ low, 2)
        owner = np.tile(owner, 2)
    return ok


def is_decomposable(o: Orientation) -> bool:
    """True iff every face of dimension >= 1 contains a combed coordinate:
    :func:`decomposable_rows` on a stack of one.

    The table is assumed edge-consistent (see :func:`first_edge_violation`).
    On a table that is not, bit j of s(v) xor v is no longer the direction
    of an edge, and the answer only says whether the splits find, in every
    face they reach, a j whose bit is constant on all the face's vertices:
    ``Orientation(2, [1, 1, 1, 1])``, for one, is not decomposable.
    """
    return bool(decomposable_rows(o._table[None])[0])


@lru_cache(maxsize=None)
def _automorphism_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(inverse vertex maps, coordinate maps) of every automorphism of Q^n,
    one row each, shape (2**n * n!, 2**n), as uint8.

    The automorphisms are v -> pi(v) xor m for a coordinate permutation pi
    and a reflection mask m; row (pi, m) holds the inverse w -> pi^-1(w xor
    m) and the coordinate map pi. Rows run over the permutations in
    ``itertools.permutations`` order, and over m within each.
    """
    size = 1 << n
    masks = np.arange(size)
    bits = (masks[:, None] >> np.arange(n)) & 1  # bits[mask, i] = bit i of mask
    perms = np.array(list(permutations(range(n))))
    # bit i of a mask goes to bit perm[i], and back under the inverse
    coord_maps = (bits @ (1 << perms.T)).T.astype(np.uint8)
    inverse_maps = (bits @ (1 << np.argsort(perms, axis=1).T)).T.astype(np.uint8)
    inverse = inverse_maps[:, masks[:, None] ^ masks].reshape(-1, size)
    return inverse, np.repeat(coord_maps, size, axis=0)


def canonical_form(o: Orientation) -> Orientation:
    """Lexicographically least outmap table over all hypercube automorphisms.

    Two orientations are isomorphic (same up to relabeling of the cube) iff
    their canonical forms are identical. Isomorphism here means the full
    automorphism group of the cube: coordinate permutations composed with
    reflections. Restricted to n <= 6; the group has size 2**n * n!.

    The image of the table under automorphism g is coord_map_g applied to
    table[inverse_g]. All images are formed in one gather, as uint8 rows;
    viewed as fixed-width byte strings they compare lexicographically, so
    one ``argmin`` picks the least.
    """
    if o.n > 6:
        raise ValueError("canonical_form supports n <= 6 only")
    inverse, coord_maps = _automorphism_arrays(o.n)
    images = np.take_along_axis(coord_maps, o._table[inverse], axis=1)
    return Orientation(o.n, images[images.view(f"S{1 << o.n}")[:, 0].argmin()])
