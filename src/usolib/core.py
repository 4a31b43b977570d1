"""Hypercube orientation model.

An orientation of the n-cube is stored as a dense outmap table: entry v is
the set of coordinates along which the edges at vertex v point away from v.
This module provides the table type, faces, one edge-consistency check and
one unique-sink check (each names the first violation it finds, the latter
as a ``NotUSOError``), the outmap gate :func:`sink_and_source`,
``NotUSOError`` with its certificate, a topological order with the
acyclicity test built on it, the decomposability test, and
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
from the table. One rule runs over the coordinates: fold at the root
while the array fits, branch below. Each coordinate folds into the face
codes of one root array while that holds at most ``_SWEEP_ENTRIES`` = 2^22
sink outmaps (16 MiB at uint32), or 2^n when n > 22; the coordinates after
the first that does not fit branch depth first over their spans, on
arrays no larger than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .bitops import (
    _check_mask,
    bit,
    coords,
    format_coord_set,
    full_mask,
    mask_deposit,
    popcount,
)

#: Largest dimension for which dense tables are supported (2**n entries).
MAX_DIMENSION = 24

#: Most face sink outmaps the root of :func:`first_uso_violation` folds
#: into one array (16 MiB at uint32).
_SWEEP_ENTRIES = 1 << 22

#: Outmaps :func:`sink_and_source` scatters per intp block (512 KiB).
_SCATTER_BLOCK = 1 << 16


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


def _check_face(n: int, f: "Face") -> None:
    """Raise ``ValueError`` unless every vertex of ``f`` is a vertex of the
    n-cube, naming the least one that is not: the anchor, or the anchor
    plus the lowest span coordinate above n."""
    high = f.span >> n << n
    _check_vertex(n, f.anchor)
    _check_vertex(n, f.anchor | (high & -high))


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

    def vertices(self) -> np.ndarray:
        """All vertices of the face as an ascending int64 array, built by
        doubling over the span's coordinates."""
        verts = np.full(1, self.anchor, dtype=np.int64)
        for c in coords(self.span):
            verts = np.concatenate([verts, verts | bit(c)])
        return verts

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

    The constructor always copies ``outmap`` into a read-only uint32 table,
    so it never aliases its input (the copy takes 0.04-0.08 ms at n = 18 on
    a 2-CPU Python 3.11 / numpy 2.4 host); every construction that changes
    an orientation returns a new instance. The constructor checks only that
    the entries are integers (by dtype, so floats and booleans raise rather
    than truncate) within range; edge consistency is a separate predicate
    so that deliberately broken tables can be represented and rejected.
    An unsigned input cannot hold a negative entry, so only a signed one
    pays the ``min`` reduction. On the enumerator's uint8 rows of the
    3-cube, as on the canonical forms, a call took 3.0 us, against 4.3 us
    with the ``min`` at commit 9b83d3d (best of 3 processes of 7 x 3 runs,
    2-CPU host, Python 3.11, numpy 2.4).
    """

    __slots__ = ("n", "_table")

    def __init__(self, n: int, outmap):
        _check_dimension(n)
        table = np.asarray(outmap)
        if table.shape != (1 << n,):
            raise ValueError(
                f"outmap table must have {1 << n} entries, got {table.shape}"
            )
        if table.dtype.kind not in "iu":
            raise ValueError(f"outmap table must hold integers, got dtype {table.dtype}")
        if (table.dtype.kind == "i" and int(table.min()) < 0) or int(table.max()) > full_mask(n):
            raise ValueError("outmap entry out of range for dimension")
        table = np.array(table, dtype=np.uint32)
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

    Each coordinate j XORs the two halves of its pair view into a fresh
    array and accepts j when one AND-reduce of it has bit j set; only a
    coordinate that fails locates its least bad vertex. Rows shorter than
    16 entries (j <= 4) are XORed transposed, so numpy's inner loop runs
    along the 2^(n-j) rows rather than over rows of 1 to 8 entries; from
    16 entries on the default order is faster. Per call against commit
    2bb6fb3, which compared masked halves row by row: Klee-Minty 3 22.1 ->
    18.5 us, Klee-Minty 9 75 -> 53 us, random FMO 10 92 -> 64 us, product
    11 112 -> 74 us, Klee-Minty 12 146 -> 92 us, 14 333 -> 175 us and 16
    1.04 -> 0.46 ms (best of 5 runs, 2-CPU host, Python 3.11, numpy 2.4).
    """
    table = o._table
    best = None
    for j in range(1, o.n + 1):
        b = bit(j)
        # row r pairs vertex 2br + c (coordinate j clear) with 2br + b + c
        pairs = table.reshape(-1, 2, b)
        if b < 16:
            x = np.bitwise_xor(pairs[:, 0].T, pairs[:, 1].T, order="C").T
        else:
            x = pairs[:, 0] ^ pairs[:, 1]
        if int(np.bitwise_and.reduce(x, axis=None)) & b:
            continue
        row, col = divmod(int(np.flatnonzero((x & b) == 0)[0]), b)
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
    has other than one sink, and ``ValueError`` naming the least vertex of
    ``f`` outside the cube (see :func:`_check_face`).
    """
    _check_face(o.n, f)
    verts = f.vertices()
    sinks = verts[o._table[verts] & f.span == 0]
    if sinks.size != 1:
        raise NotUSOError(face=f, count=sinks.size)
    return int(sinks[0])


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

    The scan marks each outmap in a bool array, scattering through intp
    indices ``_SCATTER_BLOCK`` = 2^16 entries at a time: numpy serves a
    uint32 index on a slow path, and a whole-table intp copy would add
    8 B/vertex to every walk, solve and niceness call that runs this gate.
    Up to n = 16 one block is the whole table, so the intp indices add at
    most 512 KiB. On Klee-Minty tables the gate took 200 -> 147 us at
    n = 16 and 993 -> 622 us at n = 18, and is level at n = 3 and 10
    (4.0 -> 3.6 and 7.6 -> 6.6 us; best of 3 processes of 5 runs, 2-CPU
    host, Python 3.11, numpy 2.4).
    """
    table = o._table
    seen = np.zeros(table.size, dtype=bool)
    for k in range(0, table.size, _SCATTER_BLOCK):
        seen[table[k : k + _SCATTER_BLOCK].astype(np.intp)] = True
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


def first_uso_violation(o: Orientation) -> NotUSOError | None:
    """``NotUSOError`` naming the first face (ordered by span then anchor)
    with sink count != 1, and that count; None when ``o`` is a USO.

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

    One rule covers every coordinate j = 1..n: fold at the root while the
    array fits, branch below. The root's array x[h, t] has rows h over the
    vertex bits above coordinate m and columns t, base-3 face codes over
    coordinates 1..m (digit 0, 1 or "in span"). Joining along j = m + 1
    folds j into the codes while the result holds at most
    ``_SWEEP_ENTRIES`` entries (every coordinate up to n = 13). From the
    first j that does not fit, each join is a node T + {j} of a depth-first
    search over the spans T above the codes, j > top(T), on an array half
    its parent's size. Spans not below the least bad face found so far
    are pruned.
    """
    n = o.n
    full = full_mask(n)
    best = None

    def scan(y: np.ndarray, span: int, m: int, free: int, start: int) -> None:
        # rows of y hold the vertex bits at the coordinates ``free``, columns
        # the face codes over coordinates 1..m
        nonlocal best
        for j in range(start, n + 1):
            b = bit(j)
            if best is not None and best[0].span < span | b:
                return  # every span from here on is at least span | b
            pairs = y.reshape(-1, 2, 1 << popcount(free & (b - 1)), y.shape[1])
            a, c = pairs[:, 0], pairs[:, 1]
            joined, counts = _join(y.dtype.type(b), a, c)
            if counts is not None:
                # the pruning above leaves only spans below ``best``
                best = _least_face(counts.reshape(-1, y.shape[1]), m, n, span | b, free ^ b)
            if span == 0 and 3 * y.size <= 2 * _SWEEP_ENTRIES:
                y = np.concatenate([a, c, joined], axis=2).reshape(len(a), -1)
                m, free = j, free ^ b
            else:
                scan(joined.reshape(-1, y.shape[1]), span | b, m, free ^ b, j + 1)

    scan(o._table.astype(np.min_scalar_type(full), copy=False).reshape(-1, 1), 0, 0, full, 1)
    return None if best is None else NotUSOError(face=best[0], count=best[1])


def validate_uso(o: Orientation) -> bool:
    """True iff every face has exactly one sink."""
    return first_uso_violation(o) is None


def topological_order(o: Orientation) -> list[int] | None:
    """Vertices ordered so that every edge points forward (Kahn's
    algorithm); None when the directed edge relation has a cycle.

    In-degree of a vertex is n minus its out-degree, and the first sources
    are the vertices whose every edge is outgoing, so the scan needs no
    adjacency construction.
    """
    table = o._table.tolist()
    indeg = (o.n - np.bitwise_count(o._table)).tolist()
    stack = np.flatnonzero(o._table == full_mask(o.n)).tolist()
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
    table[inverse_g]. All images are formed in one gather, as uint8 rows:
    row g of the coordinate maps starts at g 2^n in their flat array, so
    ``take`` on the flat indices g 2^n + table[inverse_g] reads them all
    (``np.take_along_axis`` builds broadcast index arrays in Python on
    every call). Viewed as fixed-width byte strings the rows compare
    lexicographically, so one ``argmin`` picks the least, and the uint8
    row goes to the constructor without a ``min`` check. A call at n = 3
    took 11.1 us, against 16.4 us with ``take_along_axis`` at commit
    9b83d3d (the 744 USOs of the 3-cube, best of 3 processes of 7 x 3
    runs, 2-CPU host, Python 3.11, numpy 2.4).
    """
    if o.n > 6:
        raise ValueError("canonical_form supports n <= 6 only")
    size = 1 << o.n
    inverse, coord_maps = _automorphism_arrays(o.n)
    rows = np.arange(0, inverse.size, size)[:, None]  # row g starts at g 2^n
    images = coord_maps.reshape(-1).take(rows + o._table[inverse])
    return Orientation(o.n, images[images.view(f"S{size}")[:, 0].argmin()])
