"""Independent oracles used to cross-check the library.

Everything here is deliberately written from the definitions, without
reusing the library's fast paths: a coordinate mask from a list, the
subsets of a mask in order, face membership, the splitmix64 stream one
scalar value at a time and the cursor draws over it, the Fisher-Yates list shuffle, the USO-TEXT reader one
line at a time, ``uso analyze``'s text one line at a time, a pure-python edge
check and face scan,
the numpy face scan that names the first bad face in O(4^n), the pairwise
unique-sink criterion, an edge flip that ignores the USO property, a check
of the certificates that ``NotUSOError`` carries, the Klee-Minty table
from its definition and as n - 1 shifts, the acyclic lower-bound family
as a chain of flips, hypersink reorientation one vertex at a time,
target-combed grown one coordinate at a time, the
greedy random maximal matching over a list shuffle and its FMO,
per-vertex reachability sets, BFS distances, the k-th set bit by
clearing the lower ones, the Random Edge and Bottom Antipodal walks as
plain per-step loops, the neighbor join and the derandomized Random
Edge as nested loops over snapshots and a ball list, enumeration by pruned backtracking and by brute
force over raw edge orientations, software PEXT, the cube's automorphisms
as Python lists, canonical forms by one loop per automorphism, the memoised
decomposability recursion over faces, acyclicity from reachability, the
pure-python cover-distance level sweep, and the exact Random Edge
expectations as one linear solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from usolib.algo import RunStats, fibonacci_seesaw, join_set
from usolib.bitops import _check_mask, bit, coords, format_coord_set, full_mask, mask_deposit, popcount
from usolib.construct import HypersinkViolated, flip_edge, reverse_orientation, uniform
from usolib.core import MAX_DIMENSION, EvalCounter, Face, NotUSOError, Orientation
from usolib.io import ParseError
from usolib.rng import SplitMix64


_MASK64 = (1 << 64) - 1


def from_coords(items) -> int:
    """Mask of the 1-based coordinates ``items``."""
    out = 0
    for c in items:
        out |= bit(c)
    return out


def submasks(mask: int):
    """All subsets of ``mask``, in increasing numeric order: the face
    enumeration that ``Face.vertices`` is checked against."""
    _check_mask(mask)
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def face_contains(face: Face, v: int) -> bool:
    """Whether vertex ``v`` lies in ``face``."""
    return (v ^ face.anchor) & ~face.span == 0


def mix64(x: int) -> int:
    """The splitmix64 finalizer over unsigned 64-bit Python ints."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def stream_value(seed: int, index: int) -> int:
    """Value ``index`` of the splitmix64 stream with ``seed``."""
    return mix64(seed + (index + 1) * 0x9E3779B97F4A7C15)


def start_value(seed: int) -> int:
    """The random-start draw of ``seed`` by its first definition: the
    splitmix64 finalizer of seed plus a fixed salt. It is value
    ``rng.SIDE_INDEX`` of the seed's stream."""
    return mix64((seed + 0x1D8AF066B1F4B2A5) & _MASK64)


def next_u64(rng: SplitMix64) -> int:
    """One value of ``rng``'s stream at its cursor, advancing the cursor."""
    value = stream_value(rng.seed, rng.index)
    rng.index += 1
    return value


def randrange(rng: SplitMix64, k: int) -> int:
    """:func:`next_u64` mod ``k``."""
    return next_u64(rng) % k


def shuffle(items: list, rng: SplitMix64) -> None:
    """Fisher-Yates shuffle of ``items`` in place, step i = len-1, ..., 1
    swapping positions i and ``randrange(rng, i + 1)``; the list oracle of
    ``construct._shuffled_range``."""
    for i in range(len(items) - 1, 0, -1):
        j = randrange(rng, i + 1)
        items[i], items[j] = items[j], items[i]


def mask_extract(value: int, positions: int) -> int:
    """Compress the bits of ``value`` selected by ``positions`` into the low
    bits, preserving order (software PEXT); the inverse of
    ``bitops.mask_deposit``."""
    out = 0
    shift = 0
    while positions:
        low = positions & -positions
        if value & low:
            out |= 1 << shift
        shift += 1
        positions ^= low
    return out


def first_edge_violation_pure(o: Orientation) -> tuple[int, int] | None:
    """(vertex, coordinate) of the first edge whose endpoints both have it
    outgoing or both incoming, scanning vertices then coordinates
    ascending; no numpy."""
    for v in range(o.vertex_count()):
        s = o.out(v)
        for j in range(1, o.n + 1):
            b = bit(j)
            if bool(s & b) == bool(o.out(v ^ b) & b):
                return v, j
    return None


def loads_text_by_lines(text: str) -> Orientation:
    """USO-TEXT v1 by its definition, one line at a time: lines end in LF
    or CRLF, the last line end is optional and trailing empty lines are
    ignored; the header is ``uso``, one space and ASCII digits naming n in
    1..MAX_DIMENSION; each of the 2**n outmap lines is ASCII digits with a
    value of at most 2**n - 1. Then :func:`first_edge_violation_pure`.
    Raises ``ParseError`` with the loader's messages, in its order."""
    *ended, last = text.split("\n")
    lines = [line.removesuffix("\r") for line in ended] + ([last] if last else [])
    if not lines:
        raise ParseError("line 1: empty input, expected 'uso <n>' header")
    header = lines[0].split(" ")
    if len(header) != 2 or header[0] != "uso":
        raise ParseError("line 1: expected 'uso <n>' header")
    if not (header[1].isascii() and header[1].isdigit()):
        raise ParseError("line 1: dimension is not an integer")
    n = int(header[1])
    if not 1 <= n <= MAX_DIMENSION:
        raise ParseError(f"line 1: dimension must be in 1..{MAX_DIMENSION}")
    body = lines[1:]
    while body and body[-1] == "":
        body.pop()
    if len(body) != 1 << n:
        raise ParseError(
            f"line {len(lines)}: expected {1 << n} outmap lines for n={n}, "
            f"got {len(body)}"
        )
    values = []
    for k, raw in enumerate(body, start=2):
        # str.isdigit alone also takes digits such as "\u0663" and "\u00b2"
        if not (raw.isascii() and raw.isdigit()):
            raise ParseError(f"line {k}: not a decimal outmap value: {raw!r}")
        value = int(raw)
        if value > full_mask(n):
            raise ParseError(f"line {k}: outmap value {value} out of range")
        values.append(value)
    o = Orientation(n, values)
    bad = first_edge_violation_pure(o)
    if bad is not None:
        v, j = bad
        raise ParseError(
            f"line {v + 2}: edge-inconsistent table (vertex {v}, coordinate {j})"
        )
    return o


def dumps_text_by_lines(o: Orientation) -> str:
    """USO-TEXT v1 as one list of 2**n + 1 lines joined at once, the
    writer that :func:`usolib.io.dumps_text` builds in blocks."""
    lines = [f"uso {o.n}"]
    lines.extend(map(str, o.outmap.tolist()))
    return "\n".join(lines) + "\n"


def analyze_text_by_lines(o: Orientation, report, acyclic: bool, decomposable: bool) -> str:
    """``uso analyze``'s text for a niceness report, one line per vertex
    through :func:`~usolib.bitops.format_coord_set`, the rendering that
    ``cli`` builds in blocks from two half tables."""
    lines = [
        f"n: {o.n}",
        "uso: true",
        f"acyclic: {str(acyclic).lower()}",
        f"decomposable: {str(decomposable).lower()}",
        f"sink: {report.sink}",
        f"niceness_index: {report.niceness_index}",
        "vertex outmap reachmap cover_distance witness",
    ]
    for v in range(o.vertex_count()):
        d, w = int(report.cover_distance[v]), int(report.witness[v])
        if v == report.sink:
            d = w = "-"
        lines.append(f"{v} {format_coord_set(o.out(v))} {format_coord_set(report.reach[v])} {d} {w}")
    return "\n".join(lines) + "\n"


def uso_by_face_scan_pure(o: Orientation) -> bool:
    """Definition-level unique-sink check, no numpy."""
    n = o.n
    full = full_mask(n)
    for span in range(1, full + 1):
        for anchor in submasks(full ^ span):
            count = 0
            for sub in submasks(span):
                if o.out(anchor | sub) & span == 0:
                    count += 1
                    if count > 1:
                        return False
            if count != 1:
                return False
    return True


def first_uso_violation_by_face_scan(o: Orientation) -> tuple[Face, int] | None:
    """First face (ordered by span then anchor) with sink count != 1, by
    one sink count per anchor for every span: O(4^n)."""
    n = o.n
    full = full_mask(n)
    table = o.outmap
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


def flipped_edge(o: Orientation, v: int, j: int) -> Orientation:
    """``o`` with the edge at vertex v along coordinate j reversed, whether
    or not the result is a USO."""
    table = o.outmap.copy()
    table[[v, v ^ bit(j)]] ^= bit(j)
    return Orientation(o.n, table)


def uso_by_pairwise(o: Orientation) -> bool:
    """Unique-sink check via the pairwise outmap criterion (Szabo & Welzl):
    for every pair of distinct vertices u, v the sets s(u) xor s(v) and
    u xor v must intersect."""
    table = o.outmap.astype(np.uint32)
    size = table.size
    verts = np.arange(size, dtype=np.uint32)
    # chunk rows to keep the pairwise matrices modest at larger n
    chunk = max(1, min(size, (1 << 22) // size))
    for lo in range(0, size, chunk):
        hi = min(size, lo + chunk)
        s_diff = table[lo:hi, None] ^ table[None, :]
        v_diff = verts[lo:hi, None] ^ verts[None, :]
        ok = (s_diff & v_diff) != 0
        # the diagonal (u == v) is exempt
        rows = np.arange(lo, hi)
        ok[rows - lo, rows] = True
        if not ok.all():
            return False
    return True


def klee_minty_by_definition(n: int) -> Orientation:
    """Klee-Minty table from its definition: coordinate i is outgoing at v
    iff v has an odd number of coordinates >= i."""
    table = []
    for v in range(1 << n):
        s = 0
        for i in range(1, n + 1):
            if sum(1 for k in range(i, n + 1) if v & bit(k)) % 2:
                s |= bit(i)
        table.append(s)
    return Orientation(n, table)


def klee_minty_by_shifts(n: int) -> Orientation:
    """Klee-Minty table as the xor of v >> k for k = 0..n-1: bit i-1 of
    v >> k is coordinate i + k of v, so bit i-1 of the xor is the parity
    of v's coordinates >= i."""
    verts = np.arange(1 << n, dtype=np.uint32)
    table = verts.copy()
    for k in range(1, n):
        table ^= verts >> np.uint32(k)
    return Orientation(n, table)


def auso_lower_bound_by_flips(n: int) -> Orientation:
    """``auso_lower_bound`` as a chain of checked ``flip_edge`` calls, each
    returning a new orientation, with its last step found by scanning all
    2^n vertices."""
    full = full_mask(n)
    o = uniform(n)

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


def hypersink_reorient_by_vertices(o: Orientation, sub: Face, replacement: Orientation):
    """``hypersink_reorient`` one vertex at a time: the face's vertices are
    checked in ascending order, then replacement vertex w is written to
    ``sub.anchor | mask_deposit(w, sub.span)``."""
    if replacement.n != sub.dimension:
        raise ValueError(f"replacement dimension {replacement.n} != face dimension {sub.dimension}")
    for offset in submasks(sub.span):
        v = sub.anchor | offset
        if o.out(v) & ~sub.span:
            raise HypersinkViolated(f"vertex {v} has outgoing edges leaving the subcube")
    table = o.outmap.copy()
    for w in range(replacement.vertex_count()):
        table[sub.anchor | mask_deposit(w, sub.span)] = mask_deposit(replacement.out(w), sub.span)
    return Orientation(o.n, table)


def target_combed_by_steps(n: int, fiber_choices) -> Orientation:
    """``target_combed`` grown one coordinate at a time, with an
    ``Orientation`` per step."""
    current = reverse_orientation(uniform(1))  # sink at the empty vertex
    for k in range(1, n):
        upper = fiber_choices[k - 1]
        top = np.uint32(bit(k + 1))
        table = np.concatenate([current.outmap, upper.outmap | top])
        current = Orientation(k + 1, table)
    return current


def random_maximal_matching_by_list(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Greedy maximal matching over a seeded shuffle of all cube edges."""
    edges = [(v, j) for v in range(1 << n) for j in range(1, n + 1) if not (v >> (j - 1)) & 1]
    shuffle(edges, rng)
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


def fmo_by_list(n: int, rng: SplitMix64) -> Orientation:
    """FMO over :func:`random_maximal_matching_by_list`, each edge flipped
    by its own pair of xors."""
    table = uniform(n).outmap.copy()
    for v, j in random_maximal_matching_by_list(n, rng):
        table[v] ^= np.uint32(bit(j))
        table[v ^ bit(j)] ^= np.uint32(bit(j))
    return Orientation(n, table)


def cube_edges(n: int) -> list[tuple[int, int]]:
    """All edges as (lower endpoint, coordinate)."""
    return [
        (v, j)
        for v in range(1 << n)
        for j in range(1, n + 1)
        if not (v >> (j - 1)) & 1
    ]


def orientation_from_edge_bits(n: int, edges, bits) -> Orientation:
    """Build a table from one direction bit per edge (1 = forward)."""
    table = [0] * (1 << n)
    for (v, j), b in zip(edges, bits):
        if b:
            table[v] |= bit(j)
        else:
            table[v ^ bit(j)] |= bit(j)
    return Orientation(n, table)


def enumerate_all_by_backtracking(n: int, visitor=None) -> int:
    """Every USO of dimension n, vertex by vertex: bits on coordinates
    already in the vertex are forced by edge consistency with lower
    neighbors, the rest are branched over in ascending order and pruned
    with the pairwise criterion against all fixed vertices."""
    size = 1 << n
    full = size - 1
    table = [0] * size
    count = 0

    def assign(v: int) -> None:
        nonlocal count
        if v == size:
            count += 1
            if visitor is not None:
                visitor(Orientation(n, table))
            return
        forced = 0
        b = v
        while b:
            low = b & -b
            b ^= low
            if not table[v ^ low] & low:
                forced |= low
        for f in submasks(full & ~v):
            cand = forced | f
            ok = True
            for u in range(v):
                if not (table[u] ^ cand) & (u ^ v):
                    ok = False
                    break
            if ok:
                table[v] = cand
                assign(v + 1)
        table[v] = 0

    assign(0)
    return count


def brute_force_usos(n: int):
    """Every USO of dimension n <= 3, by filtering all edge orientations
    through the pure face scan."""
    edges = cube_edges(n)
    for bits in itertools.product((0, 1), repeat=len(edges)):
        o = orientation_from_edge_bits(n, edges, bits)
        if uso_by_face_scan_pure(o):
            yield o


def reachable_vertices(o: Orientation, v: int) -> int:
    """Bitset (over vertex indices) of everything reachable from v."""
    seen = 1 << v
    stack = [v]
    while stack:
        x = stack.pop()
        s = o.out(x)
        while s:
            low = s & -s
            s ^= low
            w = x ^ low
            if not (seen >> w) & 1:
                seen |= 1 << w
                stack.append(w)
    return seen


def reachmap_bruteforce(o: Orientation, v: int) -> int:
    """Reachmap from the definition: union of outmaps over reachable set."""
    seen = reachable_vertices(o, v)
    acc = 0
    for w in range(o.vertex_count()):
        if (seen >> w) & 1:
            acc |= o.out(w)
    return acc


def reach_table_bruteforce(o: Orientation) -> list[int]:
    """:func:`reachmap_bruteforce` of every vertex, in vertex order: what
    ``reach_table(o).entries.tolist()`` must equal."""
    return [reachmap_bruteforce(o, v) for v in range(o.vertex_count())]


def fs_revisited_by_loop(o: Orientation, start: int) -> tuple[int, tuple, tuple]:
    """The restarted seesaw by its definition, on a USO: while the current
    vertex v has an outgoing coordinate, cross its lowest one and take the
    :func:`fibonacci_seesaw` sink of the face spanned by the coordinates
    crossed so far through the vertex beyond. Returns the sink, the
    (coordinate, face dimension) of every iteration, and the
    :func:`reachmap_bruteforce` size of the start and of every vertex
    reached."""
    v, spanned = start, 0
    steps, sizes = [], [popcount(reachmap_bruteforce(o, v))]
    while o.out(v):
        b = o.out(v) & -o.out(v)
        steps.append((b.bit_length(), popcount(spanned)))
        v, _ = fibonacci_seesaw(o, Face(v ^ b, spanned))
        spanned |= b
        sizes.append(popcount(reachmap_bruteforce(o, v)))
    return v, tuple(steps), tuple(sizes)


def cover_search_bfs(o: Orientation, t, v: int) -> tuple[int, int]:
    """(distance, witness) of the closest vertex reachable from v whose
    reachmap in table t is a proper subset of v's, by BFS from v; the witness
    is the smallest vertex index at the minimal distance."""
    rv = t[v]
    seen = 1 << v
    frontier = [v]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for u in frontier:
            s = o.out(u)
            while s:
                low = s & -s
                s ^= low
                w = u ^ low
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    nxt.append(w)
        hits = [w for w in nxt if t[w] != rv and t[w] & ~rv == 0]
        if hits:
            return dist, min(hits)
        frontier = nxt
    raise ValueError(f"vertex {v} has no cover; input is not a USO")


def bfs_distance_in_face(o: Orientation, f: Face, src: int, dst: int) -> int | None:
    """Directed BFS distance from src to dst staying inside the face."""
    if src == dst:
        return 0
    seen = {src}
    frontier = [src]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for x in frontier:
            s = o.out(x) & f.span
            while s:
                low = s & -s
                s ^= low
                w = x ^ low
                if w == dst:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def random_consistent_table(n: int, rng: SplitMix64) -> Orientation:
    """Uniformly random edge-consistent outmap table (usually not a USO)."""
    table = [0] * (1 << n)
    for v, j in cube_edges(n):
        if randrange(rng, 2):
            table[v] |= bit(j)
        else:
            table[v ^ bit(j)] |= bit(j)
    return Orientation(n, table)


def kth_set_bit_by_loop(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The k-th lowest set bit of each ``s`` as a mask: clear the k lowest
    set bits, one ``np.where`` pass per value of k, and keep the lowest
    bit left."""
    for i in range(int(k.max(initial=0))):
        s = np.where(k > i, s & (s - 1), s)
    return s & -s


@dataclass(frozen=True)
class WalkRun:
    """Outcome of one walk run by a per-step loop; ``found_sink`` is None
    when the walk was capped."""

    steps: int
    evaluations: int
    found_sink: int | None
    seed: int
    capped: bool


def random_edge_walk_by_loop(
    o: Orientation, start: int, seed: int, cap: int
) -> WalkRun:
    """Random Edge one step at a time: step t crosses the outgoing edge
    with index (value t of the seed's stream) mod |s(v)|, counted from the
    lowest coordinate; the evaluations are the distinct vertices entered."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    v = start
    steps = 0
    visited = 1 << v
    evals = 1
    while True:
        s = o.out(v)
        if s == 0:
            return WalkRun(steps, evals, v, seed, False)
        if steps >= cap:
            return WalkRun(steps, evals, None, seed, True)
        z = stream_value(seed, steps)
        bits = []
        b = s
        while b:
            low = b & -b
            bits.append(low)
            b ^= low
        v ^= bits[z % len(bits)]
        steps += 1
        if not (visited >> v) & 1:
            visited |= 1 << v
            evals += 1


def bottom_antipodal_by_loop(o: Orientation, start: int, cap: int) -> WalkRun:
    """Bottom Antipodal one step at a time: v <- v xor s(v) until the sink
    or the cap."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    v = start
    steps = 0
    visited = 1 << v
    evals = 1
    while True:
        s = o.out(v)
        if s == 0:
            return WalkRun(steps, evals, v, 0, False)
        if steps >= cap:
            return WalkRun(steps, evals, None, 0, True)
        v ^= s
        steps += 1
        if not (visited >> v) & 1:
            visited |= 1 << v
            evals += 1


def neighbor_join_by_snapshots(oracle: EvalCounter, v: int) -> int:
    """Join all out-neighbors of ``v`` using at most |s(v)| evaluations
    beyond knowing s(v) itself, counted by ``oracle``.

    Keeps a set of active coordinates (initially s(v)) and the matching
    out-neighbors. A coordinate l is dropped as soon as some other active
    neighbor u has l incoming, because the neighbor across l then has a
    path to u inside their shared 2-face. If an active neighbor becomes the
    sink of the face spanned by the active coordinates, it joins everything;
    otherwise every remaining neighbor is the source of its face and the
    vertex across all active coordinates is returned.
    """
    sv = oracle(v)
    if sv == 0:
        raise ValueError("neighbor_join is undefined at the sink")
    neighbor_out = {}
    b = sv
    while b:
        low = b & -b
        b ^= low
        neighbor_out[low] = oracle(v ^ low)
    ac = sv
    while True:
        changed = False
        snapshot = []
        b = ac
        while b:
            low = b & -b
            b ^= low
            snapshot.append(low)
        for lu in snapshot:
            if not ac & lu:
                continue
            su = neighbor_out[lu]
            if su & ac == 0:
                return v ^ lu
            for l in snapshot:
                if l == lu or not ac & l:
                    continue
                if not su & l:
                    ac ^= l
                    changed = True
            if su & ac == 0:
                return v ^ lu
        if not changed:
            break
    return v ^ ac


def derandomized_re_by_loops(o: Orientation, start: int) -> RunStats:
    """Deterministic sink search driven by joins.

    Round structure, at covering radius i: collect the ball of vertices
    within directed distance i-1 of the current vertex, join each member's
    out-neighborhood, then join those results into a single vertex z that
    everything within distance i can reach. On an orientation where the
    current vertex is i-covered, z has a strictly smaller reachmap, so at
    most n productive rounds happen per radius. When a round makes no
    certifiable progress (z repeats an earlier vertex), the radius is
    deepened; radius n always suffices. ``steps`` counts join rounds.
    """
    oracle = EvalCounter(o)
    if oracle(start) == 0:
        return RunStats(0, oracle.evaluations, start)
    v = start
    rounds = 0
    for radius in range(1, o.n + 1):
        visited = {v}
        while True:
            ball = [v]
            seen = {v}
            frontier = [v]
            sink = None
            for _ in range(radius - 1):
                nxt = []
                for u in frontier:
                    s = oracle(u)
                    while s:
                        low = s & -s
                        s ^= low
                        w = u ^ low
                        if w in seen:
                            continue
                        seen.add(w)
                        if oracle(w) == 0:
                            sink = w
                            break
                        nxt.append(w)
                        ball.append(w)
                    if sink is not None:
                        break
                if sink is not None:
                    break
                frontier = nxt
            if sink is not None:
                return RunStats(rounds, oracle.evaluations, sink)
            joined = set()
            for u in sorted(ball):
                joined.add(neighbor_join_by_snapshots(oracle, u))
            z = join_set(oracle, sorted(joined))
            rounds += 1
            if oracle(z) == 0:
                return RunStats(rounds, oracle.evaluations, z)
            if z == v or z in visited:
                v = z
                break
            visited.add(z)
            v = z
    face, count = first_uso_violation_by_face_scan(o)
    raise NotUSOError(face=face, count=count)


def certificate_holds(o: Orientation, exc) -> bool:
    """True iff the certificate a ``NotUSOError`` carries is genuine: a pair
    of distinct vertices whose outmaps agree wherever the vertices differ,
    or a face with exactly ``count`` (!= 1) sinks, counted vertex by vertex.
    An error without a certificate does not hold."""
    if exc.pair is not None:
        u, v = exc.pair
        return exc.face is None and u != v and (u ^ v) & (o.out(u) ^ o.out(v)) == 0
    if exc.face is not None:
        span, anchor = exc.face.span, exc.face.anchor
        sinks = sum(1 for sub in submasks(span) if o.out(anchor | sub) & span == 0)
        return sinks == exc.count != 1
    return False


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
    for perm in itertools.permutations(range(n)):
        pmask = _permute_mask_table(n, perm)
        for m in range(size):
            yield [pmask[v] ^ m for v in range(size)], pmask


def canonical_form_by_loop(o: Orientation) -> Orientation:
    """Least relabelled outmap table, one automorphism at a time."""
    size = o.vertex_count()
    table = [o.out(v) for v in range(size)]
    best = None
    for vertex_map, coord_map in hypercube_automorphisms(o.n):
        inverse = [0] * size
        for v, w in enumerate(vertex_map):
            inverse[w] = v
        candidate = tuple(coord_map[table[inverse[w]]] for w in range(size))
        if best is None or candidate < best:
            best = candidate
    return Orientation(o.n, best)


def _combed_direction(o: Orientation, f: Face, j: int) -> int:
    """-1 if coordinate j is not combed in face f; else 0/1 for the shared
    direction bit (1 means edges point from the j=0 side to the j=1 side)."""
    b = bit(j)
    lower = Face(f.anchor, f.span & ~b)
    direction = -1
    for offset in submasks(lower.span):
        d = 1 if o.out(lower.anchor | offset) & b else 0
        if direction < 0:
            direction = d
        elif d != direction:
            return -1
    return direction


def is_decomposable_by_recursion(o: Orientation) -> bool:
    """Decomposability from the definition: a face of dimension >= 2 is
    decomposable when some combed coordinate splits it into two
    decomposable halves; tries every combed coordinate, memoised per face."""
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


def is_acyclic_by_reachability(o: Orientation) -> bool:
    """True iff no out-neighbour of any vertex reaches that vertex back."""
    for v in range(o.vertex_count()):
        s = o.out(v)
        for j in coords(s):
            if (reachable_vertices(o, v ^ bit(j)) >> v) & 1:
                return False
    return True


def niceness_by_python_sweep(o: Orientation, reach) -> tuple:
    """(sink, cover distances, witnesses, niceness index) by the level sweep
    over the reach table ``reach`` (indexable by vertex) in pure python:
    level 1 takes the smallest out-neighbour with another reachmap, level
    L the smallest witness among out-neighbours at level L - 1, found by
    following in-edges from the level L - 1 frontier. Distances and
    witnesses are lists, with 0 and -1 at the sink. Raises ValueError on
    other than one sink or on a vertex without cover."""
    table = [o.out(v) for v in range(o.vertex_count())]
    size = len(table)
    sinks = [v for v in range(size) if table[v] == 0]
    if len(sinks) != 1:
        raise ValueError(f"{len(sinks)} sinks")
    sink = sinks[0]
    full = full_mask(o.n)
    dists: list[float] = [0] * size
    wits: list[int | None] = [None] * size
    dists[sink] = math.inf
    frontier = []
    for v in range(size):
        best = size
        for j in coords(table[v]):
            w = v ^ bit(j)
            if w < best and reach[w] != reach[v]:
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
            for j in coords(full ^ table[u]):
                v = u ^ bit(j)
                if dists[v] == 0 and found.get(v, size) > wits[u]:
                    found[v] = wits[u]
        for v, w in found.items():
            dists[v] = level
            wits[v] = w
        frontier = list(found)
    if 0 in dists:
        raise ValueError(f"vertex {dists.index(0)} has no cover")
    dists[sink], wits[sink] = 0, -1
    return sink, dists, wits, level - 1


def re_expectation_by_solve(o: Orientation) -> np.ndarray:
    """Expected number of Random Edge steps to the sink from every vertex,
    for n <= 8: E(sink) = 0 and E(v) = 1 + the mean of E(v xor e_j) over
    j in s(v), solved as one linear system by ``np.linalg.solve``."""
    if o.n > 8:
        raise ValueError(f"a dense solve is meant for n <= 8, got {o.n}")
    size = o.vertex_count()
    system = np.eye(size)
    steps = np.ones(size)
    for v in range(size):
        s = o.out(v)
        if s == 0:
            steps[v] = 0.0
        for j in coords(s):
            system[v, v ^ bit(j)] -= 1 / s.bit_count()
    return np.linalg.solve(system, steps)
