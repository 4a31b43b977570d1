"""Independent oracles used to cross-check the library.

Everything here is deliberately written from the definitions, without
reusing the library's fast paths: a pure-python edge check and face scan,
the pairwise unique-sink criterion, the Klee-Minty table, per-vertex
reachability sets, BFS distances, and brute-force enumeration over raw edge
orientations.
"""

from __future__ import annotations

import itertools

import numpy as np

from usolib.bitops import bit, coords, full_mask, submasks
from usolib.core import Face, Orientation
from usolib.rng import SplitMix64


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
        if rng.randrange(2):
            table[v] |= bit(j)
        else:
            table[v ^ bit(j)] |= bit(j)
    return Orientation(n, table)


def one_nice_direct(o: Orientation) -> bool:
    """1-niceness from the definition, via brute-force reachmaps."""
    size = o.vertex_count()
    rm = [reachmap_bruteforce(o, v) for v in range(size)]
    for v in range(size):
        s = o.out(v)
        if s == 0:
            continue
        ok = False
        for j in coords(s):
            w = v ^ bit(j)
            if rm[w] != rm[v] and rm[w] & ~rm[v] == 0:
                ok = True
                break
        if not ok:
            return False
    return True
