"""Sink-finding algorithms and their instrumentation.

Random Edge and Bottom Antipodal (seeded walks run in batches by one
lockstep engine that branches on the rule), join operations, a deterministic
replacement for Random Edge built from joins, the Fibonacci Seesaw, and
the restarted seesaw that is bounded by the reachmap of the start vertex.
Every algorithm counts distinct vertex evaluations through a caching
oracle, and the joins and oracle solvers read the cube only through it:
their records hold vertices and counts, and a caller that wants reachmap
sizes along a seesaw trace reads the whole trace with one
:func:`~usolib.reach.reachmaps` call. When a join or seesaw step finds no
way forward, it raises ``NotUSOError`` naming a vertex pair whose outmaps
agree wherever the vertices differ; only a non-USO has such a pair.

Every start that :func:`resolve_start` or :func:`walk_batch` resolves first
passes the outmap gate :func:`~usolib.core.sink_and_source`. The oracle
solvers (:func:`derandomized_re`, :func:`fibonacci_seesaw`,
:func:`fs_revisited`) pass no gate on purpose: they read only the vertices
they evaluate, so on a table that is not a USO they either raise their own
``NotUSOError`` or return a vertex (``fs_revisited`` from 4..7 returns 7 on
``[5, 6, 6, 5, 3, 2, 1, 0]``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .bitops import full_mask
from .core import EvalCounter, Face, NotUSOError, Orientation, first_uso_violation, sink_and_source
from .rng import _MASK64, derive_seeds_np, start_values_np, stream_block


@dataclass(frozen=True)
class RunStats:
    """Outcome of one :func:`derandomized_re` run: join rounds, distinct
    evaluations and the sink found."""

    steps: int
    evaluations: int
    found_sink: int


@dataclass(frozen=True)
class SeesawTrace:
    """Record of one :func:`fs_revisited` run: the start and the face sink
    reached after each iteration, the coordinate each iteration crossed and
    the evaluations it spent, and the run's total. Iteration i solves a face
    of dimension i."""

    vertices: tuple[int, ...]
    coordinates: tuple[int, ...]
    step_evaluations: tuple[int, ...]
    evaluations: int


@dataclass(frozen=True)
class WalkBatch:
    """Raw per-trial results of a batch of walks."""

    seeds: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    evaluations: np.ndarray
    found: np.ndarray  # -1 when capped

    @property
    def capped(self) -> np.ndarray:
        return self.found < 0


def _select_table() -> np.ndarray:
    """The flat select table whose entry 12x + i is the i-th lowest set bit
    of the 12-bit value x as a mask (0 past the last one)."""
    x = np.arange(1 << 12, dtype=np.uint32)
    bits = (x[:, None] >> np.arange(12, dtype=np.uint32)) & np.uint32(1)
    rows, cols = bits.nonzero()
    rank = bits.cumsum(axis=1)[rows, cols] - 1  # bit cols is set bit rank of x
    select = np.zeros((x.size, 12), dtype=np.uint32)
    select[rows, rank] = np.uint32(1) << cols.astype(np.uint32)
    return select.reshape(-1)


_SELECT12 = _select_table()
_LOW12 = np.uint32(0xFFF)
_TWELVE = np.uint32(12)


def _kth_set_bit(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The k-th lowest set bit of each uint32 ``s`` < 2^24 as a mask, for
    k < popcount(s): the low 12-bit half holds it when k is below that
    half's popcount c, else the high half holds it as its own set bit
    k - c. ``k`` is cast to uint32 once, so every step stays in uint32."""
    k = k.astype(np.uint32, copy=False)
    c = np.bitwise_count(s & _LOW12)
    high = k >= c
    shift = high * _TWELVE
    half = (s >> shift) & _LOW12
    return _SELECT12.take(half * _TWELVE + (k - high * c)) << shift


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``: what ``np.unique`` returns,
    by sorting and keeping each key that differs from the one before it.
    The sort is numpy's stable one, a merge sort that finds sorted runs:
    the walk log it folds is a few sorted arrays laid end to end, and at
    100 000 trials on km 12 its sorts took 53 ms in place of 72 ms."""
    keys = np.sort(keys, kind="stable")
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


#: a Random Edge walk draws its stream values for this many steps at once
_BLOCK = 32


def _walk_lockstep(
    o: Orientation,
    starts: np.ndarray,
    seeds: np.ndarray,
    cap: int,
    bottom_antipodal: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials advance in lockstep; trial k's walk depends only on its
    start and seed, so it is the same walk as a batch of that one trial.
    With ``bottom_antipodal`` a step crosses every outgoing edge (v <- v
    xor s(v)), and seeds only pick starts. Otherwise it is a Random Edge
    step: step t crosses the k-th lowest outgoing edge, k = z mod |s(v)|
    for value z of the trial's stream at index t, picked by
    :func:`_kth_set_bit` in uint32 in a fixed number of numpy calls.

    The values z come in blocks. At every step t that is a multiple of
    ``_BLOCK`` = 32, :func:`~usolib.rng.stream_block` draws values
    t..t+31 of the stream of every trial still walking, one row per step,
    and gives each trial a column ``col``; step t reads row t mod 32
    through ``col``. When trials stop, ``col`` is compacted along with
    ``active`` and ``cur``, and the block is never copied (copying it at
    each compaction made batches of 10 000 and more trials slower). So a
    Random Edge step makes 22 numpy calls: the lookup, the zero test, two
    to read the block, two for the modulus, 12 in the pick and one for its
    cast, the move, and two for the log key; a block adds 15 calls per 32
    steps. Drawing each step's values afresh took 29 calls, 10 of them for
    the draw (the seed gather, the add and eight mixer calls), and built
    ten numpy scalars. The per-step count is what matters, since a step
    costs it however few trials still walk.

    Every vertex a trial enters is logged as the key trial * 2^n + vertex.
    The log is folded into the sorted distinct keys ``seen`` whenever it
    outgrows them (plus one key per trial), so memory follows the distinct
    (trial, vertex) pairs rather than the steps; a trial's evaluations are
    its number of distinct keys. The fold sorts and drops repeats rather
    than calling ``np.unique``, whose hash path is several times slower on
    int64 keys. A trial that hits the cap keeps ``found`` at -1.

    A Bottom Antipodal step depends on the vertex alone, so a trial that
    re-enters a vertex is in a cycle: it never reaches a sink, and every
    vertex it would enter before the cap is already logged. Such trials
    are retired at once with ``steps = cap``, the record a run to the cap
    gives them, so the batch stops stepping when only cycling trials are
    left. Cycles are caught as in Brent's method: the vertex of each trial
    is saved at every power-of-two step and compared with the vertex after
    each later step.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap >= 1 << 63:  # steps are int64
        raise ValueError("cap must be <= 2^63 - 1")
    n = o.n
    table = o.outmap
    count = starts.size
    steps = np.zeros(count, dtype=np.int64)
    found = np.full(count, -1, dtype=np.int64)
    active = np.arange(count, dtype=np.int64)
    cur = starts.copy()
    saved = starts.copy()
    col = active  # replaced at the first Random Edge step
    seen = (active << n) | cur
    log: list[np.ndarray] = []
    logged = 0
    t = 0
    while True:
        s = table[cur]
        if np.count_nonzero(s) < s.size:
            stopped = s == 0
            walking = ~stopped
            done = active[stopped]
            found[done] = cur[stopped]
            steps[done] = t
            active, cur, s = active[walking], cur[walking], s[walking]
            if not bottom_antipodal:
                col = col[walking]
        if not active.size:
            break
        if t >= cap:
            steps[active] = t
            break
        if bottom_antipodal:
            cur ^= s
        else:
            row = t % _BLOCK
            if row == 0:
                block, col = stream_block(seeds[active], t, _BLOCK), np.arange(active.size)
            cur ^= _kth_set_bit(s, block[row].take(col) % np.bitwise_count(s))
        t += 1
        log.append((active << n) | cur)
        logged += active.size
        if logged > seen.size + count:
            seen = _distinct_sorted(np.concatenate([seen, *log]))
            log, logged = [], 0
        if bottom_antipodal:
            cycling = cur == saved[active]
            if cycling.any():
                steps[active[cycling]] = cap
                active, cur = active[~cycling], cur[~cycling]
            if t & (t - 1) == 0:
                saved[active] = cur
    seen = _distinct_sorted(np.concatenate([seen, *log]))
    return steps, np.bincount(seen >> n, minlength=count), found


def resolve_start(o: Orientation, policy: int | str, seed: int = 0) -> int:
    """Resolve a start policy for a single run: a vertex (any integer, numpy
    ones included), "source", "antipodal" (the vertex opposite the sink) or
    "random" (a draw of ``seed``). Every policy first passes
    :func:`sink_and_source`'s gate, so it raises ``NotUSOError`` unless the
    outmap is a bijection.
    """
    return int(_starts_array(o, policy, np.array([seed & _MASK64], dtype=np.uint64))[0])


def _starts_array(o: Orientation, policy: int | str, seeds: np.ndarray) -> np.ndarray:
    sink, source = sink_and_source(o)
    if policy == "random":
        return (start_values_np(seeds) % np.uint64(o.vertex_count())).astype(np.int64)
    if policy == "source":
        vertex = source
    elif policy == "antipodal":
        vertex = sink ^ full_mask(o.n)
    else:
        try:
            vertex = operator.index(policy)
        except TypeError:
            raise ValueError(f"unknown start policy {policy!r}") from None
        if not 0 <= vertex < o.vertex_count():
            raise ValueError(f"start vertex {vertex} out of range")
    return np.full(seeds.size, vertex, dtype=np.int64)


def walk_batch(
    o: Orientation,
    algo: str,
    start_policy: int | str,
    trials: int,
    seed: int,
    cap: int,
) -> WalkBatch:
    """Run ``trials`` independent Random Edge ("re") or Bottom Antipodal
    ("ba") walks with per-trial derived seeds, each from the vertex that
    :func:`resolve_start` gives (a "random" start draws one per trial), so
    every start passes the gate. A single walk is a batch of one.

    Trial k depends only on the master seed and k, so the first k trials of
    a larger batch equal a batch of k.
    """
    # the gate comes first, so a non-USO is reported before a bad argument
    seeds = derive_seeds_np(seed, trials)
    starts = _starts_array(o, start_policy, seeds)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if algo not in ("re", "ba"):
        raise ValueError(f"unknown walk algorithm {algo!r}")
    steps, evals, found = _walk_lockstep(o, starts, seeds, cap, algo == "ba")
    return WalkBatch(seeds, starts, steps, evals, found)


def markov_upper_bound(n: int, i: int) -> int:
    """Exact value of n * sum_{k=1..i} n**k, the expected-step budget the
    distance-to-target chain gives for orientations of niceness i."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return n * sum(n**k for k in range(1, i + 1))


def join_pair(oracle: EvalCounter, u: int, v: int) -> int:
    """A vertex reachable from both ``u`` and ``v`` by directed paths in
    the orientation that ``oracle`` evaluates.

    At each move the two current vertices differ in some coordinate that is
    outgoing for exactly one of them (the smallest such coordinate is used);
    that endpoint steps across it, clearing one bit of u xor v, so the join
    takes exactly |u xor v| moves and at most |u xor v| + 1 evaluations,
    counted by ``oracle``. Raises ``NotUSOError`` naming the pair when no
    such coordinate exists, which only a non-USO allows.
    """
    while u != v:
        su = oracle(u)
        sv = oracle(v)
        cand = (su ^ sv) & (u ^ v)
        if cand == 0:
            raise NotUSOError(pair=(u, v))
        b = cand & -cand
        if su & b:
            u ^= b
        else:
            v ^= b
    return u


def join_set(oracle: EvalCounter, vertices) -> int:
    """Fold of :func:`join_pair`: a vertex every input can reach."""
    items = list(vertices)
    if not items:
        raise ValueError("join_set needs at least one vertex")
    w = items[0]
    for x in items[1:]:
        w = join_pair(oracle, w, x)
    return w


def _single_bits(mask: int):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def neighbor_join(oracle: EvalCounter, v: int) -> int:
    """Join all out-neighbors of ``v`` using at most |s(v)| evaluations
    beyond knowing s(v) itself, counted by ``oracle``.

    Evaluates every out-neighbor, then shrinks the active coordinates ac
    (initially s(v)) to a fixed point. Each pass visits the coordinates
    active at its start in ascending order. A still active l whose neighbor
    v ^ l has no active coordinate outgoing is the sink of the face spanned
    by ac, so it joins everything and is returned. Otherwise ac keeps only
    l and the coordinates outgoing at v ^ l: the neighbor across a dropped
    coordinate has a path to v ^ l inside their shared 2-face. When a pass
    drops nothing, every active neighbor is the source of its face, and the
    vertex across all of ac is returned.
    """
    sv = oracle(v)
    if sv == 0:
        raise ValueError("neighbor_join is undefined at the sink")
    out = {l: oracle(v ^ l) for l in _single_bits(sv)}
    ac = sv
    while True:
        start = ac
        for l in _single_bits(start):
            if ac & l:
                if out[l] & ac == 0:
                    return v ^ l
                ac &= out[l] | l
        if ac == start:
            return v ^ ac


def derandomized_re(o: Orientation, start: int) -> RunStats:
    """Deterministic sink search driven by joins.

    Round structure, at covering radius i: search the vertices within
    directed distance i-1 of the current vertex, returning at once if one is
    the sink; join each one's out-neighborhood, then join those results, in
    ascending order, into a single vertex z that everything within distance
    i can reach. On an orientation where the current vertex is i-covered, z
    has a strictly smaller reachmap, so at most n productive rounds happen
    per radius. When z repeats a vertex of this radius, the radius is
    deepened. No USO has been seen to deepen it: none at n <= 3 from any
    start, nor the seven ``uso gen`` families at n = 4..8 (seeds 0 and 1,
    eight fixed starts; both tested) or at n = 4..12 (seeds 0-3, 40
    random starts, a one-off run). On a USO radius n always suffices, so a
    search that exhausts all radii raises ``NotUSOError`` with the least
    bad face. ``steps`` counts join rounds.

    The rounds stay within |R(start)| + 1. Tested on every USO of n <= 3
    from every start and on the seven families at n = 3..12 (seeds 0-2,
    twelve starts each): 53 of those 8 488 runs reach the + 1. A round
    need not shrink the reachmap, though: up to three rounds of one run
    left it unchanged.
    """
    oracle = EvalCounter(o)
    if oracle(start) == 0:
        return RunStats(0, oracle.evaluations, start)
    v = start
    rounds = 0
    for radius in range(1, o.n + 1):
        visited = {v}
        while True:
            seen = {v}
            frontier = [v]
            for _ in range(radius - 1):
                nxt = []
                for u in frontier:
                    for l in _single_bits(oracle(u)):
                        w = u ^ l
                        if w not in seen:
                            seen.add(w)
                            if oracle(w) == 0:
                                return RunStats(rounds, oracle.evaluations, w)
                            nxt.append(w)
                frontier = nxt
            joined = {neighbor_join(oracle, u) for u in seen}
            z = join_set(oracle, sorted(joined))
            rounds += 1
            if oracle(z) == 0:
                return RunStats(rounds, oracle.evaluations, z)
            v = z
            if z in visited:
                break
            visited.add(z)
    # unreachable on a USO: radius n suffices
    raise first_uso_violation(o) or AssertionError("derandomized_re exhausted all radii on a USO")


def _fs(oracle: EvalCounter, anchor: int, span: int) -> int:
    """Fibonacci Seesaw on the face spanned by ``span`` through ``anchor``
    (whose span bits are cleared first, as :class:`Face` does); returns its
    sink, already evaluated.

    Grows two antipodal subfaces with known sinks. Each extension picks a
    coordinate on which the two sink outmaps differ; the side whose sink
    has it outgoing must be re-solved, and the new sink lies in the fresh
    half, a face one dimension below. Recursing on that half yields the
    Fibonacci-like evaluation count.

    Every sink kept has all coordinates of its subface incoming. So two
    sinks whose outmaps agree on the coordinates left, or a re-solved sink
    that has the extension coordinate outgoing like the sink it replaces,
    form a pair that only a non-USO allows; ``NotUSOError`` names it.
    """
    anchor &= ~span
    if span == 0:
        oracle(anchor)
        return anchor
    sink_a, sink_b = anchor, anchor | span
    spanned = 0
    while True:
        rest = span ^ spanned
        sa = oracle(sink_a)
        sb = oracle(sink_b)
        diff = (sa ^ sb) & rest
        if diff == 0:
            # the two sinks differ on all of rest
            raise NotUSOError(pair=(sink_a, sink_b))
        if rest & (rest - 1) == 0:
            # two antipodal facets remain; the one sink with rest incoming
            return sink_a if sa & rest == 0 else sink_b
        b = diff & -diff
        # re-solve the side whose sink has b outgoing, across b from it
        old = sink_a if sa & b else sink_b
        new = _fs(oracle, old ^ b, spanned)
        if oracle(new) & b:
            raise NotUSOError(pair=(old, new))
        sink_a, sink_b = (new, sink_b) if sa & b else (sink_a, new)
        spanned |= b


def fibonacci_seesaw(o: Orientation, face: Face | None = None) -> tuple[int, int]:
    """Sink of ``face`` (default: the whole cube) and the number of distinct
    evaluations spent.

    On a k-face of a USO that number is exactly F(k + 2) (F(1) = F(2) = 1).
    Each extension re-solves a face in the half across a new coordinate;
    that face is disjoint from every face solved before, and from the other
    side's while two or more coordinates remain, so the counts add:
    T(k) = 2 + T(0) + ... + T(k - 2) with T(0) = 1. Tested on every 3-cube
    USO and on every family at n = 4..12.
    """
    if face is None:
        face = Face.whole_cube(o.n)
    oracle = EvalCounter(o)
    sink = _fs(oracle, face.anchor, face.span)
    return sink, oracle.evaluations


def fs_revisited(o: Orientation, start: int) -> tuple[int, SeesawTrace]:
    """Restarted seesaw: repeatedly cross an outgoing coordinate of the
    current face sink and solve the face spanned by the coordinates used so
    far on the other side.

    The current vertex is always the sink of the face spanned by the used
    coordinates through the start, so the iteration count is bounded by the
    reachmap size of the start vertex and the reachmaps along the way only
    shrink; the trace keeps the vertices, so a caller can read those sizes
    with one :func:`~usolib.reach.reachmaps` call, as ``uso solve`` does.
    On a USO, iteration k solves a k-face for exactly F(k + 2) evaluations,
    none made before (see :func:`fibonacci_seesaw`), so r iterations cost
    exactly F(r + 3) - 1 with the start, and at most F(|R(start)| + 3) - 1.
    Tested on every (3-cube USO, start) pair and on ten random starts of
    every family at n = 4..12.

    Like the joins, the solver sees the cube only through its
    ``EvalCounter``. A seesaw sink that has the crossed coordinate
    outgoing, like the vertex it was crossed from, forms with that vertex a
    pair only a non-USO allows and raises ``NotUSOError``; so every
    iteration adds a coordinate and the loop ends within n iterations on
    any table.
    """
    oracle = EvalCounter(o)
    v = start
    vertices = [v]
    coordinates: list[int] = []
    step_evaluations: list[int] = []
    spanned = 0
    while s := oracle(v):
        b = s & -s
        before = oracle.evaluations
        w = _fs(oracle, v ^ b, spanned)
        if oracle(w) & b:
            raise NotUSOError(pair=(v, w))
        vertices.append(w)
        coordinates.append(b.bit_length())
        step_evaluations.append(oracle.evaluations - before)
        spanned |= b
        v = w
    trace = SeesawTrace(tuple(vertices), tuple(coordinates), tuple(step_evaluations), oracle.evaluations)
    return v, trace
