"""Sink-finding algorithms and their instrumentation.

Random Edge and Bottom Antipodal (seeded walks run in batches by one
lockstep engine that takes a step rule), join operations, a deterministic
replacement for Random Edge built from joins, the Fibonacci Seesaw, and
the restarted seesaw that is bounded by the reachmap of the start vertex.
Every algorithm counts distinct vertex evaluations through a caching
oracle. When a join or seesaw step finds no way forward, it raises
``NotUSOError`` naming a vertex pair whose outmaps agree wherever the
vertices differ; only a non-USO has such a pair.

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

from .bitops import full_mask, lowest_coord, popcount
from .core import EvalCounter, Face, NotUSOError, Orientation, sink_and_source, uso_violation
from .reach import reach_table
from .rng import _MASK64, derive_seeds_np, start_values_np, stream_values_np


@dataclass(frozen=True)
class RunStats:
    """Outcome of one algorithm run."""

    steps: int
    evaluations: int
    found_sink: int | None
    seed: int
    capped: bool


@dataclass(frozen=True)
class SeesawStep:
    """One iteration of the restarted seesaw: the coordinate crossed, the
    dimension of the face solved beyond it, and the evaluations spent."""

    coordinate: int
    face_dimension: int
    evaluations: int


@dataclass(frozen=True)
class SeesawTrace:
    """Per-iteration record of the restarted seesaw; the CLI writes it with
    ``dataclasses.asdict``.

    ``reachmap_sizes`` holds the reachmap size of the current vertex before
    the first and after every iteration.
    """

    iterations: tuple[SeesawStep, ...]
    reachmap_sizes: tuple[int, ...]
    evaluations: int


@dataclass(frozen=True)
class TrialsSummary:
    """Aggregate over independent runs; field names follow the contract
    mean/variance/max/quantiles for the step counts."""

    trials: int
    mean: float
    variance: float
    max: int
    quantiles: dict[str, float]
    capped_runs: int
    evaluations_mean: float


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


def _select_tables() -> tuple[np.ndarray, np.ndarray]:
    """Popcounts of the 12-bit values, and the flat select table whose
    entry 12x + i is the i-th lowest set bit of the 12-bit value x as a
    mask (0 past the last one)."""
    x = np.arange(1 << 12, dtype=np.uint32)
    bits = (x[:, None] >> np.arange(12, dtype=np.uint32)) & np.uint32(1)
    rows, cols = bits.nonzero()
    rank = bits.cumsum(axis=1)[rows, cols] - 1  # bit cols is set bit rank of x
    select = np.zeros((x.size, 12), dtype=np.uint32)
    select[rows, rank] = np.uint32(1) << cols.astype(np.uint32)
    return np.bitwise_count(x), select.reshape(-1)


_POPCOUNT12, _SELECT12 = _select_tables()


def _kth_set_bit(s: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The k-th lowest set bit of each uint32 ``s`` < 2^24 as a mask, for
    k < popcount(s): the low 12-bit half holds it when k is below that
    half's popcount c, else the high half holds it as its own set bit
    k - c."""
    c = _POPCOUNT12[s & np.uint32(0xFFF)]
    high = k >= c
    shift = high * np.uint32(12)
    half = (s >> shift) & np.uint32(0xFFF)
    return _SELECT12.take(half * np.uint32(12) + (k - high * c)) << shift


def _random_edge_move(s, seeds, active, t):
    """Random Edge step rule: step t crosses the k-th lowest outgoing edge
    of s, k = z mod |s| for value z of each trial's stream at index t,
    picked by :func:`_kth_set_bit` in a fixed number of numpy calls."""
    return _kth_set_bit(s, stream_values_np(seeds[active], t) % np.bitwise_count(s))


def _bottom_antipodal_move(s, seeds, active, t):
    """Bottom Antipodal step rule: cross every outgoing edge (v <- v xor
    s(v)); seeds only pick starts."""
    return s


#: algorithm -> (step rule, whether the rule depends on the vertex alone)
_STEP_RULES = {"re": (_random_edge_move, False), "ba": (_bottom_antipodal_move, True)}


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``: what ``np.unique`` returns,
    by sorting and keeping each key that differs from the one before it."""
    keys = np.sort(keys)
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _walk_lockstep(
    o: Orientation,
    starts: np.ndarray,
    seeds: np.ndarray,
    cap: int,
    move,
    vertex_only: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All trials advance in lockstep, each step xoring in the mask the
    step rule ``move`` picks; trial k's walk depends only on its start and
    seed, so it is the same walk as a batch of that one trial.

    Every vertex a trial enters is logged as the key trial * 2^n + vertex.
    The log is folded into the sorted distinct keys ``seen`` whenever it
    outgrows them (plus one key per trial), so memory follows the distinct
    (trial, vertex) pairs rather than the steps; a trial's evaluations are
    its number of distinct keys. The fold sorts and drops repeats rather
    than calling ``np.unique``, whose hash path is several times slower on
    int64 keys. A trial that hits the cap keeps ``found`` at -1.

    When the step rule depends on the vertex alone (``vertex_only``, as for
    Bottom Antipodal), a trial that re-enters a vertex is in a cycle: it
    never reaches a sink, and every vertex it would enter before the cap is
    already logged. Such trials are retired at once with ``steps = cap``,
    the record a run to the cap gives them, so the batch stops stepping
    when only cycling trials are left. Cycles are caught as in Brent's
    method: the vertex of each trial is saved at every power-of-two step
    and compared with the vertex after each later step.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = o.n
    table = o.outmap
    count = starts.size
    steps = np.zeros(count, dtype=np.int64)
    found = np.full(count, -1, dtype=np.int64)
    active = np.arange(count, dtype=np.int64)
    cur = starts.copy()
    saved = starts.copy()
    seen = (active << n) | cur
    log: list[np.ndarray] = []
    logged = 0
    t = 0
    while True:
        s = table[cur]
        if not s.all():
            walking = s != 0
            done = active[~walking]
            found[done] = cur[~walking]
            steps[done] = t
            active, cur, s = active[walking], cur[walking], s[walking]
        if not active.size:
            break
        if t >= cap:
            steps[active] = t
            break
        cur ^= move(s, seeds, active, t)
        t += 1
        log.append((active << n) | cur)
        logged += active.size
        if logged > seen.size + count:
            seen = _distinct_sorted(np.concatenate([seen, *log]))
            log, logged = [], 0
        if vertex_only:
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
    rule = _STEP_RULES.get(algo)
    if rule is None:
        raise ValueError(f"unknown walk algorithm {algo!r}")
    steps, evals, found = _walk_lockstep(o, starts, seeds, cap, *rule)
    return WalkBatch(seeds, starts, steps, evals, found)


def summarize(batch: WalkBatch) -> TrialsSummary:
    """Step statistics, capped count and mean evaluations of a batch."""
    steps = batch.steps
    qs = np.quantile(steps, [0.5, 0.9, 0.95, 0.99])
    return TrialsSummary(
        trials=int(steps.size),
        mean=float(steps.mean()),
        variance=float(steps.var()),
        max=int(steps.max()),
        quantiles={
            "p50": float(qs[0]),
            "p90": float(qs[1]),
            "p95": float(qs[2]),
            "p99": float(qs[3]),
        },
        capped_runs=int(batch.capped.sum()),
        evaluations_mean=float(batch.evaluations.mean()),
    )


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
    deepened; on a USO radius n always suffices, so a search that exhausts
    all radii raises ``NotUSOError`` with the least bad face. ``steps``
    counts join rounds.
    """
    oracle = EvalCounter(o)
    if oracle(start) == 0:
        return RunStats(0, oracle.evaluations, start, 0, False)
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
                                return RunStats(rounds, oracle.evaluations, w, 0, False)
                            nxt.append(w)
                frontier = nxt
            joined = {neighbor_join(oracle, u) for u in seen}
            z = join_set(oracle, sorted(joined))
            rounds += 1
            if oracle(z) == 0:
                return RunStats(rounds, oracle.evaluations, z, 0, False)
            v = z
            if z in visited:
                break
            visited.add(z)
    # unreachable on a USO: radius n suffices, and no USO run has deepened it
    raise uso_violation(o) or AssertionError("derandomized_re exhausted all radii on a USO")


def _fs(oracle: EvalCounter, face: Face) -> int:
    """Fibonacci Seesaw on one face; returns its sink, already evaluated.

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
    if face.dimension == 0:
        oracle(face.anchor)
        return face.anchor
    sink_a, sink_b = face.anchor, face.anchor | face.span
    spanned = 0
    while True:
        rest = face.span ^ spanned
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
        new = _fs(oracle, Face(old ^ b, spanned))
        if oracle(new) & b:
            raise NotUSOError(pair=(old, new))
        sink_a, sink_b = (new, sink_b) if sa & b else (sink_a, new)
        spanned |= b


def fibonacci_seesaw(o: Orientation, face: Face | None = None) -> tuple[int, int]:
    """Sink of ``face`` (default: the whole cube) and the number of distinct
    evaluations spent."""
    if face is None:
        face = Face.whole_cube(o.n)
    oracle = EvalCounter(o)
    sink = _fs(oracle, face)
    return sink, oracle.evaluations


def fs_revisited(o: Orientation, start: int) -> tuple[int, SeesawTrace]:
    """Restarted seesaw: repeatedly cross an outgoing coordinate of the
    current face sink and solve the face spanned by the coordinates used so
    far on the other side.

    The current vertex is always the sink of the face spanned by the used
    coordinates through the start, so the iteration count is bounded by the
    reachmap size of the start vertex and the reachmaps along the way only
    shrink. The trace records both for inspection. A seesaw sink that has
    the crossed coordinate outgoing, like the vertex it was crossed from,
    forms with that vertex a pair only a non-USO allows and raises
    ``NotUSOError``; so every iteration adds a coordinate and the loop ends
    within n iterations on any table.
    """
    oracle = EvalCounter(o)
    rt = reach_table(o)  # instrumentation, not charged to the oracle
    v = start
    iterations: list[SeesawStep] = []
    sizes = [popcount(rt[v])]
    spanned = 0
    while oracle(v) != 0:
        s = oracle(v)
        b = s & -s
        before = oracle.evaluations
        w = _fs(oracle, Face(v ^ b, spanned))
        if oracle(w) & b:
            raise NotUSOError(pair=(v, w))
        iterations.append(
            SeesawStep(lowest_coord(b), popcount(spanned), oracle.evaluations - before)
        )
        spanned |= b
        v = w
        sizes.append(popcount(rt[v]))
    trace = SeesawTrace(
        iterations=tuple(iterations),
        reachmap_sizes=tuple(sizes),
        evaluations=oracle.evaluations,
    )
    return v, trace
