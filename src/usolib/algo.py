"""Sink-finding algorithms and their instrumentation.

Random Edge and Bottom Antipodal (seeded walks run by one lockstep engine
that takes a step rule; the single-walk functions are batches of one),
join operations, a deterministic replacement for Random Edge built from
joins, the Fibonacci Seesaw, and the restarted seesaw that is bounded by
the reachmap of the start vertex. Every algorithm counts distinct vertex
evaluations through a caching oracle. When a join or seesaw step finds no
way forward, it raises ``NotUSOError`` naming a vertex pair whose outmaps
agree wherever the vertices differ; only a non-USO has such a pair.
``find_sink_by_scan``, the reference answer, lives in ``core`` and is
importable from here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitops import full_mask, lowest_coord, popcount
from .core import EvalCounter, Face, NotUSOError, Orientation, find_sink_by_scan
from .reach import reach_table
from .rng import (
    _MASK64,
    derive_seeds_np,
    start_value,
    start_values_np,
    stream_values_np,
)


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
    capped: np.ndarray


def source_vertex(o: Orientation) -> int:
    """The unique vertex whose outmap is the full coordinate set."""
    hits = np.flatnonzero(o.outmap == np.uint32(full_mask(o.n)))
    if hits.size != 1:
        raise NotUSOError(f"table has {hits.size} vertices with full outmap")
    return int(hits[0])


def _one_walk(o: Orientation, algo: str, start: int, seed: int, cap: int) -> RunStats:
    """One walk: a batch of one trial through :func:`_walk_lockstep` with
    the ``algo`` step rule; the stats keep ``seed`` as given."""
    starts = np.array([resolve_start(o, int(start))], dtype=np.int64)
    seeds = np.array([seed & _MASK64], dtype=np.uint64)
    steps, evals, found, capped = _walk_lockstep(
        o, starts, seeds, cap, _STEP_RULES[algo]
    )
    sink = int(found[0]) if found[0] >= 0 else None
    return RunStats(int(steps[0]), int(evals[0]), sink, seed, bool(capped[0]))


def random_edge_walk(o: Orientation, start: int, seed: int, cap: int) -> RunStats:
    """Random walk choosing a uniformly random outgoing edge at each step.

    Deterministic given (seed, start): step t consumes value t of the seeded
    stream. Walks that hit the cap report capped=True with no sink. This is
    a batch of one trial of the engine under :func:`walk_batch`, so it pays
    the engine's per-step numpy overhead: about 15 times the time of a
    per-step Python loop on cubes of dimension 3 to 8. Use
    :func:`walk_batch` for many trials.
    """
    return _one_walk(o, "re", start, seed, cap)


def _random_edge_move(s, seeds, active, t):
    """Random Edge step rule: step t crosses the outgoing edge picked by
    value z of each trial's stream at index t: clear the k = z mod |s|
    lowest set bits of s and keep the lowest one left."""
    k = stream_values_np(seeds[active], t) % np.bitwise_count(s)
    for i in range(int(k.max())):
        s = np.where(k > i, s & (s - 1), s)
    return s & -s


def _bottom_antipodal_move(s, seeds, active, t):
    """Bottom Antipodal step rule: cross every outgoing edge (v <- v xor
    s(v)); seeds only pick starts."""
    return s


_STEP_RULES = {"re": _random_edge_move, "ba": _bottom_antipodal_move}


def _walk_lockstep(
    o: Orientation, starts: np.ndarray, seeds: np.ndarray, cap: int, move
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All trials advance in lockstep, each step xoring in the mask the
    step rule ``move`` picks; trial k's walk depends only on its start and
    seed, so it is the same walk as a batch of that one trial.

    Every vertex a trial enters is logged as the key trial * 2^n + vertex.
    The log is folded into the sorted distinct keys ``seen`` whenever it
    outgrows them (plus one key per trial), so memory follows the distinct
    (trial, vertex) pairs rather than the steps; a trial's evaluations are
    its number of distinct keys.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = o.n
    table = o.outmap
    count = starts.size
    steps = np.zeros(count, dtype=np.int64)
    found = np.full(count, -1, dtype=np.int64)
    capped = np.zeros(count, dtype=bool)
    active = np.arange(count, dtype=np.int64)
    cur = starts.copy()
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
            capped[active] = True
            steps[active] = t
            break
        cur ^= move(s, seeds, active, t)
        t += 1
        log.append((active << n) | cur)
        logged += active.size
        if logged > seen.size + count:
            seen = np.unique(np.concatenate([seen, *log]))
            log, logged = [], 0
    seen = np.unique(np.concatenate([seen, *log]))
    return steps, np.bincount(seen >> n, minlength=count), found, capped


def resolve_start(o: Orientation, policy: int | str, seed: int = 0) -> int:
    """Resolve a start policy for a single run."""
    if isinstance(policy, int):
        if not 0 <= policy < o.vertex_count():
            raise ValueError(f"start vertex {policy} out of range")
        return policy
    if policy == "source":
        return source_vertex(o)
    if policy == "antipodal":
        return find_sink_by_scan(o) ^ full_mask(o.n)
    if policy == "random":
        return start_value(seed) % o.vertex_count()
    raise ValueError(f"unknown start policy {policy!r}")


def _starts_array(o: Orientation, policy: int | str, seeds: np.ndarray) -> np.ndarray:
    if policy == "random":
        return (start_values_np(seeds) % np.uint64(o.vertex_count())).astype(np.int64)
    fixed = resolve_start(o, policy)
    return np.full(seeds.size, fixed, dtype=np.int64)


def walk_batch(
    o: Orientation,
    algo: str,
    start_policy: int | str,
    trials: int,
    seed: int,
    cap: int,
) -> WalkBatch:
    """Run ``trials`` independent walks with per-trial derived seeds.

    Trial k depends only on the master seed and k, so the first k trials of
    a larger batch equal a batch of k.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    move = _STEP_RULES.get(algo)
    if move is None:
        raise ValueError(f"unknown walk algorithm {algo!r}")
    seeds = derive_seeds_np(seed, trials)
    starts = _starts_array(o, start_policy, seeds)
    steps, evals, found, capped = _walk_lockstep(o, starts, seeds, cap, move)
    return WalkBatch(seeds, starts, steps, evals, found, capped)


def summarize(batch: WalkBatch) -> TrialsSummary:
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


def re_trials(
    o: Orientation,
    start_policy: int | str,
    trials: int,
    seed: int,
    cap: int,
) -> TrialsSummary:
    """Aggregate independent Random Edge runs with per-trial derived seeds."""
    return summarize(walk_batch(o, "re", start_policy, trials, seed, cap))


def markov_upper_bound(n: int, i: int) -> int:
    """Exact value of n * sum_{k=1..i} n**k, the expected-step budget the
    distance-to-target chain gives for orientations of niceness i."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return n * sum(n**k for k in range(1, i + 1))


def bottom_antipodal(o: Orientation, start: int, cap: int) -> RunStats:
    """Iterate v <- v xor s(v) until the sink or the cap.

    Termination on cyclic orientations is not guaranteed, so the cap is
    mandatory; hitting it is reported, not raised. Like
    :func:`random_edge_walk`, a batch of one trial of the engine, about 15
    times slower per call than a per-step Python loop.
    """
    return _one_walk(o, "ba", start, 0, cap)


def join_pair(
    o: Orientation, u: int, v: int, oracle: EvalCounter | None = None
) -> int:
    """A vertex reachable from both ``u`` and ``v`` by directed paths.

    At each move the two current vertices differ in some coordinate that is
    outgoing for exactly one of them (the smallest such coordinate is used);
    that endpoint steps across it, clearing one bit of u xor v, so the join
    takes exactly |u xor v| moves and at most |u xor v| + 1 evaluations,
    counted by ``oracle``. Raises ``NotUSOError`` naming the pair when no
    such coordinate exists, which only a non-USO allows.
    """
    if oracle is None:
        oracle = EvalCounter(o)
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


def join_set(o: Orientation, vertices, oracle: EvalCounter | None = None) -> int:
    """Fold of :func:`join_pair`: a vertex every input can reach."""
    items = list(vertices)
    if not items:
        raise ValueError("join_set needs at least one vertex")
    if oracle is None:
        oracle = EvalCounter(o)
    w = items[0]
    for x in items[1:]:
        w = join_pair(o, w, x, oracle)
    return w


def _single_bits(mask: int):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def neighbor_join(o: Orientation, v: int, oracle: EvalCounter | None = None) -> int:
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
    if oracle is None:
        oracle = EvalCounter(o)
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
    directed distance i-1 of the current vertex, returning at once if one
    is the sink; join each one's out-neighborhood, then join those results,
    in ascending order, into a single vertex z that everything within
    distance i can reach. On an orientation where the current vertex is
    i-covered, z has a strictly smaller reachmap, so at most n productive
    rounds happen per radius. When z repeats a vertex of this radius, the
    radius is deepened; radius n always suffices. ``steps`` counts join
    rounds. On USOs the radius has not been seen to deepen; only non-USO
    tables have reached that branch.
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
            joined = {neighbor_join(o, u, oracle) for u in seen}
            z = join_set(o, sorted(joined), oracle)
            rounds += 1
            if oracle(z) == 0:
                return RunStats(rounds, oracle.evaluations, z, 0, False)
            v = z
            if z in visited:
                break
            visited.add(z)
    raise NotUSOError("not a USO: the search exhausted all radii")


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
