"""Sink-finding algorithms and their instrumentation.

Random Edge and Bottom Antipodal (seeded walks, scalar and batched in one
lockstep engine that takes a step rule),
join operations, a deterministic replacement for Random Edge built from
joins, the Fibonacci Seesaw, and the restarted seesaw that is bounded by
the reachmap of the start vertex. Every algorithm counts distinct vertex
evaluations through a caching oracle.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bitops import format_coord_set, full_mask, lowest_coord, popcount
from .core import EvalCounter, Face, Orientation
from .reach import reach_table
from .rng import (
    derive_seeds_np,
    start_value,
    start_values_np,
    stream_value,
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

    def to_json_obj(self) -> dict:
        return {
            "steps": self.steps,
            "evaluations": self.evaluations,
            "found_sink": self.found_sink,
            "seed": self.seed,
            "capped": self.capped,
        }


@dataclass(frozen=True)
class SeesawTrace:
    """Per-iteration record of the restarted seesaw.

    ``iterations`` holds (coordinate, solved-face dimension, evaluations
    spent in that solve); ``reachmap_sizes`` holds the reachmap size of the
    current vertex before the first and after every iteration.
    """

    iterations: tuple[tuple[int, int, int], ...]
    reachmap_sizes: tuple[int, ...]
    evaluations: int

    def to_json_obj(self) -> dict:
        return {
            "iterations": [
                {"coordinate": c, "face_dimension": d, "evaluations": e}
                for c, d, e in self.iterations
            ],
            "reachmap_sizes": list(self.reachmap_sizes),
            "evaluations": self.evaluations,
        }


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

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "mean": self.mean,
            "variance": self.variance,
            "max": self.max,
            "quantiles": self.quantiles,
            "capped_runs": self.capped_runs,
            "evaluations_mean": self.evaluations_mean,
        }


@dataclass(frozen=True)
class WalkBatch:
    """Raw per-trial results of a batch of walks."""

    seeds: np.ndarray
    starts: np.ndarray
    steps: np.ndarray
    evaluations: np.ndarray
    found: np.ndarray  # -1 when capped
    capped: np.ndarray


def worker_count() -> int:
    """Worker cap from USO_THREADS (0 or unset means automatic)."""
    raw = os.environ.get("USO_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        return min(4, os.cpu_count() or 1)
    return value


def find_sink_by_scan(o: Orientation) -> int:
    """The unique vertex with empty outmap, by full table scan (the
    reference answer every algorithm is checked against)."""
    hits = np.flatnonzero(o.outmap == 0)
    if hits.size != 1:
        raise ValueError(f"table has {hits.size} vertices with empty outmap")
    return int(hits[0])


def source_vertex(o: Orientation) -> int:
    """The unique vertex whose outmap is the full coordinate set."""
    hits = np.flatnonzero(o.outmap == np.uint32(full_mask(o.n)))
    if hits.size != 1:
        raise ValueError(f"table has {hits.size} vertices with full outmap")
    return int(hits[0])


@lru_cache(maxsize=32)
def _bits_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(popcount, offsets, flat) tables: the set bits of mask m, as xor
    masks, are flat[offsets[m] : offsets[m] + popcount[m]], ascending."""
    size = 1 << n
    pc = np.zeros(size, dtype=np.int64)
    offs = np.zeros(size, dtype=np.int64)
    flat: list[int] = []
    for m in range(size):
        offs[m] = len(flat)
        b = m
        while b:
            low = b & -b
            flat.append(low)
            b ^= low
        pc[m] = len(flat) - offs[m]
    return pc, offs, np.array(flat, dtype=np.int64)


def random_edge_walk(o: Orientation, start: int, seed: int, cap: int) -> RunStats:
    """Random walk choosing a uniformly random outgoing edge at each step.

    Deterministic given (seed, start): step t consumes value t of the seeded
    stream. Walks that hit the cap report capped=True with no sink.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    v = start
    steps = 0
    visited = 1 << v
    evals = 1
    while True:
        s = o.out(v)
        if s == 0:
            return RunStats(steps, evals, v, seed, False)
        if steps >= cap:
            return RunStats(steps, evals, None, seed, True)
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


def _random_edge_rule(n: int):
    """Random Edge step rule: step t crosses the outgoing edge picked by
    value t of each trial's stream, as :func:`random_edge_walk` does."""
    pc, offs, flat = _bits_tables(n)

    def move(s, seeds, active, t):
        z = stream_values_np(seeds[active], t)
        return flat[offs[s] + (z % pc[s].astype(np.uint64)).astype(np.int64)]

    return move


def _bottom_antipodal_rule(n: int):
    """Bottom Antipodal step rule: cross every outgoing edge (v <- v xor
    s(v)); seeds only pick starts."""
    return lambda s, seeds, active, t: s


_STEP_RULES = {"re": _random_edge_rule, "ba": _bottom_antipodal_rule}


def _walk_lockstep(
    o: Orientation, starts: np.ndarray, seeds: np.ndarray, cap: int, move
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All trials advance in lockstep, each step xoring in the mask the
    step rule ``move`` picks; bit-identical to the per-trial walks."""
    size = o.vertex_count()
    table = o.outmap.astype(np.int64)
    count = starts.size
    v = starts.astype(np.int64).copy()
    seeds64 = seeds.astype(np.uint64)
    steps = np.zeros(count, dtype=np.int64)
    found = np.full(count, -1, dtype=np.int64)
    capped = np.zeros(count, dtype=bool)
    visited = np.zeros((count, size), dtype=bool)
    visited[np.arange(count), v] = True
    active = np.arange(count)
    t = 0
    while active.size:
        cur = v[active]
        s_cur = table[cur]
        is_sink = s_cur == 0
        if is_sink.any():
            found[active[is_sink]] = cur[is_sink]
            active = active[~is_sink]
            s_cur = s_cur[~is_sink]
        if not active.size:
            break
        if t >= cap:
            capped[active] = True
            break
        v[active] ^= move(s_cur, seeds64, active, t)
        steps[active] += 1
        visited[active, v[active]] = True
        t += 1
    return steps, visited.sum(axis=1), found, capped


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
    threads: int | None = None,
) -> WalkBatch:
    """Run ``trials`` independent walks with per-trial derived seeds.

    Results are bit-identical for a given master seed regardless of the
    worker count: trials are chunked and each chunk is computed from its
    own per-trial streams.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rule = _STEP_RULES.get(algo)
    if rule is None:
        raise ValueError(f"unknown walk algorithm {algo!r}")
    seeds = derive_seeds_np(seed, trials)
    starts = _starts_array(o, start_policy, seeds)
    move = rule(o.n)
    # chunking bounds the visited matrix; boundaries do not affect results
    chunk = max(256, 4_000_000 // o.vertex_count())
    pieces = [
        (starts[lo : lo + chunk], seeds[lo : lo + chunk])
        for lo in range(0, trials, chunk)
    ]
    workers = threads if threads is not None else worker_count()
    if workers > 1 and len(pieces) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda p: _walk_lockstep(o, p[0], p[1], cap, move), pieces)
            )
    else:
        results = [_walk_lockstep(o, s, z, cap, move) for s, z in pieces]
    steps = np.concatenate([r[0] for r in results])
    evals = np.concatenate([r[1] for r in results])
    found = np.concatenate([r[2] for r in results])
    capped = np.concatenate([r[3] for r in results])
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
    threads: int | None = None,
) -> TrialsSummary:
    """Aggregate independent Random Edge runs with per-trial derived seeds."""
    return summarize(walk_batch(o, "re", start_policy, trials, seed, cap, threads))


def markov_upper_bound(n: int, i: int) -> int:
    """Exact value of n * sum_{k=1..i} n**k, the expected-step budget the
    distance-to-target chain gives for orientations of niceness i."""
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    return n * sum(n**k for k in range(1, i + 1))


def bottom_antipodal(o: Orientation, start: int, cap: int) -> RunStats:
    """Iterate v <- v xor s(v) until the sink or the cap.

    Termination on cyclic orientations is not guaranteed, so the cap is
    mandatory; hitting it is reported, not raised.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    v = start
    steps = 0
    visited = 1 << v
    evals = 1
    while True:
        s = o.out(v)
        if s == 0:
            return RunStats(steps, evals, v, 0, False)
        if steps >= cap:
            return RunStats(steps, evals, None, 0, True)
        v ^= s
        steps += 1
        if not (visited >> v) & 1:
            visited |= 1 << v
            evals += 1


def _not_uso(u: int, v: int, differ: int) -> ValueError:
    """The pairwise criterion fails: in a USO, the outmaps of two vertices
    differ somewhere on the coordinates ``differ`` where the vertices do."""
    return ValueError(
        f"not a USO: vertices {u} and {v} differ on {format_coord_set(differ)} "
        "but their outmaps agree there"
    )


class JoinResult(NamedTuple):
    vertex: int
    evaluations: int
    moves: int


def join_pair(
    o: Orientation, u: int, v: int, oracle: EvalCounter | None = None
) -> JoinResult:
    """A vertex reachable from both ``u`` and ``v`` by directed paths.

    At each move the two current vertices differ in some coordinate that is
    outgoing for exactly one of them (the smallest such coordinate is used);
    that endpoint steps across it, shrinking the Hamming distance by one, so
    the number of moves is at most |u xor v|. Raises ``ValueError`` naming
    the pair when no such coordinate exists, which only a non-USO allows.
    """
    if oracle is None:
        oracle = EvalCounter(o)
    before = oracle.evaluations
    moves = 0
    while u != v:
        su = oracle(u)
        sv = oracle(v)
        cand = (su ^ sv) & (u ^ v)
        if cand == 0:
            raise _not_uso(u, v, u ^ v)
        b = cand & -cand
        if su & b:
            u ^= b
        else:
            v ^= b
        moves += 1
    return JoinResult(u, oracle.evaluations - before, moves)


def join_set(
    o: Orientation, vertices, oracle: EvalCounter | None = None
) -> int:
    """Fold of :func:`join_pair`: a vertex every input can reach."""
    items = list(vertices)
    if not items:
        raise ValueError("join_set needs at least one vertex")
    if oracle is None:
        oracle = EvalCounter(o)
    w = items[0]
    for x in items[1:]:
        w = join_pair(o, w, x, oracle).vertex
    return w


class NeighborJoinResult(NamedTuple):
    vertex: int
    evaluations: int


def neighbor_join(
    o: Orientation, v: int, oracle: EvalCounter | None = None
) -> NeighborJoinResult:
    """Join all out-neighbors of ``v`` using at most |s(v)| evaluations
    beyond knowing s(v) itself.

    Keeps a set of active coordinates (initially s(v)) and the matching
    out-neighbors. A coordinate l is dropped as soon as some other active
    neighbor u has l incoming, because the neighbor across l then has a
    path to u inside their shared 2-face. If an active neighbor becomes the
    sink of the face spanned by the active coordinates, it joins everything;
    otherwise every remaining neighbor is the source of its face and the
    vertex across all active coordinates is returned.
    """
    if oracle is None:
        oracle = EvalCounter(o)
    sv = oracle(v)
    if sv == 0:
        raise ValueError("neighbor_join is undefined at the sink")
    before = oracle.evaluations
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
                return NeighborJoinResult(v ^ lu, oracle.evaluations - before)
            for l in snapshot:
                if l == lu or not ac & l:
                    continue
                if not su & l:
                    ac ^= l
                    changed = True
            if su & ac == 0:
                return NeighborJoinResult(v ^ lu, oracle.evaluations - before)
        if not changed:
            break
    return NeighborJoinResult(v ^ ac, oracle.evaluations - before)


def derandomized_re(o: Orientation, start: int) -> RunStats:
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
        return RunStats(0, oracle.evaluations, start, 0, False)
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
                return RunStats(rounds, oracle.evaluations, sink, 0, False)
            joined = set()
            for u in sorted(ball):
                joined.add(neighbor_join(o, u, oracle).vertex)
            z = join_set(o, sorted(joined), oracle)
            rounds += 1
            if oracle(z) == 0:
                return RunStats(rounds, oracle.evaluations, z, 0, False)
            if z == v or z in visited:
                v = z
                break
            visited.add(z)
            v = z
    raise AssertionError("search exhausted all radii; input is not a USO")


def _fs(oracle: EvalCounter, face: Face) -> int:
    """Fibonacci Seesaw on one face; returns its sink, already evaluated.

    Grows two antipodal subfaces with known sinks. Each extension picks a
    coordinate on which the two sink outmaps differ; the side whose sink
    has it outgoing must be re-solved, and the new sink lies in the fresh
    half, a face one dimension below. Recursing on that half yields the
    Fibonacci-like evaluation count. Raises ``ValueError`` naming the two
    sinks when their outmaps agree on every coordinate left, which only a
    non-USO allows.
    """
    if face.dimension == 0:
        oracle(face.anchor)
        return face.anchor
    v0 = face.anchor
    v1 = face.anchor | face.span
    oracle(v0)
    oracle(v1)
    sink_a, sink_b = v0, v1
    spanned = 0
    while True:
        rest = face.span ^ spanned
        if rest & (rest - 1) == 0:
            # two antipodal facets remain; one of their sinks is the answer
            return sink_a if oracle(sink_a) & rest == 0 else sink_b
        sa = oracle(sink_a)
        sb = oracle(sink_b)
        diff = (sa ^ sb) & rest
        if diff == 0:
            # the two sinks differ on all of rest
            raise _not_uso(sink_a, sink_b, rest)
        b = diff & -diff
        if sa & b:
            sink_a = _fs(oracle, Face(v0 | b, spanned))
        else:
            sink_b = _fs(oracle, Face(v1 ^ b, spanned))
        spanned |= b


def fibonacci_seesaw(
    o: Orientation, face: Face | None = None, oracle: EvalCounter | None = None
) -> tuple[int, int]:
    """Sink of ``face`` (default: the whole cube) and the number of distinct
    evaluations spent."""
    if face is None:
        face = Face.whole_cube(o.n)
    if oracle is None:
        oracle = EvalCounter(o)
    before = oracle.evaluations
    sink = _fs(oracle, face)
    return sink, oracle.evaluations - before


def fs_revisited(o: Orientation, start: int) -> tuple[int, SeesawTrace]:
    """Restarted seesaw: repeatedly cross an outgoing coordinate of the
    current face sink and solve the face spanned by the coordinates used so
    far on the other side.

    The current vertex is always the sink of the face spanned by the used
    coordinates through the start, so the iteration count is bounded by the
    reachmap size of the start vertex and the reachmaps along the way only
    shrink. The trace records both for inspection. A returned vertex that
    is not the sink of its face raises ``ValueError``, so every iteration
    adds a coordinate and the loop ends within n iterations on any table.
    """
    oracle = EvalCounter(o)
    rt = reach_table(o)  # instrumentation, not charged to the oracle
    v = start
    iterations: list[tuple[int, int, int]] = []
    sizes = [popcount(rt[v])]
    spanned = 0
    while oracle(v) != 0:
        s = oracle(v)
        if s & spanned:
            raise ValueError(
                f"not a USO: the seesaw returned vertex {v}, which is not the "
                f"sink of its face span={format_coord_set(spanned)}"
            )
        b = s & -s
        before = oracle.evaluations
        v = _fs(oracle, Face(v ^ b, spanned))
        iterations.append(
            (lowest_coord(b), popcount(spanned), oracle.evaluations - before)
        )
        spanned |= b
        sizes.append(popcount(rt[v]))
    trace = SeesawTrace(
        iterations=tuple(iterations),
        reachmap_sizes=tuple(sizes),
        evaluations=oracle.evaluations,
    )
    return v, trace
