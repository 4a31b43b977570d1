"""Spans around calls into usolib's public functions, recorded from outside
the package.

``Tracer.install`` rebinds every name under which a usolib module holds one
of the traced functions (``usolib.cli.niceness_index``,
``usolib.algo.reach_table``, ...) to a wrapper, so calls are seen where the
callers look them up. A span holds its name, start, end, parent, op id,
process CPU time and the cube dimension it worked on. Spans stay in memory
until ``write_spans``. A span's self time is its duration minus its direct
children's, which nest on the calling thread.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

TRACED = (
    "cli.main",
    "io.read_orientation",
    "core.first_uso_violation",
    "core.is_acyclic",
    "core.is_decomposable",
    "core.canonical_form",
    "reach.niceness_index",
    "reach.reach_table",
    "construct.klee_minty",
    "construct.cyclic_full_reach",
    "algo.walk_batch",
    "algo.derandomized_re",
    "algo.fibonacci_seesaw",
    "algo.fs_revisited",
    "algo.find_sink_by_scan",
    "enumeration.census",
    "enumeration.enumerate_all",
)

#: per-function metrics, as (suffix, unit, better)
SPAN_METRICS = (
    ("calls", "count", "lower"),
    ("self_ms", "ms", "lower"),
    ("cpu_ms", "ms", "lower"),
    ("cold_ms", "ms", "lower"),
)

#: counts taken at the traced boundaries, as (name, unit, better); they
#: repeat exactly for a given seed
COUNTS = (
    ("io.read_orientation.bytes", "B", "lower"),
    ("algo.walk_batch.trials", "count", "higher"),
    ("algo.walk_batch.steps", "count", "lower"),
    ("algo.walk_batch.capped_frac", "ratio", "lower"),
    ("algo.walk_batch.peak_mib", "MiB", "lower"),
    ("algo.solve.evaluations", "count", "lower"),
    ("reach.niceness_index.vertices", "count", "higher"),
    ("reach.niceness_index.cover_sum", "count", "lower"),
    ("enumeration.enumerate_all.orientations", "count", "higher"),
    ("cli.main.out_bytes", "B", "lower"),
)

#: tracing's own cost and the check that self times add up to op wall time
OVERHEAD = (
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unaccounted_frac", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric of the traced run, as (name, unit, better)."""
    spans = [(f"{f}.{s}", u, b) for f in TRACED for s, u, b in SPAN_METRICS]
    return spans + list(COUNTS) + list(OVERHEAD)


def _dimension(args, result) -> int | None:
    """Cube dimension of a call: the orientation's n, an int n argument, or
    the n of a returned orientation."""
    if args:
        first = args[0]
        if isinstance(first, int):
            return first
        if hasattr(first, "n"):
            return first.n
    return getattr(result, "n", None)


def _count(counts: dict, name: str, args, result) -> None:
    if name == "io.read_orientation":
        counts["io.read_orientation.bytes"] += os.path.getsize(args[0])
    elif name == "algo.walk_batch":
        counts["algo.walk_batch.trials"] += int(result.steps.size)
        counts["algo.walk_batch.steps"] += int(result.steps.sum())
        counts["algo.walk_batch.capped"] += int(result.capped.sum())
    elif name == "algo.derandomized_re":
        counts["algo.solve.evaluations"] += result.evaluations
    elif name == "algo.fibonacci_seesaw":
        counts["algo.solve.evaluations"] += result[1]
    elif name == "algo.fs_revisited":
        counts["algo.solve.evaluations"] += result[1].evaluations
    elif name == "reach.niceness_index":
        counts["reach.niceness_index.vertices"] += len(result.cover_distance)
        counts["reach.niceness_index.cover_sum"] += sum(
            d for d in result.cover_distance if not math.isinf(d)
        )
    elif name == "enumeration.enumerate_all":
        counts["enumeration.enumerate_all.orientations"] += result


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self, track_memory: bool = False) -> None:
        self.track_memory = track_memory
        #: (op, span id, parent id, name, dimension, start ns, end ns,
        #: cpu start ns, cpu end ns)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.walk_peak_bytes = 0
        self.op = -1
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "usolib"]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules.get(f"usolib.{module_name}"), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(float)
        self.walk_peak_bytes = 0

    def _wrap(self, name: str, fn):
        clock, cpu_clock = time.perf_counter_ns, time.process_time_ns
        tracks_memory = self.track_memory and name == "algo.walk_batch"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            if tracks_memory:
                tracemalloc.start()
            c0, t0 = cpu_clock(), clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1, c1 = clock(), cpu_clock()
                self._stack.pop()
                if tracks_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.walk_peak_bytes = max(self.walk_peak_bytes, peak)
            self.spans.append(
                (self.op, span_id, parent, name, _dimension(args, result), t0, t1, c0, c1)
            )
            _count(self.counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def self_times(spans: list[tuple]) -> dict[int, tuple[int, int]]:
    """span id -> (self wall ns, self cpu ns)."""
    child_wall: dict[int, int] = defaultdict(int)
    child_cpu: dict[int, int] = defaultdict(int)
    for _, _, parent, _, _, t0, t1, c0, c1 in spans:
        if parent >= 0:
            child_wall[parent] += t1 - t0
            child_cpu[parent] += c1 - c0
    return {
        sid: (t1 - t0 - child_wall[sid], c1 - c0 - child_cpu[sid])
        for _, sid, _, _, _, t0, t1, c0, c1 in spans
    }


def layer_metrics(
    setup_spans: list[tuple],
    timed_spans: list[tuple],
    counts: dict[str, float],
    walk_peak_bytes: int,
    op_walls_ns: list[int],
) -> dict[str, float]:
    """Per-function metrics per op of the traced phase, plus ``cold_ms``:
    the self time of the first call per (function, dimension) seen in
    set-up or the traced phase."""
    ops = len(op_walls_ns)
    out: dict[str, float] = {}
    timed_self = self_times(timed_spans)
    for name in TRACED:
        for suffix, _, _ in SPAN_METRICS:
            out[f"{name}.{suffix}"] = 0.0
    for _, sid, _, name, _, *_ in timed_spans:
        wall, cpu = timed_self[sid]
        out[f"{name}.calls"] += 1 / ops
        out[f"{name}.self_ms"] += wall / 1e6 / ops
        out[f"{name}.cpu_ms"] += cpu / 1e6 / ops
    all_spans = setup_spans + timed_spans
    all_self = self_times(setup_spans) | timed_self
    seen = set()
    for _, sid, _, name, dim, *_ in sorted(all_spans, key=lambda s: s[1]):
        if (name, dim) not in seen:
            seen.add((name, dim))
            out[f"{name}.cold_ms"] += all_self[sid][0] / 1e6
    for name, _, _ in COUNTS:
        out[name] = counts.get(name, 0.0) / ops
    trials = counts.get("algo.walk_batch.trials", 0.0)
    out["algo.walk_batch.capped_frac"] = counts["algo.walk_batch.capped"] / trials if trials else 0.0
    out["algo.walk_batch.peak_mib"] = walk_peak_bytes / 2**20
    by_op: dict[int, int] = defaultdict(int)
    for op, sid, *_ in timed_spans:
        by_op[op] += timed_self[sid][0]
    out["trace.unaccounted_frac"] = statistics.median(
        (wall - by_op[op]) / wall for op, wall in enumerate(op_walls_ns)
    )
    return out


def write_spans(path: Path, spans: list[tuple]) -> None:
    """One tab-separated line per span: op, id, parent, name, dimension,
    start ns, end ns, cpu start ns, cpu end ns."""
    with open(path, "w") as f:
        f.write("op\tid\tparent\tname\tn\tstart_ns\tend_ns\tcpu_start_ns\tcpu_end_ns\n")
        for span in spans:
            f.write("\t".join(map(str, span)) + "\n")
