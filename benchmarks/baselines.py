#!/usr/bin/env python3
"""Re-measure the per-layer baselines listed under ROADMAP item 1.

    python3 benchmarks/baselines.py

Prints one line per layer: wall milliseconds of a single call (the median of
three for calls under a second), after a warm-up call where the layer has
lazy tables. Takes about two minutes, most of it ``niceness_index`` at n=14.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from usolib import algo, construct, core, io, reach  # noqa: E402
from usolib.rng import SplitMix64, derive_seeds_np  # noqa: E402


def ms(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    first = (time.perf_counter() - t0) * 1000
    if first > 1000:
        return first
    runs = [first]
    for _ in range(2):
        t0 = time.perf_counter()
        fn(*args)
        runs.append((time.perf_counter() - t0) * 1000)
    return statistics.median(runs)


def scalar_walks(o, trials: int, seed: int, cap: int) -> None:
    start = algo.resolve_start(o, "antipodal")
    for s in derive_seeds_np(seed, trials):
        algo.random_edge_walk(o, start, int(s), cap)


def main() -> None:
    rows = []
    for n in (12, 13, 14):
        o = construct.random_fmo(n, SplitMix64(n))
        rows.append((f"niceness_index, random FMO, n={n}", ms(reach.niceness_index, o)))
    fmo16 = construct.random_fmo(16, SplitMix64(16))
    rows.append(("io._first_inconsistent_vertex, n=16", ms(io._first_inconsistent_vertex, fmo16)))
    rows.append(("core.validate_orientation, n=16", ms(core.validate_orientation, fmo16)))
    rows.append(("random_fmo, n=16", ms(construct.random_fmo, 16, SplitMix64(1))))
    rows.append(("klee_minty, n=16", ms(construct.klee_minty, 16)))
    rows.append(("reach_table (FMO), n=16", ms(reach.reach_table, fmo16)))
    km20 = construct.klee_minty(20)
    cap = 4**20
    algo.walk_batch(km20, "re", "antipodal", 1, 0, cap, threads=1)  # builds the n=20 tables
    rows.append((
        "walk_batch RE on KM, 1000 trials, 1 thread, n=20",
        ms(algo.walk_batch, km20, "re", "antipodal", 1000, 7, cap, 1),
    ))
    rows.append(("scalar random_edge_walk loop, same trials, n=20", ms(scalar_walks, km20, 1000, 7, cap)))
    fmo12 = construct.random_fmo(12, SplitMix64(12))
    rows.append(("first_uso_violation, n=12", ms(core.first_uso_violation, fmo12)))
    rows.append(("validate_uso, n=12", ms(core.validate_uso, fmo12)))
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name.ljust(width)}  {value:10.1f} ms")


if __name__ == "__main__":
    main()
