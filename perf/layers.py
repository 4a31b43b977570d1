#!/usr/bin/env python3
"""usolib layer timings: each library layer once per dimension, each in a
fresh interpreter.

    python3 perf/layers.py --out BENCH_43.json
    python3 perf/layers.py --n 8 --out layers.json

A cell is one layer at one dimension n. Its subprocess builds the inputs,
then calls the layer ``CALLS`` times, and reports the median wall and CPU
time of a call, the minor page faults (``ru_minflt``) of the first call and
the mean of the later ones, and the process's peak RSS (``ru_maxrss``)
before and after the calls. Every time is given raw and scaled to the
reference speed by the calibration of ``benchmarks/run.py`` (imported, not
copied), run right before and right after the calls. A cell that takes
longer than ``TIMEOUT_S`` seconds is killed and named under ``skipped``;
a cell that raises is named under ``failed``, with its last line of
stderr, and makes the exit code 1.
Every layer that takes an orientation reads the Klee-Minty n-cube, whose
cost is the same for every seed.
A file holds one run of one tree, so two files written on different trees
do not resolve a change of a few tens of per cent in one layer: a layer's
time moves that much between runs of the same code. Compare trees by
alternating their runs, as ROADMAP item 1a's ``compare`` mode is to do.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from usolib import algo, construct, core, io, reach  # noqa: E402

CALLS = 5
DIMENSIONS = (12, 16, 20)
TIMEOUT_S = 60.0
WALK_TRIALS = 500

#: layer name -> its call on the Klee-Minty n-cube ``km``, saved at ``path``;
#: the cells of one dimension run in this order
LAYERS = {
    "read_orientation": lambda km, path, n: io.read_orientation(path),
    "sink_and_source": lambda km, path, n: core.sink_and_source(km),
    **{
        f"family:{family}": lambda km, path, n, family=family: construct.build_family(family, n, 1)
        for family in construct.FAMILIES
    },
    "walk_batch": lambda km, path, n: algo.walk_batch(km, "re", "antipodal", WALK_TRIALS, 1, 4**n),
    "first_uso_violation": lambda km, path, n: core.first_uso_violation(km),
    "reach_table": lambda km, path, n: reach.reach_table(km),
    "niceness_index": lambda km, path, n: reach.niceness_index(km),
}


def _mib(kib: int) -> float:
    return round(kib / 1024, 2)


def run_cell(layer: str, n: int) -> dict:
    """Measure one cell in this process (see the module docstring)."""
    from run import at_reference, calibrate

    with tempfile.TemporaryDirectory() as d:
        km = construct.klee_minty(n)
        path = Path(d) / f"km{n}.uso"
        io.write_orientation(km, path)
        call = functools.partial(LAYERS[layer], km, path, n)
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        before = calibrate()
        walls, cpus, faults = [], [], []
        for _ in range(CALLS):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0, c0 = time.perf_counter_ns(), time.process_time_ns()
            call()
            walls.append(time.perf_counter_ns() - t0)
            cpus.append(time.process_time_ns() - c0)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
        after = calibrate()
    wall, cpu = statistics.median(walls), statistics.median(cpus)
    return {
        "layer": layer,
        "n": n,
        "calls": CALLS,
        "wall_ms": round(wall / 1e6, 4),
        "cpu_ms": round(cpu / 1e6, 4),
        "wall_ms_ref": round(at_reference(wall, before, after), 4),
        "cpu_ms_ref": round(at_reference(cpu, before, after, cpu=True), 4),
        "minflt_first": faults[0],
        "minflt_per_call": statistics.mean(faults[1:]),
        "maxrss_mib_before": _mib(rss_before),
        "maxrss_mib": _mib(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "calibration_ms": [round(t / 1e6, 3) for t in (*before, *after)],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=list(DIMENSIONS))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--cell", nargs=2, metavar=("LAYER", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cell:
        print(json.dumps(run_cell(args.cell[0], int(args.cell[1]))))
        return 0
    import numpy

    cells, skipped, failed = [], [], []
    for n in args.n:
        for layer in LAYERS:
            argv = [sys.executable, __file__, "--out", os.devnull, "--cell", layer, str(n)]
            try:
                done = subprocess.run(argv, capture_output=True, text=True, timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                skipped.append({"layer": layer, "n": n, "reason": f"over {TIMEOUT_S:g} s"})
                continue
            if done.returncode != 0:
                reason = (done.stderr.strip().splitlines() or ["no output"])[-1]
                failed.append({"layer": layer, "n": n, "reason": reason})
                continue
            cells.append(json.loads(done.stdout))
            print(f"{layer:>22} n={n:<3} {cells[-1]['wall_ms_ref']:10.3f} ms "
                  f"{cells[-1]['minflt_per_call']:8.1f} faults", file=sys.stderr)
    result = {
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "dimensions": args.n,
        "calls": CALLS,
        "timeout_s": TIMEOUT_S,
        "cells": cells,
        "skipped": skipped,
        "failed": failed,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
