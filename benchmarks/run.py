#!/usr/bin/env python3
"""usolib benchmark: closed-loop ``uso`` workloads.

    python3 benchmarks/run.py --workload analyze-mid --seed 1 --seconds 16 --trace 0
    python3 benchmarks/run.py --workload all --seconds 16 --trace 0

One caller runs the workload's op cycle, each op an in-process call of
``usolib.cli.main(argv)`` on inputs generated from ``--seed`` during set-up,
and starts the next op only after the previous one returned. Whole cycles
run for ``--seconds`` in three blocks, with two more set-ups in fresh
interpreters between the blocks. A fixed calibration loop runs between
the ops, and every time is reported at a reference speed of the host (see
``calibrate``). Every output is checked. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run.
``--workload all`` runs every workload in its own process and prints one
table. The exit code is 1 when any output check failed. README.md in this
directory explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import Tracer, layer_metrics, per_layer_metrics, write_spans
from workloads import ROOT, WORKLOADS, Op

SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
#: the calibration: iterations of its arithmetic loop, the list its memory
#: loop reads at random (250 000 ints, ≈9 MiB with the int objects), the
#: reads it makes, and its wall and CPU time in ms at the reference speed
CALIBRATION_ITERATIONS = 200_000
CALIBRATION_LIST = list(range(250_000))
random.Random(0).shuffle(CALIBRATION_LIST)
CALIBRATION_READS = CALIBRATION_LIST[:25_000]
REFERENCE_MS = 30.0

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class Runner:
    """Runs ``uso`` argv lists in-process through ``usolib.cli.main``,
    looked up on every call so that a traced wrapper is used when
    installed."""

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        import usolib.cli

        if Path(usolib.cli.__file__).resolve().parent != SRC / "usolib":
            raise RuntimeError(f"usolib imported from {usolib.cli.__file__}, not {SRC}")
        self.cli = usolib.cli

    def __call__(self, argv) -> tuple[int, str, int]:
        """(exit code, stdout, wall ns); an exception counts as exit code -1."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter_ns()
            try:
                rc = self.cli.main(list(argv))
            except Exception as exc:  # the run goes on and reports the op as failed
                print(f"{' '.join(argv)}: {exc!r}", file=sys.__stderr__)
                rc = -1
            wall = time.perf_counter_ns() - t0
        return rc, out.getvalue(), wall

    def gen(self, argv: list[str]) -> None:
        rc, _, _ = self(argv)
        if rc != 0:
            raise RuntimeError(f"input generation failed: {' '.join(argv)}")


def calibrate() -> tuple[int, int]:
    """(wall ns, process CPU ns) of a fixed pure-Python calibration: an
    arithmetic loop, then random reads from a list larger than the CPU's
    private caches.

    On a shared 2-vCPU VM, the speed of the arithmetic loop alone varied
    threefold (15 to 49 ms over 200 runs), from op to op and over minutes,
    with no steal time to show for it, and op times moved with it. An op's
    time scaled by ``REFERENCE_MS`` over the mean of the calibration's times
    right before and after the op is the op's time at the reference speed.
    There, the arithmetic loop cut the spread of 15-second medians of the
    census op from 0.075 to 0.015 (IQR over median). Ops that load large
    files slowed more than that loop when the host was busy; the memory reads
    track them: over six solve-large runs, the median op's spread was 0.089
    with the loop alone and 0.053 with the reads added. The calibration runs
    no usolib code, so a faster program still reads faster.
    """
    t0, c0 = time.perf_counter_ns(), time.process_time_ns()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    table = CALIBRATION_LIST
    for i in CALIBRATION_READS:
        total += table[i]
    return time.perf_counter_ns() - t0, time.process_time_ns() - c0


def at_reference(
    ns: float, before: tuple[int, int], after: tuple[int, int], cpu: bool = False
) -> float:
    """``ns`` in milliseconds at the reference speed, given the calibrations
    around it; ``cpu`` scales by the loop's CPU time instead of its wall time."""
    k = 1 if cpu else 0
    return ns / 1e6 * REFERENCE_MS / ((before[k] + after[k]) / 2e6)


def run_op(runner: Runner, op: Op) -> tuple[int, int, str, str | None]:
    """(wall ns, process CPU ns, stdout, failure reason or None)."""
    cpu0 = time.process_time_ns()
    rc, out, wall = runner(op.argv)
    cpu = time.process_time_ns() - cpu0
    if rc != 0:
        return wall, cpu, out, f"exit code {rc}"
    try:
        return wall, cpu, out, op.check(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return wall, cpu, out, f"unreadable output: {exc!r}"


def setup(workload: str, seed: int, workdir: Path, tracer: Tracer | None = None):
    """Import usolib, write the inputs and warm up one op per distinct
    input. Returns (seconds at the reference speed, runner, op cycle,
    warm-up failures)."""
    before = calibrate()
    t0 = time.perf_counter_ns()
    runner = Runner()
    if tracer is not None:
        tracer.install()
    ops = WORKLOADS[workload].prepare(seed, workdir, runner.gen)
    failures = []
    warmed = set()
    for op in ops:
        if op.input not in warmed:
            warmed.add(op.input)
            reason = run_op(runner, op)[3]
            if reason:
                failures.append(f"warm-up {' '.join(op.argv)}: {reason}")
    wall = time.perf_counter_ns() - t0
    return at_reference(wall, before, calibrate()) / 1000, runner, ops, failures


def normalized(out: str) -> bytes:
    """Output with its wall-clock fields removed, for the digest."""
    if not out.startswith("{"):
        return out.encode()

    def strip(value):
        if isinstance(value, dict):
            return {k: strip(v) for k, v in value.items() if k != "wall_ms"}
        if isinstance(value, list):
            return [strip(v) for v in value]
        return value

    return json.dumps(strip(json.loads(out)), sort_keys=True).encode()


class Phase:
    """Whole op cycles with per-op wall times, raw and at the reference
    speed, per-op CPU times at the reference speed, per-cycle wall times,
    failures and the digest of the first cycle's outputs. A calibration runs
    before each cycle and after each op."""

    def __init__(self, runner: Runner, ops: list[Op], tracer: Tracer | None = None):
        self.runner, self.ops, self.tracer = runner, ops, tracer
        self.walls_ns: list[int] = []
        self.walls_ms: list[float] = []
        self.cpus_ms: list[float] = []
        self.cycle_walls: list[float] = []
        self.failures: list[str] = []
        self._digest = hashlib.sha256()

    def cycle(self) -> None:
        t0 = time.perf_counter()
        before = calibrate()
        for op in self.ops:
            if self.tracer is not None:
                self.tracer.op = len(self.walls_ns)
            wall, cpu, out, reason = run_op(self.runner, op)
            after = calibrate()
            self.walls_ns.append(wall)
            self.walls_ms.append(at_reference(wall, before, after))
            self.cpus_ms.append(at_reference(cpu, before, after, cpu=True))
            before = after
            if reason:
                self.failures.append(f"{' '.join(op.argv)}: {reason}")
            if not self.cycle_walls:
                self._digest.update(normalized(out))
            if self.tracer is not None:
                self.tracer.counts["cli.main.out_bytes"] += len(out.encode())
        self.cycle_walls.append(time.perf_counter() - t0)

    def run(self, seconds: float) -> "Phase":
        """Cycles until all of this phase's cycles add up to ``seconds``,
        at least one."""
        while not self.cycle_walls or sum(self.cycle_walls) < seconds:
            self.cycle()
        return self

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def ops_per_s(self) -> float:
        """Ops per second of op time at the reference speed."""
        return len(self.walls_ms) * 1000 / sum(self.walls_ms)

    @property
    def cpu_ms_per_op(self) -> float:
        return statistics.fmean(self.cpus_ms)


def extra_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, so import and lazy tables are cold."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    if trace:
        tracer = Tracer()
        _, runner, ops, failures = setup(workload, seed, workdir, tracer)
        tracer.uninstall()
        setup_spans = tracer.spans
        tracer.reset()
        # traced and untraced cycles alternate, so drifting load from other
        # processes falls on both sides of the overhead figure alike
        traced, untraced = Phase(runner, ops, tracer), Phase(runner, ops)
        start = time.perf_counter()
        while not untraced.cycle_walls or time.perf_counter() - start < seconds:
            tracer.install()
            traced.cycle()
            tracer.uninstall()
            untraced.cycle()
        # tracemalloc slows every allocation, so walk_batch's peak memory
        # comes from one more cycle that is neither timed nor traced
        memory = Tracer(track_memory=True)
        if tracer.counts.get("algo.walk_batch.trials"):
            memory.install()
            Phase(runner, ops).cycle()
            memory.uninstall()
        metrics = layer_metrics(
            setup_spans, tracer.spans, tracer.counts, memory.walk_peak_bytes, traced.walls_ns
        )
        metrics["trace.traced_ops_per_s"] = traced.ops_per_s
        metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s
        metrics["trace.overhead_frac"] = untraced.ops_per_s / traced.ops_per_s - 1
        write_spans(OUT / f"{workload}-seed{seed}.spans.tsv", setup_spans + tracer.spans)
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        phases = [traced, untraced]
    else:
        setup_s, runner, ops, failures = setup(workload, seed, workdir)
        setups = [setup_s]
        # the timed cycles come in blocks with the other set-ups between
        # them, so they sample a longer stretch of the host's varying load
        timed = Phase(runner, ops).run(seconds / SETUP_REPEATS)
        for block in range(2, SETUP_REPEATS + 1):
            setups.append(extra_setup(workload, seed))
            timed.run(seconds * block / SETUP_REPEATS)
        walls_ms = timed.walls_ms
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": timed.ops_per_s,
            "op_p50_ms": statistics.median(walls_ms),
            "op_p90_ms": statistics.quantiles(walls_ms, n=10)[8],
            "cpu_ms_per_op": timed.cpu_ms_per_op,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        phases = [timed]
    attempted = sum(len(p.walls_ns) for p in phases)
    for p in phases:
        failures += p.failures
    digests = {p.digest for p in phases}
    if len(digests) != 1:
        failures.append("outputs differ between the traced and untraced phase")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": attempted,
        "failed": sum(len(p.failures) for p in phases),
        "failed_frac": sum(len(p.failures) for p in phases) / attempted,
        "correct": not failures,
        "failures": failures[:20],
        "ops_per_cycle": len(ops),
        "digest": digests.pop(),
        "cycle_walls_s": [p.cycle_walls for p in phases],
        "op_walls_ms": [[w / 1e6 for w in p.walls_ns] for p in phases],
        "op_walls_at_reference_ms": [p.walls_ms for p in phases],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_only:
            seconds, _, _, failures = setup(args.workload, args.seed, workdir)
            for line in failures:
                print(line, file=sys.stderr)
            print(seconds)
            return 1 if failures else 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(
        f"{args.workload}: {result['attempted']} ops, {result['failed']} failed, "
        f"digest {result['digest'][:16]}",
        file=sys.stderr,
    )
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        if not proc.stdout.strip():
            rows.append((workload, "run", "failed", ""))
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        rows.append((workload, "ops", str(result["attempted"]), "count"))
        rows.append((workload, "failed_frac", f"{result['failed'] / result['attempted']:.4g}", "ratio"))
        for name, m in result["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"]))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "usolib" / "__init__.py").is_file():
        print(f"error: no usolib sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
