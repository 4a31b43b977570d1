"""Command-line front end.

Subcommands: gen, check, analyze, walk, solve, enum, bench. Exit codes are
0 on success, 1 on domain failures (invalid orientation files, failed
validation), 2 on usage errors. All randomness is controlled by --seed and
outputs are deterministic for fixed flags, independent of USO_THREADS.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algo, construct, enumeration
from .bitops import format_coord_set
from .core import Orientation, first_uso_violation, is_acyclic, is_decomposable
from .io import ParseError, dumps_json, dumps_text, read_orientation
from .reach import niceness_index, reach_table
from .rng import SplitMix64, derive_seed

FAMILIES = ("uniform", "km", "fmo", "target-combed", "cyclic-lb", "auso-lb", "product")

CSV_HEADER = "family,n,seed,steps,evaluations,capped"


@dataclass(frozen=True)
class ExperimentRecord:
    """One algorithm run, as persisted by walk/bench."""

    family: str
    n: int
    seed: int
    algorithm: str
    steps: int
    evaluations: int
    capped: bool

    def csv_row(self) -> str:
        # fixed 6-column format; timing is reported only in JSON output so
        # that repeated runs stay byte-identical
        capped = "true" if self.capped else "false"
        return f"{self.family},{self.n},{self.seed},{self.steps},{self.evaluations},{capped}"

    def to_json_obj(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "capped": self.capped,
        }


def build_family(family: str, n: int, seed: int) -> Orientation:
    """Instance of a named family; randomized families are seeded."""
    if family == "uniform":
        return construct.uniform(n)
    if family == "km":
        return construct.klee_minty(n)
    if family == "fmo":
        return construct.random_fmo(n, SplitMix64(seed))
    if family == "target-combed":
        return construct.random_target_combed(n, SplitMix64(seed))
    if family == "cyclic-lb":
        return construct.cyclic_full_reach(n)
    if family == "auso-lb":
        return construct.auso_lower_bound(n)
    if family == "product":
        rng = SplitMix64(seed)
        frame_dim = max(1, n // 2)
        fiber_dim = n - frame_dim
        if fiber_dim < 1:
            raise ValueError("product family requires n >= 2")
        frame = construct.random_fmo(frame_dim, rng)
        fibers = [
            construct.random_fmo(fiber_dim, rng) for _ in range(1 << frame_dim)
        ]
        return construct.product(frame, fibers)
    raise ValueError(f"unknown family {family!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_start(raw: str) -> int | str:
    if raw in ("source", "antipodal", "random"):
        return raw
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"start must be a vertex index or one of source/antipodal/random, got {raw!r}"
        ) from None


def _parse_range(raw: str) -> tuple[int, int]:
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        return int(lo), int(hi)
    value = int(raw)
    return value, value


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def cmd_gen(args) -> int:
    o = build_family(args.family, args.n, args.seed)
    text = dumps_json(o) if args.format == "json" else dumps_text(o)
    _emit(text, args.out)
    return 0


def cmd_check(args) -> int:
    try:
        o = read_orientation(args.path)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    violation = first_uso_violation(o)
    if violation is not None:
        face, count = violation
        print(
            f"error: not a unique sink orientation: face "
            f"span={format_coord_set(face.span)} "
            f"anchor={format_coord_set(face.anchor)} has {count} sinks",
            file=sys.stderr,
        )
        return 1
    print(f"ok: valid USO of dimension {o.n}")
    return 0


def cmd_analyze(args) -> int:
    o = read_orientation(args.path)
    violation = first_uso_violation(o)
    if violation is not None:
        face, count = violation
        print(
            f"error: not a USO: face span={format_coord_set(face.span)} "
            f"anchor={format_coord_set(face.anchor)} has {count} sinks",
            file=sys.stderr,
        )
        return 1
    rt = reach_table(o)
    report = niceness_index(o, rt)
    if args.format == "json":
        obj = report.to_json_obj()
        obj["acyclic"] = is_acyclic(o)
        obj["decomposable"] = is_decomposable(o)
        _emit(_json_dumps(obj), args.out)
        return 0
    lines = [
        f"n: {o.n}",
        f"uso: true",
        f"acyclic: {'true' if is_acyclic(o) else 'false'}",
        f"decomposable: {'true' if is_decomposable(o) else 'false'}",
        f"sink: {report.sink}",
        f"niceness_index: {report.niceness_index}",
        "vertex outmap reachmap cover_distance witness",
    ]
    for v in range(o.vertex_count()):
        if v == report.sink:
            cover, wit = "-", "-"
        else:
            cover = str(int(report.cover_distance[v]))
            wit = str(report.witness[v])
        lines.append(
            f"{v} {format_coord_set(o.out(v))} {format_coord_set(rt[v])} {cover} {wit}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _records_from_batch(
    batch: algo.WalkBatch, label: str, n: int, algorithm: str
) -> list[ExperimentRecord]:
    records = []
    for k in range(batch.steps.size):
        records.append(
            ExperimentRecord(
                family=label,
                n=n,
                seed=int(batch.seeds[k]),
                algorithm=algorithm,
                steps=int(batch.steps[k]),
                evaluations=int(batch.evaluations[k]),
                capped=bool(batch.capped[k]),
            )
        )
    return records


def _csv_text(records: list[ExperimentRecord]) -> str:
    rows = sorted(records, key=lambda r: (r.family, r.n, r.seed))
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in rows]) + "\n"


def cmd_walk(args) -> int:
    o = read_orientation(args.path)
    cap = args.cap if args.cap is not None else 4 ** o.n
    started = time.perf_counter()
    batch = algo.walk_batch(o, args.algo, args.start, args.trials, args.seed, cap)
    wall_ms = int((time.perf_counter() - started) * 1000)
    label = args.label or Path(args.path).stem
    if args.format == "csv":
        _emit(_csv_text(_records_from_batch(batch, label, o.n, args.algo)), args.out)
        return 0
    summary = algo.summarize(batch)
    obj = {
        "algorithm": args.algo,
        "family": label,
        "n": o.n,
        "cap": cap,
        "master_seed": args.seed,
        "start": str(args.start),
        "wall_ms": wall_ms,
        "summary": summary.to_json_obj(),
    }
    if args.trials == 1:
        obj["run"] = _records_from_batch(batch, label, o.n, args.algo)[0].to_json_obj()
    _emit(_json_dumps(obj), args.out)
    return 0


def cmd_solve(args) -> int:
    o = read_orientation(args.path)
    start = algo.resolve_start(o, args.start, args.seed)
    expected = algo.find_sink_by_scan(o)
    started = time.perf_counter()
    if args.algo == "dre":
        stats = algo.derandomized_re(o, start)
        sink = stats.found_sink
        payload: dict = {"run": stats.to_json_obj()}
    elif args.algo == "fs":
        sink, evaluations = algo.fibonacci_seesaw(o)
        payload = {"evaluations": evaluations}
    else:  # fsr
        sink, trace = algo.fs_revisited(o, start)
        payload = {"trace": trace.to_json_obj()}
    wall_ms = int((time.perf_counter() - started) * 1000)
    if sink != expected:
        print(
            f"error: algorithm returned vertex {sink}, table scan says {expected}",
            file=sys.stderr,
        )
        return 1
    obj = {
        "algorithm": args.algo,
        "n": o.n,
        "start": start,
        "sink": sink,
        "wall_ms": wall_ms,
    }
    obj.update(payload)
    _emit(_json_dumps(obj), args.out)
    return 0


def cmd_enum(args) -> int:
    if args.census:
        result = enumeration.census(args.n)
        _emit(_json_dumps(result.to_json_obj()), args.out)
    else:
        count = enumeration.enumerate_all(args.n, heavy=args.heavy)
        _emit(_json_dumps({"n": args.n, "count": count}), args.out)
    return 0


def cmd_bench(args) -> int:
    lo, hi = args.n
    if lo > hi:
        raise ValueError(f"empty dimension range {lo}..{hi}")
    records: list[ExperimentRecord] = []
    means: list[tuple[int, float]] = []
    for n in range(lo, hi + 1):
        instance_seed = derive_seed(args.seed, n)
        o = build_family(args.family, n, instance_seed)
        cap = args.cap if args.cap is not None else 4**n
        batch = algo.walk_batch(o, args.algo, args.start, args.trials, instance_seed, cap)
        records.extend(_records_from_batch(batch, args.family, n, args.algo))
        means.append((n, float(batch.steps.mean())))
    _emit(_csv_text(records), args.out)
    if len(means) >= 2 and all(m > 0 for _, m in means):
        xs = np.log([n for n, _ in means])
        ys = np.log([m for _, m in means])
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"log-log slope of mean steps vs n: {slope:.3f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uso",
        description="Construct, validate, analyze, and solve unique sink orientations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an orientation family instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate an orientation file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="reachmap and niceness report")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("walk", help="run Random Edge or Bottom Antipodal trials")
    p.add_argument("path")
    p.add_argument("--algo", required=True, choices=("re", "ba"))
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--start", type=_parse_start, default="antipodal")
    p.add_argument("--label", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("solve", help="run a deterministic sink-finding algorithm")
    p.add_argument("path")
    p.add_argument("--algo", required=True, choices=("dre", "fs", "fsr"))
    p.add_argument("--start", type=_parse_start, default="antipodal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("enum", help="enumerate small-dimension USOs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--heavy", action="store_true")
    p.add_argument("--census", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("bench", help="sweep dimensions and emit per-run CSV")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--algo", required=True, choices=("re", "ba"))
    p.add_argument("--n", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--start", type=_parse_start, default="antipodal")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
