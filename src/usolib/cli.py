"""Command-line front end.

Subcommands: gen, check, analyze, walk, solve, enum, bench. Exit codes are
0 on success, 1 on domain failures (invalid orientation files, files that
cannot be read or written, and every ``NotUSOError``: a failed check, a
``walk``/``solve`` input whose outmap is not a bijection, a solver's proof
that the input is not a USO), 2 on usage errors. ``main`` prints each as
one ``error: <message>`` line. All randomness is controlled by --seed and
outputs are deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import algo, construct, enumeration
from .bitops import coord_set_formatter
from .core import NotUSOError, Orientation, is_acyclic, is_decomposable, uso_violation
from .io import ParseError, dumps_json, dumps_text, read_orientation
from .reach import niceness_index
from .rng import SplitMix64, derive_seed

FAMILIES = ("uniform", "km", "fmo", "target-combed", "cyclic-lb", "auso-lb", "product")

CSV_HEADER = "family,n,seed,steps,evaluations,capped"


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
    o = read_orientation(args.path)
    if error := uso_violation(o):
        raise error
    print(f"ok: valid USO of dimension {o.n}")
    return 0


def cmd_analyze(args) -> int:
    o = read_orientation(args.path)
    if error := uso_violation(o):
        raise error
    report = niceness_index(o)
    decomposable = is_decomposable(o)
    acyclic = decomposable or is_acyclic(o)  # decomposable implies acyclic
    if args.format == "json":
        obj = report.to_json_obj()
        obj["acyclic"] = acyclic
        obj["decomposable"] = decomposable
        _emit(_json_dumps(obj), args.out)
        return 0
    lines = [
        f"n: {o.n}",
        f"uso: true",
        f"acyclic: {'true' if acyclic else 'false'}",
        f"decomposable: {'true' if decomposable else 'false'}",
        f"sink: {report.sink}",
        f"niceness_index: {report.niceness_index}",
        "vertex outmap reachmap cover_distance witness",
    ]
    name = coord_set_formatter(o.n)
    columns = (o.outmap, report.reach.entries, report.cover_distance, report.witness)
    rows = len(lines)
    lines += [
        f"{v} {name(s)} {name(r)} {d} {w}"
        for v, (s, r, d, w) in enumerate(zip(*(c.tolist() for c in columns)))
    ]
    # the sink has no cover: its outmap and reachmap are empty
    lines[rows + report.sink] = f"{report.sink} {{}} {{}} - -"
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _csv_rows(batch: algo.WalkBatch, label: str, n: int) -> list[str]:
    """One fixed 6-column row per trial, in ascending seed order. Timing is
    reported only in JSON output so that repeated runs stay byte-identical."""
    order = np.argsort(batch.seeds, kind="stable")
    columns = (batch.seeds, batch.steps, batch.evaluations, batch.capped)
    return [
        f"{label},{n},{seed},{steps},{evals},{'true' if capped else 'false'}"
        for seed, steps, evals, capped in zip(*(c[order].tolist() for c in columns))
    ]


def _csv_text(rows: list[str]) -> str:
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def cmd_walk(args) -> int:
    o = read_orientation(args.path)
    cap = args.cap if args.cap is not None else 4 ** o.n
    started = time.perf_counter()
    batch = algo.walk_batch(o, args.algo, args.start, args.trials, args.seed, cap)
    wall_ms = int((time.perf_counter() - started) * 1000)
    label = args.label or Path(args.path).stem
    if args.format == "csv":
        _emit(_csv_text(_csv_rows(batch, label, o.n)), args.out)
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
        "summary": dataclasses.asdict(summary),
    }
    if args.trials == 1:
        obj["run"] = {
            "family": label,
            "n": o.n,
            "seed": int(batch.seeds[0]),
            "algorithm": args.algo,
            "steps": int(batch.steps[0]),
            "evaluations": int(batch.evaluations[0]),
            "capped": bool(batch.capped[0]),
        }
    _emit(_json_dumps(obj), args.out)
    return 0


def cmd_solve(args) -> int:
    o = read_orientation(args.path)
    start = algo.resolve_start(o, args.start, args.seed)
    started = time.perf_counter()
    if args.algo == "dre":
        stats = algo.derandomized_re(o, start)
        sink = stats.found_sink
        payload: dict = {"run": dataclasses.asdict(stats)}
    elif args.algo == "fs":
        sink, evaluations = algo.fibonacci_seesaw(o)
        payload = {"evaluations": evaluations}
    else:  # fsr
        sink, trace = algo.fs_revisited(o, start)
        payload = {"trace": dataclasses.asdict(trace)}
    wall_ms = int((time.perf_counter() - started) * 1000)
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
        _emit(_json_dumps(dataclasses.asdict(result)), args.out)
    else:
        count = enumeration.enumerate_all(args.n)
        _emit(_json_dumps({"n": args.n, "count": count}), args.out)
    return 0


def cmd_bench(args) -> int:
    lo, hi = args.n
    if lo > hi:
        raise ValueError(f"empty dimension range {lo}..{hi}")
    rows: list[str] = []
    means: list[tuple[int, float]] = []
    for n in range(lo, hi + 1):
        instance_seed = derive_seed(args.seed, n)
        o = build_family(args.family, n, instance_seed)
        cap = args.cap if args.cap is not None else 4**n
        batch = algo.walk_batch(o, args.algo, args.start, args.trials, instance_seed, cap)
        rows.extend(_csv_rows(batch, args.family, n))
        means.append((n, float(batch.steps.mean())))
    _emit(_csv_text(rows), args.out)
    if len(means) >= 2 and all(m > 0 for _, m in means):
        xs = np.log([n for n, _ in means])
        ys = np.log([m for _, m in means])
        slope = float(np.polyfit(xs, ys, 1)[0])
        print(f"log-log slope of mean steps vs n: {slope:.3f}", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``uso`` parser, built once per process."""
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
    except (ParseError, OSError, NotUSOError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
