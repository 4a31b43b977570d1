"""Command-line front end.

Subcommands: gen, check, analyze, walk, solve, enum, bench. Exit codes are
0 on success, 1 on domain failures (invalid orientation files, files that
cannot be read or written, and every ``NotUSOError``: a failed check, a
``walk``/``solve`` input whose outmap is not a bijection, a solver's proof
that the input is not a USO), 2 on usage errors. ``main`` prints each as
one ``error: <message>`` line. All randomness is controlled by --seed and
outputs are deterministic for fixed flags.

Commands call the library (instances come from ``construct.build_family``)
and only render its results as text, JSON or CSV. An orientation file's
format follows its extension, by the one rule of :mod:`usolib.io`: ``uso
gen --out`` writes through ``write_orientation`` and every reading command
through ``read_orientation``, so each file ``gen`` writes reads back.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
import time
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import algo, construct, enumeration
from .bitops import coord_set_tables, full_mask, popcount
from .core import NotUSOError, first_uso_violation, is_acyclic, is_decomposable
from .io import _TEXT_BLOCK, ParseError, dumps_text, read_orientation, write_orientation
from .reach import niceness_index, reachmaps
from .rng import SIDE_INDEX, derive_seed

CSV_HEADER = "family,n,seed,steps,evaluations,capped"


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, or each of its parts in turn, to stdout or to the
    file ``out``."""
    parts = [text] if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(parts)
    else:
        with open(out, "w") as f:
            f.writelines(parts)


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
    o = construct.build_family(args.family, args.n, args.seed)
    if args.out is None or args.out == "-":
        sys.stdout.write(dumps_text(o))
    else:
        write_orientation(o, args.out)
    return 0


def cmd_check(args) -> int:
    o = read_orientation(args.path)
    if error := first_uso_violation(o):
        raise error
    print(f"ok: valid USO of dimension {o.n}")
    return 0


def cmd_analyze(args) -> int:
    """The full USO check, then the niceness report as text or JSON.

    Wall time and fresh-process ``ru_maxrss`` of the whole command at commit
    1a30974 (2-CPU host, Python 3.11, numpy 2.4), most of it in the full
    check: Klee-Minty n = 20 took 9.9-13.4 s at 95 MiB (four runs), random
    FMO n = 20 (seed 0) 14.1 s at 101 MiB, and Klee-Minty n = 22 146 s at
    252 MiB. The check grows about threefold per dimension, so n = 24
    extrapolates to about 20-25 min, and to at least the 606 MiB that
    :func:`~usolib.reach.niceness_index` peaks at there (not run).
    """
    o = read_orientation(args.path)
    if error := first_uso_violation(o):
        raise error
    report = niceness_index(o)
    decomposable = is_decomposable(o)
    acyclic = decomposable or is_acyclic(o)  # decomposable implies acyclic
    if args.format == "json":
        cover, witness = report.cover_distance.tolist(), report.witness.tolist()
        cover[report.sink] = witness[report.sink] = None  # the sink has no cover
        obj = dict(n=o.n, sink=report.sink, niceness_index=report.niceness_index, acyclic=acyclic,
                   decomposable=decomposable, cover_distance=cover, witness=witness)
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
    _emit(itertools.chain(["\n".join(lines) + "\n"], _analyze_rows(o, report)), args.out)
    return 0


def _analyze_rows(o, report) -> Iterator[str]:
    """The vertex rows of ``uso analyze``'s text, joined per block of
    ``_TEXT_BLOCK`` vertices and yielded block by block, so that no more
    than one block of rows is held: vertex, outmap, reachmap, cover distance
    and witness, with - for the sink's two. numpy computes each coordinate
    set's indices into the tables of :func:`~usolib.bitops.coord_set_tables`,
    so naming a set costs two list lookups and no call."""
    half, low, high = coord_set_tables(o.n)

    def indices(masks: np.ndarray) -> tuple[list[int], list[int]]:
        lo = masks & full_mask(half)
        return lo.tolist(), (2 * (masks >> half) + (lo != 0)).tolist()

    for k in range(0, o.vertex_count(), _TEXT_BLOCK):
        block = slice(k, k + _TEXT_BLOCK)
        cover, witness = report.cover_distance[block].tolist(), report.witness[block].tolist()
        if k <= report.sink < k + len(cover):  # the sink has no cover
            cover[report.sink - k] = witness[report.sink - k] = "-"
        outmap, reach = indices(o.outmap[block]), indices(report.reach.entries[block])
        rows = zip(range(k, k + len(cover)), *outmap, *reach, cover, witness)
        yield "\n".join(
            [f"{v} {low[a]}{high[b]} {low[c]}{high[d]} {dist} {w}" for v, a, b, c, d, dist, w in rows]
        ) + "\n"


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


def _summary(batch: algo.WalkBatch) -> dict:
    """Step statistics, capped count and mean evaluations of a batch: the
    ``summary`` object of ``uso walk``'s JSON."""
    steps = batch.steps
    qs = np.quantile(steps, [0.5, 0.9, 0.95, 0.99]).tolist()
    return {
        "trials": int(steps.size),
        "mean": float(steps.mean()),
        "variance": float(steps.var()),
        "max": int(steps.max()),
        "quantiles": dict(zip(("p50", "p90", "p95", "p99"), qs)),
        "capped_runs": int(batch.capped.sum()),
        "evaluations_mean": float(batch.evaluations.mean()),
    }


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
    obj = {
        "algorithm": args.algo,
        "family": label,
        "n": o.n,
        "cap": cap,
        "master_seed": args.seed,
        "start": str(args.start),
        "wall_ms": wall_ms,
        "summary": _summary(batch),
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


def _trace_json(o, trace: algo.SeesawTrace) -> dict:
    """The ``trace`` object of ``uso solve --algo fsr``: each iteration with
    the dimension of the face it solved (its index), and the reachmap size of
    every vertex the run reached, all from one
    :func:`~usolib.reach.reachmaps` call, so no reach table of the whole
    cube is built."""
    steps = zip(trace.coordinates, trace.step_evaluations)
    return {
        "iterations": [
            {"coordinate": c, "face_dimension": k, "evaluations": e} for k, (c, e) in enumerate(steps)
        ],
        "reachmap_sizes": [popcount(r) for r in reachmaps(o, trace.vertices)],
        "evaluations": trace.evaluations,
    }


def cmd_solve(args) -> int:
    o = read_orientation(args.path)
    start = algo.resolve_start(o, args.start, args.seed)
    started = time.perf_counter()
    if args.algo == "dre":
        stats = algo.derandomized_re(o, start)
        sink = stats.found_sink
        payload: dict = {"run": {"steps": stats.steps, "evaluations": stats.evaluations,
                                 "found_sink": sink, "seed": 0, "capped": False}}
    elif args.algo == "fs":
        sink, evaluations = algo.fibonacci_seesaw(o)
        payload = {"evaluations": evaluations}
    else:  # fsr
        sink, trace = algo.fs_revisited(o, start)
    wall_ms = int((time.perf_counter() - started) * 1000)
    if args.algo == "fsr":  # wall_ms times the solver, not the reachmaps
        payload = {"trace": _trace_json(o, trace)}
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
        # the trials read the master's indices 0..trials-1, the instance its
        # side value, and a random start its trial seed's side value (see rng)
        master = derive_seed(args.seed, n)
        o = construct.build_family(args.family, n, derive_seed(master, SIDE_INDEX))
        cap = args.cap if args.cap is not None else 4**n
        batch = algo.walk_batch(o, args.algo, args.start, args.trials, master, cap)
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
    p.add_argument("--family", required=True, choices=construct.FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--family", required=True, choices=construct.FAMILIES)
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
