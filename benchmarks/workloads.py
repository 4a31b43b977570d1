"""The benchmark's workloads: inputs made from a seed, the op cycle, and the
output checks.

Every op is one ``uso`` command line. A workload's ``prepare`` writes its
input files with ``uso gen`` and returns the cycle of ops that the runner
repeats. The checks use only the standard library and the input files the
benchmark wrote, so they do not depend on the code under test.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CENSUS_GOLDEN = ROOT / "tests" / "golden" / "census_n3.json"

#: check(stdout) -> None when the output is right, else the reason it is not
Check = Callable[[str], "str | None"]
#: gen(argv) runs one ``uso gen`` command and raises if it fails
Gen = Callable[[list[str]], None]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    #: the input the op reads; set-up warms up one op per distinct input
    input: str
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, Path, Gen], list[Op]]


def _coord_set(mask: int, n: int) -> str:
    return "{" + ",".join(str(j + 1) for j in range(n) if mask >> j & 1) + "}"


def _read_outmaps(path: Path) -> list[int]:
    """Outmap table of a USO-TEXT file, parsed without the library."""
    return [int(x) for x in path.read_text().split()[2:]]


def _unique_sink(outmaps: list[int]) -> int:
    sinks = [v for v, s in enumerate(outmaps) if s == 0]
    if len(sinks) != 1:
        raise ValueError(f"generated table has {len(sinks)} zero outmaps")
    return sinks[0]


def _generate(gen: Gen, workdir: Path, family: str, n: int, seed: int, tag: str) -> Path:
    path = workdir / f"{family}-{n}-{tag}.uso"
    gen(["gen", "--family", family, "--n", str(n), "--seed", str(seed), "--out", str(path)])
    return path


# ---------------------------------------------------------------- analyze-mid

#: niceness index by family, where the paper gives it in closed form
NICENESS = {
    "uniform": lambda n: 1,
    "km": lambda n: 1,
    "target-combed": lambda n: 1,
    "cyclic-lb": lambda n: n,
    "auso-lb": lambda n: n - 2,
}

ANALYZE_CORPUS_SEED = 0
#: (family, n, instances); random families get one seed per instance
ANALYZE_CORPUS = (
    ("uniform", 10, 1),
    ("km", 9, 1),
    ("km", 10, 1),
    ("km", 11, 1),
    ("cyclic-lb", 9, 1),
    ("cyclic-lb", 10, 1),
    ("auso-lb", 9, 1),
    ("auso-lb", 10, 1),
    ("fmo", 9, 2),
    ("fmo", 10, 2),
    ("fmo", 11, 1),
    ("target-combed", 9, 2),
    ("target-combed", 10, 2),
    ("target-combed", 11, 1),
    ("product", 10, 2),
    ("product", 11, 1),
)


def check_analyze(family: str, n: int, outmaps: list[int]) -> Check:
    sink = _unique_sink(outmaps)
    closed_form = NICENESS.get(family)

    def check(out: str) -> str | None:
        lines = out.splitlines()
        head = dict(line.split(": ", 1) for line in lines[:6])
        rows = [line.split() for line in lines[7:]]
        if head.get("n") != str(n) or head.get("uso") != "true":
            return f"header {head}"
        if len(rows) != len(outmaps):
            return f"{len(rows)} vertex rows, expected {len(outmaps)}"
        if head.get("sink") != str(sink):
            return f"sink {head.get('sink')}, table says {sink}"
        for v, row in enumerate(rows):
            if row[0] != str(v) or row[1] != _coord_set(outmaps[v], n):
                return f"vertex row {v} is {row[:2]}"
        covers = [int(row[3]) for row in rows if row[3] != "-"]
        index = int(head["niceness_index"])
        if index != max(covers):
            return f"niceness {index} but largest cover distance {max(covers)}"
        expected = closed_form(n) if closed_form else None
        if expected is not None and index != expected:
            return f"niceness {index}, closed form gives {expected}"
        if not 1 <= index <= n:
            return f"niceness {index} outside 1..{n}"
        return None

    return check


def prepare_analyze(seed: int, workdir: Path, gen: Gen) -> list[Op]:
    """The corpus is the same for every seed; the seed orders the cycle. The
    niceness cost of one random instance varies widely (fmo n=11 took 390 to
    670 ms over four seeds), and with seeded instances ops_per_s spread 0.13
    over five runs."""
    corpus = random.Random(ANALYZE_CORPUS_SEED)
    ops = []
    for family, n, instances in ANALYZE_CORPUS:
        for k in range(instances):
            path = _generate(gen, workdir, family, n, corpus.randrange(1 << 31), str(k))
            check = check_analyze(family, n, _read_outmaps(path))
            ops.append(Op(("analyze", str(path)), path.name, check))
    random.Random(seed).shuffle(ops)
    return ops


# ------------------------------------------------------------------- re-sweep

CSV_HEADER = ["family", "n", "seed", "steps", "evaluations", "capped"]
BA_CAP = 10_000
#: (family, algo, n, trials, extra flags). The points are listed by cost.
#: With k cycles of 10 points, the median op sits at rank 5k + 0.5 and the
#: p90 op at rank 9k + 0.9: in the middle of the samples of the two km n=16
#: points (ranks 4k + 1 to 6k) and of the two km n=18 points (8k + 1 to
#: 10k). Those ops cost the same for every seed, and a percentile in the
#: middle of a group of alike samples is steadier than one near its edge.
#: The BA point costs ≈0.1 s: a chunk of walk_batch with a capped trial runs
#: the whole cap in lockstep. It runs 900 trials, which fit in one chunk
#: (976 lanes at n=12); with 1000 trials the 24-trial second chunk capped for
#: some seeds only, doubling the op's cost.
SWEEP_POINTS = (
    ("cyclic-lb", "re", 16, 300, ()),
    ("km", "re", 14, 500, ()),
    ("cyclic-lb", "re", 18, 300, ()),
    ("cyclic-lb", "ba", 12, 900, ("--start", "random", "--cap", str(BA_CAP))),
    *(("km", "re", n, 500, ()) for n in (16, 16, 17, 17, 18, 18)),
)


def check_sweep(family: str, algo: str, n: int, trials: int) -> Check:
    cap = BA_CAP if algo == "ba" else 4**n

    def check(out: str) -> str | None:
        rows = list(csv.reader(io.StringIO(out)))
        if rows[0] != CSV_HEADER:
            return f"header {rows[0]}"
        if len(rows) - 1 != trials:
            return f"{len(rows) - 1} rows, expected {trials}"
        for row in rows[1:]:
            steps, evaluations, capped = int(row[3]), int(row[4]), row[5] == "true"
            if row[0] != family or row[1] != str(n):
                return f"row {row}"
            if capped and (algo == "re" or steps != cap):
                return f"capped trial {row}"
            if steps > cap:
                return f"more steps than the cap in {row}"
            if not 1 <= evaluations <= min(steps + 1, 1 << n):
                return f"evaluations out of range in {row}"
        return None

    return check


def prepare_sweep(seed: int, workdir: Path, gen: Gen) -> list[Op]:
    """The seed gives the trial seeds. The points run in the listed order:
    in a seeded order, peak RSS varied by 6 % between seeds, against 2.5 %
    in a fixed one. The input of a point is its cube, so the points that
    share a cube share one warm-up."""
    rng = random.Random(seed)
    ops = []
    for family, algo, n, trials, extra in SWEEP_POINTS:
        argv = (
            "bench", "--family", family, "--algo", algo, "--n", f"{n}..{n}",
            "--trials", str(trials), "--seed", str(rng.randrange(1 << 31)), *extra,
        )
        ops.append(Op(argv, f"{family} n={n}", check_sweep(family, algo, n, trials)))
    return ops


# ---------------------------------------------------------------- solve-large

WALK_TRIALS = 200
#: (family, n, ops run on that file); fsr on cyclic-lb takes reach_table's
#: SCC path. Loading the file is most of an op, so the ten ops fall into
#: three cost groups: three at n=14, four at n=15, and the two n=16 ops with
#: fsr on cyclic-lb. The median op, at rank 5k + 0.5 of k cycles, falls in
#: the middle of the n=15 group, and the p90 op inside the top group, not on
#: the edge between two groups.
SOLVE_CORPUS = (
    ("km", 16, ("dre", "walk")),
    ("fmo", 14, ("fsr", "walk")),
    ("target-combed", 15, ("dre", "walk")),
    ("cyclic-lb", 15, ("fs", "fsr", "walk")),
    ("auso-lb", 14, ("fs",)),
)


def check_solve(n: int, outmaps: list[int]) -> Check:
    sink = _unique_sink(outmaps)

    def check(out: str) -> str | None:
        obj = json.loads(out)
        evaluations = {
            "dre": lambda: obj["run"]["evaluations"],
            "fs": lambda: obj["evaluations"],
            "fsr": lambda: obj["trace"]["evaluations"],
        }[obj["algorithm"]]()
        if obj["n"] != n or obj["sink"] != sink:
            return f"sink {obj['sink']}, table says {sink}"
        if not 1 <= evaluations <= 1 << n:
            return f"{evaluations} evaluations at n={n}"
        return None

    return check


def check_walk(n: int) -> Check:
    def check(out: str) -> str | None:
        obj = json.loads(out)
        summary = obj["summary"]
        if obj["n"] != n or summary["trials"] != WALK_TRIALS:
            return f"n={obj['n']} trials={summary['trials']}"
        if summary["capped_runs"] != 0:
            return f"{summary['capped_runs']} capped walks"
        if not 1 <= summary["evaluations_mean"] <= 1 << n:
            return f"mean evaluations {summary['evaluations_mean']}"
        return None

    return check


def prepare_solve(seed: int, workdir: Path, gen: Gen) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for family, n, kinds in SOLVE_CORPUS:
        path = _generate(gen, workdir, family, n, rng.randrange(1 << 31), "0")
        outmaps = _read_outmaps(path)
        for kind in kinds:
            op_seed = str(rng.randrange(1 << 31))
            if kind == "walk":
                argv = ("walk", str(path), "--algo", "re", "--trials", str(WALK_TRIALS),
                        "--seed", op_seed)
                check = check_walk(n)
            else:
                argv = ("solve", str(path), "--algo", kind, "--start", "random",
                        "--seed", op_seed)
                check = check_solve(n, outmaps)
            ops.append(Op(argv, path.name, check))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- census-3


def check_census(out: str) -> str | None:
    if not CENSUS_GOLDEN.is_file():
        return f"reference {CENSUS_GOLDEN.name} is missing"
    if out != CENSUS_GOLDEN.read_text():
        return "census differs from the golden file"
    return None


def prepare_census(seed: int, workdir: Path, gen: Gen) -> list[Op]:
    return [Op(("enum", "--n", "3", "--census"), "n=3", check_census)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-mid",
            "uso analyze on n=9..11 files of seven families: niceness_index dominates; bypasses algo and enumeration",
            prepare_analyze,
        ),
        Workload(
            "re-sweep",
            "uso bench Random Edge on km n=14..18 and cyclic-lb n=16..18, capped Bottom Antipodal: walk_batch and construction",
            prepare_sweep,
        ),
        Workload(
            "solve-large",
            "uso solve dre/fs/fsr and uso walk on n=14..16 files: loading dominates; oracle solvers and SCC reach_table",
            prepare_solve,
        ),
        Workload(
            "census-3",
            "uso enum --n 3 --census: the only enumeration and canonical_form workload; 744 small niceness calls",
            prepare_census,
        ),
    )
}
