import json

import pytest

from helpers import first_edge_violation_pure, random_consistent_table
from usolib.bitops import bit
from usolib.cli import main
from usolib.construct import cyclic_full_reach, klee_minty, uniform
from usolib.core import Orientation
from usolib.io import (
    ParseError,
    dumps_json,
    dumps_text,
    loads_json,
    loads_text,
    read_orientation,
    write_orientation,
)
from usolib.rng import SplitMix64


def test_text_round_trip(tmp_path):
    o = uniform(3)
    path = tmp_path / "u3.uso"
    write_orientation(o, path)
    assert read_orientation(path) == o
    assert loads_text(dumps_text(klee_minty(4))) == klee_minty(4)


def test_json_round_trip(tmp_path):
    o = cyclic_full_reach(3)
    path = tmp_path / "c3.json"
    write_orientation(o, path)
    assert read_orientation(path) == o
    assert loads_json(dumps_json(o)) == o


def test_text_format_shape():
    text = dumps_text(uniform(2))
    assert text == "uso 2\n3\n2\n1\n0\n"


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("", "line 1"),
        ("oso 2\n3\n2\n1\n0\n", "header"),
        ("uso x\n", "not an integer"),
        ("uso 0\n", "dimension"),
        ("uso 2\n3\n2\n1\n", "expected 4"),
        ("uso 2\n3\n2\n1\n0\n9\n", "expected 4"),
        ("uso 2\n3\nbanana\n1\n0\n", "line 3"),
        ("uso 2\n3\n7\n1\n0\n", "out of range"),
    ],
)
def test_text_parse_errors(content, fragment):
    with pytest.raises(ParseError) as err:
        loads_text(content)
    assert fragment in str(err.value)


def test_text_loader_rejects_edge_inconsistent_table():
    # both endpoints of the coordinate-1 edge claim it outgoing
    with pytest.raises(ParseError) as err:
        loads_text("uso 1\n1\n1\n")
    assert "edge-inconsistent" in str(err.value)
    assert "line 2" in str(err.value)


def test_loader_names_the_first_inconsistent_edge():
    # the coordinate-1 edge between vertices 2 and 3 is incoming at both
    table = [3, 2, 0, 0]
    expect = "line 4: edge-inconsistent table (vertex 2, coordinate 1)"
    with pytest.raises(ParseError) as err:
        loads_text("uso 2\n" + "\n".join(map(str, table)) + "\n")
    assert str(err.value) == expect
    with pytest.raises(ParseError) as err:
        loads_json(json.dumps({"n": 2, "outmap": table}))
    assert str(err.value) == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_loader_error_text_matches_pure_edge_check(n):
    rng = SplitMix64(700 + n)
    for _ in range(20):
        table = random_consistent_table(n, rng).outmap.tolist()
        for _flip in range(1 + rng.randrange(2)):
            table[rng.randrange(1 << n)] ^= bit(rng.randrange(n) + 1)
        bad = first_edge_violation_pure(Orientation(n, table))
        if bad is None:
            continue
        v, j = bad
        expect = f"line {v + 2}: edge-inconsistent table (vertex {v}, coordinate {j})"
        with pytest.raises(ParseError) as err:
            loads_text(f"uso {n}\n" + "\n".join(map(str, table)) + "\n")
        assert str(err.value) == expect
        with pytest.raises(ParseError) as err:
            loads_json(json.dumps({"n": n, "outmap": table}))
        assert str(err.value) == expect


def test_json_parse_errors():
    with pytest.raises(ParseError):
        loads_json("{")
    with pytest.raises(ParseError):
        loads_json('{"n": 2}')
    with pytest.raises(ParseError):
        loads_json('{"n": 2, "outmap": [0, 1, 2]}')
    with pytest.raises(ParseError):
        loads_json('{"n": 1, "outmap": [1, 1]}')


# ---------------------------------------------------------------------------
# command-line interface


def test_gen_then_analyze_reports_niceness(tmp_path, capsys):
    path = tmp_path / "km3.uso"
    assert main(["gen", "--family", "km", "--n", "3", "--out", str(path)]) == 0
    assert main(["analyze", str(path)]) == 0
    out = capsys.readouterr().out
    assert "niceness_index: 1" in out
    assert "uso: true" in out


def test_analyze_json_format(tmp_path, capsys):
    path = tmp_path / "c3.uso"
    assert main(["gen", "--family", "cyclic-lb", "--n", "3", "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["niceness_index"] == 3
    assert obj["acyclic"] is False


@pytest.mark.parametrize(
    "family,n",
    [
        ("uniform", 4),
        ("km", 5),
        ("fmo", 5),
        ("target-combed", 5),
        ("cyclic-lb", 4),
        ("auso-lb", 5),
        ("product", 5),
    ],
)
def test_gen_families_produce_valid_usos(tmp_path, capsys, family, n):
    path = tmp_path / f"{family}.uso"
    code = main(
        ["gen", "--family", family, "--n", str(n), "--seed", "5", "--out", str(path)]
    )
    assert code == 0
    assert main(["check", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_names_the_violated_face(tmp_path, capsys):
    # edge-consistent but not a USO: directed 4-cycle on the 2-cube
    path = tmp_path / "bad.uso"
    path.write_text("uso 2\n1\n2\n2\n1\n")
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert "face" in err and "span={1,2}" in err and "0 sinks" in err


def test_check_rejects_corrupted_file(tmp_path, capsys):
    path = tmp_path / "corrupt.uso"
    path.write_text("uso 2\n3\n2\n1\n")
    assert main(["check", str(path)]) == 1
    assert "expected 4" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["gen", "--family", "km"]) == 2  # missing --n
    assert main(["gen", "--family", "nope", "--n", "3"]) == 2
    assert main(["walk", "x.uso", "--algo", "re", "--start", "middle"]) == 2
    capsys.readouterr()


def test_missing_file_is_domain_failure(capsys):
    assert main(["check", "/nonexistent/file.uso"]) == 1
    capsys.readouterr()


def test_walk_json_and_csv(tmp_path, capsys):
    path = tmp_path / "km5.uso"
    main(["gen", "--family", "km", "--n", "5", "--out", str(path)])
    assert (
        main(["walk", str(path), "--algo", "re", "--trials", "50", "--seed", "7"]) == 0
    )
    obj = json.loads(capsys.readouterr().out)
    assert obj["summary"]["trials"] == 50
    assert obj["summary"]["capped_runs"] == 0

    csv_path = tmp_path / "runs.csv"
    assert (
        main(
            [
                "walk",
                str(path),
                "--algo",
                "ba",
                "--trials",
                "10",
                "--seed",
                "7",
                "--format",
                "csv",
                "--label",
                "km",
                "--out",
                str(csv_path),
            ]
        )
        == 0
    )
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "family,n,seed,steps,evaluations,capped"
    assert len(lines) == 11
    assert all(line.startswith("km,5,") for line in lines[1:])


def test_walk_single_trial_includes_run(tmp_path, capsys):
    path = tmp_path / "u4.uso"
    main(["gen", "--family", "uniform", "--n", "4", "--out", str(path)])
    assert main(["walk", str(path), "--algo", "re", "--start", "0"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["run"]["steps"] == 4
    assert obj["run"]["capped"] is False


@pytest.mark.parametrize("algo", ["dre", "fs", "fsr"])
def test_solve_finds_the_sink(tmp_path, capsys, algo):
    path = tmp_path / "alb5.uso"
    main(["gen", "--family", "auso-lb", "--n", "5", "--out", str(path)])
    assert main(["solve", str(path), "--algo", algo]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sink"] == 31  # sink of the construction is the full vertex
    if algo == "fsr":
        assert obj["trace"]["evaluations"] >= 1


def test_enum_count_and_census(tmp_path, capsys):
    assert main(["enum", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "count": 12}
    assert main(["enum", "--n", "3", "--census"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total_uso"] == 744
    assert obj["cyclic"] == 16


def test_enum_heavy_guard(capsys):
    assert main(["enum", "--n", "4"]) == 2
    capsys.readouterr()


def test_enum_deterministic_across_runs(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("USO_THREADS", "1")
    assert main(["enum", "--n", "3", "--census", "--out", str(a)]) == 0
    monkeypatch.setenv("USO_THREADS", "4")
    assert main(["enum", "--n", "3", "--census", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_deterministic_and_sorted(tmp_path, monkeypatch, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = [
        "bench",
        "--family",
        "km",
        "--algo",
        "re",
        "--n",
        "4..6",
        "--trials",
        "60",
        "--seed",
        "7",
    ]
    monkeypatch.setenv("USO_THREADS", "1")
    assert main(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("USO_THREADS", "3")
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "family,n,seed,steps,evaluations,capped"
    assert len(lines) == 1 + 3 * 60
    rows = [line.split(",") for line in lines[1:]]
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)


def test_gen_stdout_and_json_format(capsys):
    assert main(["gen", "--family", "uniform", "--n", "2"]) == 0
    assert capsys.readouterr().out == "uso 2\n3\n2\n1\n0\n"
    assert main(["gen", "--family", "uniform", "--n", "2", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "outmap": [3, 2, 1, 0]}
