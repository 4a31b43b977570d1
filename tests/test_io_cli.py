import hashlib
import json
import types

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import (
    analyze_text_by_lines,
    assert_owns_a_fresh_table,
    dumps_text_by_lines,
    first_edge_violation_pure,
    first_uso_violation_by_face_scan,
    flipped_edge,
    loads_text_by_lines,
    random_consistent_table,
    randrange,
)
import usolib.algo
import usolib.cli
import usolib.core
import usolib.reach
from usolib.bitops import bit, format_coord_set
from usolib.cli import main
from usolib.construct import (
    FAMILIES,
    build_family,
    cyclic_full_reach,
    klee_minty,
    random_fmo,
    uniform,
)
from usolib.core import Orientation, is_acyclic, is_decomposable
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
    expect = "edge-inconsistent table (vertex 2, coordinate 1)"
    with pytest.raises(ParseError) as err:
        loads_text("uso 2\n" + "\n".join(map(str, table)) + "\n")
    assert str(err.value) == "line 4: " + expect
    with pytest.raises(ParseError) as err:
        loads_json(json.dumps({"n": 2, "outmap": table}))
    assert str(err.value) == "outmap entry 2: " + expect


@pytest.mark.parametrize("n", range(1, 9))
def test_loader_error_text_matches_pure_edge_check(n):
    rng = SplitMix64(700 + n)
    for _ in range(20):
        table = random_consistent_table(n, rng).outmap.tolist()
        for _flip in range(1 + randrange(rng, 2)):
            table[randrange(rng, 1 << n)] ^= bit(randrange(rng, n) + 1)
        bad = first_edge_violation_pure(Orientation(n, table))
        if bad is None:
            continue
        v, j = bad
        expect = f"edge-inconsistent table (vertex {v}, coordinate {j})"
        with pytest.raises(ParseError) as err:
            loads_text(f"uso {n}\n" + "\n".join(map(str, table)) + "\n")
        assert str(err.value) == f"line {v + 2}: {expect}"
        with pytest.raises(ParseError) as err:
            loads_json(json.dumps({"n": n, "outmap": table}))
        assert str(err.value) == f"outmap entry {v}: {expect}"


#: what an edit writes into a line: nothing, line ends that
#: ``str.splitlines`` honours, characters that ``int`` skips, reads or
#: rejects (a lone surrogate has no UTF-8 encoding), and values that are
#: too wide or out of range ({top} is 2**n)
_SNIPPETS = ["", "\n", "\n\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", " ", "\t",
             "+", "-", "_", "0", "9", "000000000", "\u0663", "\ud800", "x", "{top}", "-1"]
#: headers that are not exactly ``uso <n>`` ({m} is n + 1)
_BAD_HEADERS = ["uso 0{n}", "uso  {n}", "uso\x0c{n}", "uso {n}\r", " uso {n}", "uso {n} ",
                "uso {m}", "uso 016", "uso  16", "uso\x0c16", "uso 16\r"]
#: (kind, line, offset, snippet): write the snippet into a body line's
#: digits or over its line end; line -1 is the last
_EDITS = st.tuples(
    st.sampled_from(["insert", "replace", "end"]),
    st.integers(-1, 1 << 7),
    st.integers(0, 8),
    st.sampled_from(_SNIPPETS),
)


def _edit(rows: list[list[str]], n: int, kind: str, k: int, at: int, snippet: str) -> None:
    """Apply one edit to the body of an n-cube's text held as [digits, line
    end] rows."""
    row = rows[k % len(rows)]
    snippet = snippet.format(top=1 << n)
    if kind == "end":
        row[1] = snippet
    else:
        at %= len(row[0]) + 1
        row[0] = row[0][:at] + snippet + row[0][at + (kind == "replace") :]


@st.composite
def _mutated_texts(draw):
    """Texts of a dumped random edge-consistent table: after up to one edit,
    each snippet written by a second edit, and the last text also under a
    header that is not exactly ``uso <n>``."""
    n = draw(st.integers(1, 7))
    table = random_consistent_table(n, SplitMix64(draw(st.integers(0, 2**64 - 1))))
    rows = [[str(v), "\n"] for v in table.outmap.tolist()]
    for edit in draw(st.lists(_EDITS, max_size=1)):
        _edit(rows, n, *edit)
    kind, k, at, _ = draw(_EDITS)
    bodies = []
    for snippet in _SNIPPETS:
        edited = [list(row) for row in rows]
        _edit(edited, n, kind, k, at, snippet)
        bodies.append("".join(map("".join, edited)))
    header = draw(st.sampled_from(_BAD_HEADERS)).format(n=n, m=n + 1)
    return [f"uso {n}\n{body}" for body in bodies] + [f"{header}\n{bodies[-1]}"]


def _load(load, text):
    try:
        return load(text)
    except ParseError as exc:
        return str(exc)


@seed(2016)
@settings(max_examples=300, deadline=None)
@given(_mutated_texts())
def test_text_loader_matches_the_line_oracle_on_mutated_texts(texts):
    for text in texts:
        assert _load(loads_text, text) == _load(loads_text_by_lines, text)


#: the smallest dimension each ``uso gen`` family builds
_MIN_DIMENSION = {"cyclic-lb": 3, "auso-lb": 4, "product": 2}


@pytest.mark.parametrize("family", [*FAMILIES, "random-consistent"])
def test_bulk_decode_accepts_every_dumped_table(family):
    for n in range(_MIN_DIMENSION.get(family, 1), 13):
        if family == "random-consistent":
            o = random_consistent_table(n, SplitMix64(900 + n))
        else:
            o = build_family(family, n, seed=n)
        text = dumps_text(o)
        assert text == dumps_text_by_lines(o), (family, n)
        assert np.array_equal(loads_text(text).outmap, o.outmap), (family, n)


#: uniform(4) in USO-TEXT: line k + 2 holds vertex k's outmap 15 - k, so
#: line 7 holds 10 and line 14 holds 3
_U4 = dumps_text(uniform(4))
#: uniform(4)'s text with one line replaced: name -> (line k, its new text,
#: the error that names line k, or None when the text still reads as
#: uniform(4))
_LINE_EDITS = {
    "leading-zeros": (7, "0010", None),
    "leading-zeros-past-width": (7, "0" * 40 + "10", None),
    "header-leading-zero": (1, "uso 04", None),
    "plus": (7, "+10", "not a decimal outmap value: '+10'"),
    "space": (7, " 10", "not a decimal outmap value: ' 10'"),
    "underscore": (7, "1_0", "not a decimal outmap value: '1_0'"),
    "arabic-digit": (14, "\u0663", "not a decimal outmap value: '\u0663'"),
    "superscript": (14, "\u00b3", "not a decimal outmap value: '\u00b3'"),
    "lone-cr": (7, "1\r0", "not a decimal outmap value: '1\\r0'"),
    "vertical-tab": (7, "10\x0b", "not a decimal outmap value: '10\\x0b'"),
    "empty-line": (7, "", "not a decimal outmap value: ''"),
    "out-of-range": (7, "26", "outmap value 26 out of range"),
    "out-of-range-past-width": (7, "1" + "0" * 30, f"outmap value 1{'0' * 30} out of range"),
    "header-two-spaces": (1, "uso  4", "expected 'uso <n>' header"),
    "header-trailing-space": (1, "uso 4 ", "expected 'uso <n>' header"),
    "header-form-feed": (1, "uso 4\x0c", "dimension is not an integer"),
}


def _with_line(k: int, raw: str) -> str:
    lines = _U4.split("\n")
    lines[k - 1] = raw
    return "\n".join(lines)


#: every edge case of the grammar: name -> (text, error or None)
_GRAMMAR_EDGES = {
    "crlf": (_U4.replace("\n", "\r\n"), None),
    "no-final-newline": (_U4.removesuffix("\n"), None),
    "trailing-empty-lines": (_U4 + "\n\r\n\n", None),
    "final-lone-cr": (_U4.removesuffix("\n") + "\r", "line 17: not a decimal outmap value: '0\\r'"),
    **{
        name: (_with_line(k, raw), error and f"line {k}: {error}")
        for name, (k, raw, error) in _LINE_EDITS.items()
    },
}


@pytest.mark.parametrize("text,error", _GRAMMAR_EDGES.values(), ids=_GRAMMAR_EDGES)
def test_text_grammar_edge_cases(text, error):
    # accepted texts read as uniform(4); refused ones name their line
    expected = uniform(4) if error is None else error
    assert _load(loads_text, text) == expected
    assert _load(loads_text_by_lines, text) == expected


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_reads_back_from_crlf_text(family, tmp_path):
    for n in range(_MIN_DIMENSION.get(family, 1), 11):
        o = build_family(family, n, seed=n)
        path = tmp_path / f"{family}{n}.uso"
        path.write_bytes(dumps_text(o).replace("\n", "\r\n").encode())
        assert read_orientation(path) == o, (family, n)


def test_read_orientation_translates_no_newlines(tmp_path):
    # a lone CR is not a line end in a file either
    text = "uso 2\n3\r2\n1\n0\n"
    path = tmp_path / "u2.uso"
    path.write_bytes(text.encode())
    expect = "line 4: expected 4 outmap lines for n=2, got 3"
    assert _load(read_orientation, path) == _load(loads_text, text) == expect


def test_read_orientation_parses_a_text_file_as_its_bytes(tmp_path):
    # an ASCII file is parsed as read and any other UTF-8 file is decoded
    # first; both read as loads_text reads the text
    path = tmp_path / "u2.uso"
    for text in ("uso 2\n3\n2\n1\n0\n", "uso 2\n3\n2\n\u0663\n0\n", "uso 2\r\n3\n2\n1\n\u00a0\n"):
        path.write_bytes(text.encode())
        assert _load(read_orientation, path) == _load(loads_text, text)


def test_the_loaders_own_their_tables(tmp_path):
    o = klee_minty(5)
    for suffix, dumps, loads in ((".uso", dumps_text, loads_text), (".json", dumps_json, loads_json)):
        path = tmp_path / f"km5{suffix}"
        path.write_text(dumps(o))
        for loaded in (read_orientation(path), loads(dumps(o))):
            assert loaded == o
            assert_owns_a_fresh_table(loaded, o.outmap)


def test_dumps_text_across_a_block_boundary():
    # 2**17 values fill two of the writer's 2**16-value blocks
    o = klee_minty(17)
    assert dumps_text(o) == dumps_text_by_lines(o)


def test_json_parse_errors():
    with pytest.raises(ParseError):
        loads_json("{")
    with pytest.raises(ParseError):
        loads_json('{"n": 2}')
    with pytest.raises(ParseError):
        loads_json('{"n": 2, "outmap": [0, 1, 2]}')
    with pytest.raises(ParseError):
        loads_json('{"n": 1, "outmap": [1, 1]}')
    # JSON booleans are Python bools, which isinstance() counts as ints
    with pytest.raises(ParseError, match="'n' must be an integer"):
        loads_json('{"n": true, "outmap": [1, 0]}')
    with pytest.raises(ParseError, match="outmap entry 0 is not an integer"):
        loads_json('{"n": 1, "outmap": [true, false]}')


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
    assert obj["cover_distance"][obj["sink"]] is None and obj["witness"][obj["sink"]] is None
    assert len(obj["witness"]) == 8


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
    assert err == "error: not a USO: face span={1,2} anchor={} has 0 sinks\n"
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == err


def test_check_and_analyze_name_a_face_found_depth_first(tmp_path, capsys):
    # at n = 14 the USO check sweeps coordinates 1..13 and searches spans
    # with coordinate 14 depth first; an edge flipped along 14 is found there
    rng = SplitMix64(4)
    o = flipped_edge(random_fmo(14, rng), randrange(rng, 1 << 14), 14)
    face, count = first_uso_violation_by_face_scan(o)
    assert face.span & bit(14)
    path = tmp_path / "flipped.uso"
    write_orientation(o, path)
    expected = (
        f"error: not a USO: face span={format_coord_set(face.span)} "
        f"anchor={format_coord_set(face.anchor)} has {count} sinks\n"
    )
    for command in ("check", "analyze"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)


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


@pytest.mark.parametrize("command", [["walk", "--algo", "re"], ["solve", "--algo", "fsr"]])
@pytest.mark.parametrize("outmaps, sinks", [([0, 3, 3, 0], 2), ([1, 2, 2, 1], 0)])
def test_walk_and_solve_reject_other_than_one_sink(tmp_path, capsys, command, outmaps, sinks):
    path = tmp_path / "bad.uso"
    path.write_text("uso 2\n" + "".join(f"{s}\n" for s in outmaps))
    assert main([command[0], str(path)] + command[1:]) == 1
    assert f"not a USO: {sinks} vertices have an empty outmap" in capsys.readouterr().err


@pytest.mark.parametrize("start", range(4))
def test_solve_exits_1_when_the_seesaw_proves_a_non_uso(tmp_path, capsys, start):
    # edge-consistent with one sink, but not a USO: a domain failure, not usage
    path = tmp_path / "bad.uso"
    path.write_text("uso 3\n" + "".join(f"{s}\n" for s in [5, 6, 6, 5, 3, 2, 1, 0]))
    assert main(["solve", str(path), "--algo", "fsr", "--start", str(start)]) == 1
    assert "not a USO" in capsys.readouterr().err


def test_analyze_runs_the_full_check_before_niceness(tmp_path, capsys):
    # bijective and edge-consistent, but vertex 6 has no edge towards the
    # sink 0, so niceness_index would name the pair (0, 6); the full check
    # runs first and names the least bad face, the 2-face {2,3} through 0
    path = tmp_path / "bijective.uso"
    path.write_text("uso 3\n" + "".join(f"{s}\n" for s in [0, 3, 6, 5, 7, 4, 1, 2]))
    assert main(["analyze", str(path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "",
        "error: not a USO: face span={2,3} anchor={} has 2 sinks\n",
    )


NOT_USO_3 = "uso 3\n" + "".join(f"{s}\n" for s in [5, 6, 6, 5, 3, 2, 1, 0])


#: what the outmap gate of ``walk`` and ``solve`` prints for NOT_USO_3:
#: vertices 1 and 2 share the outmap {2,3}
NOT_USO_3_PAIR = "error: not a USO: vertices 1 and 2 differ on {1,2} but their outmaps agree there\n"


@pytest.mark.parametrize("command", [["walk", "--algo", "re"], ["solve", "--algo", "dre"]])
def test_start_source_without_one_full_outmap_exits_1(tmp_path, capsys, command):
    # one sink (7), but no vertex has the full outmap, so the outmap is not
    # a bijection: a domain failure naming two vertices with one outmap
    path = tmp_path / "bad.uso"
    path.write_text(NOT_USO_3)
    assert main([command[0], str(path)] + command[1:] + ["--start", "source"]) == 1
    assert capsys.readouterr().err == NOT_USO_3_PAIR


@pytest.mark.parametrize("start", [str(v) for v in range(8)] + ["antipodal", "random", "source"])
def test_fs_exits_1_on_a_one_sink_non_uso_from_every_start(tmp_path, capsys, start):
    # every walk and solver meets the outmap gate before it starts, so none
    # answers on this table from any start
    path = tmp_path / "bad.uso"
    path.write_text(NOT_USO_3)
    for command in (
        ["walk", "--algo", "re"],
        ["walk", "--algo", "ba"],
        ["solve", "--algo", "dre"],
        ["solve", "--algo", "fs"],
        ["solve", "--algo", "fsr"],
    ):
        assert main([command[0], str(path)] + command[1:] + ["--start", start]) == 1, command
        assert capsys.readouterr().err == NOT_USO_3_PAIR, command


#: sha256 prefix of the stdout of each command from the starts source,
#: antipodal, random and 17 on ``gen --family fmo --n 6 --seed 3``, with
#: wall_ms read as 0, taken while the CLI still gated twice: gating once
#: must change no byte
_GATED_STDOUT = {
    "walk-re": ("70d769709720ecd8", ["walk", "--algo", "re", "--trials", "1"]),
    "walk-ba-csv": (
        "9699abc4327f5e08",
        ["walk", "--algo", "ba", "--trials", "20", "--format", "csv"],
    ),
    "solve-dre": ("fb6edc76cda4f389", ["solve", "--algo", "dre"]),
    "solve-fs": ("7de00b256532329e", ["solve", "--algo", "fs"]),
    "solve-fsr": ("8f9430166f71afe3", ["solve", "--algo", "fsr"]),
}


@pytest.mark.parametrize("name", list(_GATED_STDOUT))
def test_walk_and_solve_pass_the_gate_once(tmp_path, capsys, monkeypatch, name):
    digest, command = _GATED_STDOUT[name]
    path = tmp_path / "fmo6.uso"
    assert main(["gen", "--family", "fmo", "--n", "6", "--seed", "3", "--out", str(path)]) == 0
    calls = []
    gate = usolib.core.sink_and_source

    def counted(o):
        calls.append(o)
        return gate(o)

    for module in (usolib.core, usolib.algo, usolib.reach):
        monkeypatch.setattr(module, "sink_and_source", counted)
    monkeypatch.setattr(usolib.cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    capsys.readouterr()
    out = []
    for start in ("source", "antipodal", "random", "17"):
        calls.clear()
        argv = [command[0], str(path), *command[1:], "--seed", "5", "--start", start]
        assert main(argv) == 0
        assert len(calls) == 1, start
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest()[:16] == digest


#: sha256 prefix of the stdout of ``uso solve`` from the starts source,
#: antipodal, random and 0 on ``gen --family <f> --n <n> --seed 3`` for every
#: family and n = 4..8, with wall_ms read as 0; the records are rendered in
#: ``cmd_solve``, so a change to a solver's return type must change no byte
_SOLVE_STDOUT = {"dre": "81b3e80be6896f6c", "fs": "41afd8f881c6f47c", "fsr": "5edd58bdc10205b9"}


@pytest.mark.parametrize("solver", list(_SOLVE_STDOUT))
def test_solve_output_is_pinned_on_every_family(tmp_path, capsys, monkeypatch, solver):
    monkeypatch.setattr(usolib.cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    out = []
    for family in FAMILIES:
        for n in range(4, 9):
            path = str(tmp_path / f"{family}{n}.uso")
            assert main(["gen", "--family", family, "--n", str(n), "--seed", "3", "--out", path]) == 0
            for start in ("source", "antipodal", "random", "0"):
                argv = ["solve", path, "--algo", solver, "--seed", "3", "--start", start]
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest()[:16] == _SOLVE_STDOUT[solver]


def test_enum_count_and_census(tmp_path, capsys):
    assert main(["enum", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "count": 12}
    assert main(["enum", "--n", "3", "--census"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["total_uso"] == 744
    assert obj["cyclic"] == 16


def test_enum_heavy_guard(capsys):
    assert main(["enum", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 4, "count": 5541744}
    assert main(["enum", "--n", "5"]) == 2
    assert main(["enum", "--n", "4", "--heavy"]) == 2
    capsys.readouterr()


def test_enum_deterministic_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["enum", "--n", "3", "--census", "--out", str(a)]) == 0
    assert main(["enum", "--n", "3", "--census", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_deterministic_and_sorted(tmp_path, capsys):
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
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "family,n,seed,steps,evaluations,capped"
    assert len(lines) == 1 + 3 * 60
    rows = [line.split(",") for line in lines[1:]]
    keys = [(r[0], int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_walk_and_bench_bytes_are_pinned(tmp_path, capsys):
    # sha256 prefixes of outputs with capped and uncapped trials; any change
    # to the walks, the seeds, the row order or the formatting shows here
    bench = ["bench", "--family", "cyclic-lb", "--algo", "re", "--n", "3..6"]
    assert main(bench + ["--trials", "200", "--seed", "7", "--cap", "20"]) == 0
    out = capsys.readouterr().out
    assert out.count(",true\n") == 5
    assert _digest(out) == "48f927c20f0c79b8"

    path = tmp_path / "c5.uso"
    assert main(["gen", "--family", "cyclic-lb", "--n", "5", "--out", str(path)]) == 0
    walk = ["walk", str(path), "--algo", "ba", "--start", "random", "--trials", "300"]
    assert main(walk + ["--cap", "7", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.count(",true\n") == 95
    assert _digest(out) == "1711a6900914ba11"

    assert main(["walk", str(path), "--algo", "re", "--trials", "1", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert _digest("".join(line for line in lines if "wall_ms" not in line)) == (
        "2b0bccca78b1540a"
    )


def test_bench_bytes_are_pinned_across_stream_blocks(capsys):
    # Random Edge walks that end at 31, 32 and 33 steps and reach 66, on
    # either side of the engine's 32-step stream blocks
    argv = ["bench", "--family", "km", "--algo", "re", "--n", "10..12"]
    assert main(argv + ["--trials", "200", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    steps = {int(line.split(",")[3]) for line in out.splitlines()[1:]}
    assert {31, 32, 33} <= steps and max(steps) == 66
    assert _digest(out) == "be07d46ad33f67df"


@pytest.mark.parametrize(
    "family, digest",
    [
        ("fmo", "c862d42e00152a52"),
        ("target-combed", "ad7d1b1598614762"),
        ("product", "b28305262105b381"),
    ],
)
def test_random_family_bench_bytes_are_pinned(capsys, family, digest):
    # the instance is built from its dimension master's side value, apart
    # from the trial seeds, which are the master's first values
    argv = ["bench", "--family", family, "--algo", "re", "--n", "5..7", "--trials", "50"]
    assert main(argv + ["--seed", "7"]) == 0
    assert _digest(capsys.readouterr().out) == digest


def test_walk_summary_bytes_are_pinned(tmp_path, capsys):
    # the summary of a multi-trial walk, with capped runs and fractional
    # statistics; the sha256 prefix is of the output without its wall_ms line
    path = tmp_path / "c5.uso"
    assert main(["gen", "--family", "cyclic-lb", "--n", "5", "--out", str(path)]) == 0
    walk = ["walk", str(path), "--algo", "re", "--start", "random", "--trials", "300"]
    assert main(walk + ["--seed", "3", "--cap", "9"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)["summary"]
    assert summary["trials"] == 300 and summary["capped_runs"] > 0
    lines = out.splitlines(keepends=True)
    assert _digest("".join(line for line in lines if "wall_ms" not in line)) == (
        "31858dcbd924c840"
    )


_FSR_RANDOM_11 = ["--algo", "fsr", "--start", "random", "--seed", "11"]


@pytest.mark.parametrize(
    "family, solve, digest",
    [
        (["cyclic-lb", "--n", "7"], ["--algo", "dre", "--start", "0"], "0bfb25548f892f30"),
        (
            ["fmo", "--n", "9", "--seed", "3"],
            ["--algo", "dre", "--start", "random", "--seed", "11"],
            "698155bfa670ae8b",
        ),
        (
            ["target-combed", "--n", "10", "--seed", "4"],
            ["--algo", "dre", "--start", "777"],
            "cae20edbe6ed4f4d",
        ),
        (["cyclic-lb", "--n", "7"], ["--algo", "fsr", "--start", "5"], "eeb394a2cb0acbe0"),
        # fsr traces whose reachmap searches end at each of their stops
        (["fmo", "--n", "13", "--seed", "2"], _FSR_RANDOM_11, "59fb5aef1ed0ae96"),
        (["cyclic-lb", "--n", "13", "--seed", "2"], _FSR_RANDOM_11, "1db23cc89b502140"),
        (["product", "--n", "13", "--seed", "2"], _FSR_RANDOM_11, "fa664d19c488007c"),
        (["target-combed", "--n", "13", "--seed", "2"], _FSR_RANDOM_11, "17e59f988fa198fb"),
    ],
)
def test_solve_bytes_are_pinned(tmp_path, capsys, family, solve, digest):
    # sha256 prefixes of the solve output without its wall_ms line
    path = tmp_path / "o.uso"
    assert main(["gen", "--family", *family, "--out", str(path)]) == 0
    assert main(["solve", str(path), *solve]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert _digest("".join(line for line in lines if "wall_ms" not in line)) == digest


@pytest.mark.parametrize(
    "family, n, digest",
    [
        ("uniform", 6, "8a98342f3b47231e"),
        ("km", 6, "896c6105cd7b3292"),
        ("fmo", 6, "65dc735681025aa0"),
        ("target-combed", 6, "bb2da5190b3d8093"),
        ("cyclic-lb", 6, "d5d81cc52cd40b94"),
        ("auso-lb", 6, "8b044fc8b447a1c5"),
        ("product", 6, "f6d679ee1f634315"),
        ("auso-lb", 10, "e35782318c7759cb"),
        ("target-combed", 10, "1e3e87ff17589099"),
    ],
)
def test_gen_bytes_are_pinned(capsys, family, n, digest):
    # sha256 prefixes of the USO-TEXT output with seed 3
    assert main(["gen", "--family", family, "--n", str(n), "--seed", "3"]) == 0
    assert _digest(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "family, text_digest, json_digest",
    [
        (["cyclic-lb", "--n", "5"], "73f51665b8f11aaa", "56b82f465c887e32"),
        (["fmo", "--n", "6"], "8ddd6c0edc289268", "a6e746fe40d2c080"),
        (["auso-lb", "--n", "10"], "b16a7c4745c0cc20", "d00c87c5c36973b9"),
        (["fmo", "--n", "10"], "b9ff6bf2775c1da7", "6db08a8bf0029eac"),
    ],
)
def test_analyze_bytes_are_pinned(tmp_path, capsys, family, text_digest, json_digest):
    path = tmp_path / "o.uso"
    assert main(["gen", "--family", *family, "--seed", "3", "--out", str(path)]) == 0
    assert main(["analyze", str(path)]) == 0
    assert _digest(capsys.readouterr().out) == text_digest
    assert main(["analyze", str(path), "--format", "json"]) == 0
    assert _digest(capsys.readouterr().out) == json_digest


@pytest.mark.parametrize("block", [None, 7], ids=["block-default", "block-7"])
@pytest.mark.parametrize("family", ["uniform", "km", "fmo", "cyclic-lb"])
def test_analyze_text_matches_a_rendering_through_format_coord_set(
    tmp_path, capsys, monkeypatch, family, block
):
    # n = 1 and odd n are the edge cases of the two half tables; blocks of 7
    # rows put block ends and the sink at many offsets
    if block is not None:
        monkeypatch.setattr(usolib.cli, "_TEXT_BLOCK", block)
    path = tmp_path / "o.uso"
    for n in range(3 if family == "cyclic-lb" else 1, 13):
        o = build_family(family, n, n)
        write_orientation(o, path)
        assert main(["analyze", str(path)]) == 0
        report = usolib.reach.niceness_index(o)
        expected = analyze_text_by_lines(o, report, is_acyclic(o), is_decomposable(o))
        assert capsys.readouterr().out == expected
        # --out writes the blocks one after another, as stdout gets them
        assert main(["analyze", str(path), "--out", str(tmp_path / "o.txt")]) == 0
        assert (tmp_path / "o.txt").read_text() == expected


@pytest.mark.parametrize("cap", ["0", "-3"])
@pytest.mark.parametrize("command", ["walk", "bench"])
def test_walk_and_bench_reject_a_cap_below_1(tmp_path, capsys, command, cap):
    path = tmp_path / "km4.uso"
    assert main(["gen", "--family", "km", "--n", "4", "--out", str(path)]) == 0
    if command == "walk":
        argv = ["walk", str(path), "--trials", "2", "--format", "csv"]
    else:
        argv = ["bench", "--family", "km", "--n", "4", "--trials", "2"]
    assert main(argv + ["--algo", "re", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: cap must be >= 1\n")


def test_gen_stdout_and_json_format(tmp_path, capsys):
    assert main(["gen", "--family", "uniform", "--n", "2"]) == 0
    assert capsys.readouterr().out == "uso 2\n3\n2\n1\n0\n"
    # the extension names the format; gen has no --format of its own
    path = tmp_path / "x.json"
    assert main(["gen", "--family", "uniform", "--n", "2", "--out", str(path)]) == 0
    assert json.loads(path.read_text()) == {"n": 2, "outmap": [3, 2, 1, 0]}
    assert main(["gen", "--family", "uniform", "--n", "2", "--format", "json"]) == 2


@pytest.mark.parametrize("name", ["x.uso", "x.json"])
@pytest.mark.parametrize("family", FAMILIES)
def test_gen_out_reads_back_in_the_format_its_extension_names(tmp_path, capsys, family, name):
    path = tmp_path / name
    assert main(["gen", "--family", family, "--n", "6", "--seed", "5", "--out", str(path)]) == 0
    assert read_orientation(path) == build_family(family, 6, 5)
    if path.suffix == ".json":
        json.loads(path.read_text())
    else:
        assert path.read_text().startswith("uso 6\n")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "ok: valid USO of dimension 6\n"
