"""Failures at the edges of ``io`` and ``cli``: a file that cannot be read
or decoded exits 1 and a bad argument exits 2, each with one ``error:``
line and no traceback; the text loader drops trailing blank lines."""

import pytest

from usolib.cli import main
from usolib.construct import klee_minty
from usolib.core import Orientation
from usolib.io import ParseError, loads_text, read_orientation, write_orientation

NOT_UTF8 = b"uso 1\n\xff\n0\n"


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        lambda d, f: ["check", d],
        lambda d, f: ["analyze", d],
        lambda d, f: ["walk", d, "--algo", "re"],
        lambda d, f: ["gen", "--family", "km", "--n", "2", "--out", d],
        lambda d, f: ["check", f],
    ],
    ids=["check-dir", "analyze-dir", "walk-dir", "gen-out-dir", "check-not-utf8"],
)
def test_unreadable_files_exit_1(tmp_path, capsys, argv):
    bad = tmp_path / "bad.uso"
    bad.write_bytes(NOT_UTF8)
    assert main(argv(str(tmp_path), str(bad))) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["gen", "--family", "product", "--n", "1"], "product family requires n >= 2"),
        (["gen", "--family", "product", "--n", "25"], "dimension must be in 1..24, got 25"),
        (["bench", "--family", "km", "--algo", "re", "--n", "5..4"], "empty dimension range 5..4"),
        (
            ["bench", "--family", "km", "--algo", "ba", "--n", "5", "--cap", str(1 << 63)],
            "cap must be <= 2^63 - 1",
        ),
        (["walk", "{km3}", "--algo", "re", "--trials", "-1"], "trials must be >= 1"),
        (
            ["bench", "--family", "km", "--algo", "re", "--n", "3", "--trials", "-2"],
            "trials must be >= 1",
        ),
    ],
    ids=[
        "gen-product-n1",
        "gen-product-n25",
        "bench-empty-range",
        "bench-ba-cap-2^63",
        "walk-negative-trials",
        "bench-negative-trials",
    ],
)
def test_bad_arguments_exit_2(tmp_path, capsys, argv, reason):
    # "{km3}" names a 3-dimensional Klee-Minty file
    km3 = tmp_path / "km3.uso"
    write_orientation(klee_minty(3), km3)
    assert main([a.format(km3=km3) for a in argv]) == 2
    assert _one_error_line(capsys) == f"error: {reason}"


@pytest.mark.parametrize("algo", ["re", "ba"])
def test_walk_rejects_a_cap_that_int64_steps_cannot_hold(tmp_path, capsys, algo):
    path = tmp_path / "c5.uso"
    assert main(["gen", "--family", "cyclic-lb", "--n", "5", "--out", str(path)]) == 0
    argv = ["walk", str(path), "--algo", algo, "--start", "random", "--trials", "3"]
    assert main(argv + ["--cap", str(1 << 63)]) == 2
    assert _one_error_line(capsys) == "error: cap must be <= 2^63 - 1"
    assert main(argv + ["--cap", str((1 << 63) - 1)]) == 0


@pytest.mark.parametrize("suffix", [".uso", ".json"])
def test_a_file_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path, suffix):
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(NOT_UTF8)
    with pytest.raises(ParseError) as err:
        read_orientation(path)
    assert str(err.value) == f"{path}: not a UTF-8 text file (invalid start byte)"


@pytest.mark.parametrize("blank", ["\n", "\n\n\n"])
def test_text_loader_drops_trailing_blank_lines(blank):
    assert loads_text("uso 1\n1\n0\n" + blank) == Orientation(1, [1, 0])
