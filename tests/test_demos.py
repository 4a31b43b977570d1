"""Every demo script runs to completion against the source tree, the
README's ``>>>`` example gives the output it shows, the README names every
export of the package root and only names that exist, and each command of
its "Command line" block runs."""

import argparse
import doctest
import functools
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

import usolib
from usolib import cli, construct

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_example_passes_as_a_doctest():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted == 6 and result.failed == 0


def test_readme_names_every_export():
    # each public name of the package root appears in some inline code span,
    # outside the fenced blocks
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    named = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", text))))
    exports = {
        name
        for name, value in vars(usolib).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert {"Orientation", "walk_batch"} <= exports
    assert sorted(exports - named) == []



def test_readme_dotted_names_resolve():
    # every dotted name in an inline code span whose head is the package, one
    # of its modules or one of its exports, such as usolib.rng.SplitMix64,
    # core.first_uso_violation or SplitMix64.draw, resolves from the package
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    cited = {
        name.removeprefix("usolib.")
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if name.split(".")[0] in {"usolib", *vars(usolib)}
    }
    assert len(cited) >= 5
    unresolved = [
        name
        for name in sorted(cited)
        if functools.reduce(lambda obj, attr: getattr(obj, attr, None), name.split("."), usolib)
        is None
    ]
    assert unresolved == []


def test_readme_command_block_runs_and_covers_the_cli(tmp_path, monkeypatch, capsys):
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, flags=re.S).group(1)
    commands = [
        shlex.split(line.split("#", 1)[0])
        for line in block.splitlines()
        if line.startswith("uso ")
    ]
    subparsers = next(
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted({argv[1] for argv in commands}) == sorted(subparsers.choices)
    families = re.search(r"^# families: (.*)$", block, flags=re.M).group(1).split()
    assert families == list(construct.FAMILIES)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
