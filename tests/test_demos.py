"""Every demo script runs to completion against the source tree, the
README's ``>>>`` example gives the output it shows, and the README names
every export of the package root."""

import doctest
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import usolib

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
