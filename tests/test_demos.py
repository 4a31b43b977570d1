"""Every demo script runs to completion against the source tree, and the
README's ``>>>`` example gives the output it shows."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
