"""The package imports only numpy and the standard library, its one declared
dependency. Other packages may be installed where the tests run, so a stray
import would pass every other test."""

import ast
import sys
from pathlib import Path

import usolib

ALLOWED = sys.stdlib_module_names | {"numpy"}


def test_package_imports_only_numpy_and_the_standard_library():
    imported = {}
    for path in sorted(Path(usolib.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    assert "numpy" in imported
    assert {top: where for top, where in imported.items() if top not in ALLOWED} == {}


def test_algo_imports_nothing_from_reach():
    # the solvers see the cube only through their EvalCounter; reachmaps
    # are read by whoever renders a trace
    path = Path(usolib.__file__).parent / "algo.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            modules.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert modules & {".reach", "usolib.reach"} == set()
