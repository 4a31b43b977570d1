"""Reading and writing orientations.

Text format (USO-TEXT v1): line 1 is ``uso <n>``; the following 2**n lines
hold the decimal outmap bitmask of vertex k for k = 0, 1, ... (vertex index
equals the vertex bitmask read as an unsigned integer). The JSON form
mirrors the same data as {"n": ..., "outmap": [...]}. Both loaders reject
edge-inconsistent tables and name the first violation that
:func:`usolib.core.first_edge_violation` finds.
"""

from __future__ import annotations

import json
from pathlib import Path

from .bitops import full_mask
from .core import MAX_DIMENSION, Orientation, first_edge_violation


class ParseError(ValueError):
    """Malformed orientation file."""


#: the loader's edge check under its former name, which benchmarks/baselines.py times
_first_inconsistent_vertex = first_edge_violation


def _finish(n: int, values: list[int], where) -> Orientation:
    """The orientation of ``values``; an edge-inconsistent table raises,
    naming the place of the first bad vertex v as ``where(v)``."""
    o = Orientation(n, values)
    bad = first_edge_violation(o)
    if bad is not None:
        v, j = bad
        raise ParseError(
            f"{where(v)}: edge-inconsistent table (vertex {v}, coordinate {j})"
        )
    return o


def loads_text(text: str) -> Orientation:
    """Parse USO-TEXT v1."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("line 1: empty input, expected 'uso <n>' header")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "uso":
        raise ParseError("line 1: expected 'uso <n>' header")
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError("line 1: dimension is not an integer") from None
    if not 1 <= n <= MAX_DIMENSION:
        raise ParseError(f"line 1: dimension must be in 1..{MAX_DIMENSION}")
    body = lines[1:]
    while body and body[-1] == "":
        body.pop()
    expected = 1 << n
    if len(body) != expected:
        raise ParseError(
            f"line {len(lines)}: expected {expected} outmap lines for n={n}, "
            f"got {len(body)}"
        )
    top = full_mask(n)
    values = []
    for k, raw in enumerate(body):
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"line {k + 2}: not a decimal outmap value: {raw!r}") from None
        if not 0 <= value <= top:
            raise ParseError(f"line {k + 2}: outmap value {value} out of range")
        values.append(value)
    return _finish(n, values, lambda v: f"line {v + 2}")


def dumps_text(o: Orientation) -> str:
    lines = [f"uso {o.n}"]
    lines.extend(map(str, o.outmap.tolist()))
    return "\n".join(lines) + "\n"


def loads_json(text: str) -> Orientation:
    """Parse the JSON mirror of the text format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "outmap" not in obj:
        raise ParseError("JSON object must have 'n' and 'outmap' fields")
    n = obj["n"]
    outmap = obj["outmap"]
    # type() rather than isinstance(): JSON true and false are bools, and
    # bool is a subclass of int
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:
        raise ParseError(f"'n' must be an integer in 1..{MAX_DIMENSION}")
    if not isinstance(outmap, list) or len(outmap) != 1 << n:
        raise ParseError(f"'outmap' must be a list of {1 << n} integers")
    top = full_mask(n)
    for k, value in enumerate(outmap):
        if type(value) is not int or not 0 <= value <= top:
            raise ParseError(f"outmap entry {k} is not an integer in 0..{top}")
    return _finish(n, outmap, lambda v: f"outmap entry {v}")


def dumps_json(o: Orientation) -> str:
    return json.dumps({"n": o.n, "outmap": o.outmap.tolist()}) + "\n"


def read_orientation(path: str | Path) -> Orientation:
    """Load an orientation; the format is inferred from the extension
    (.json for JSON, anything else is USO-TEXT)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    if path.suffix == ".json":
        return loads_json(text)
    return loads_text(text)


def write_orientation(o: Orientation, path: str | Path) -> None:
    """Write an orientation in the format its extension names, as
    :func:`read_orientation` infers it; round-trips bit-for-bit."""
    path = Path(path)
    path.write_text(dumps_json(o) if path.suffix == ".json" else dumps_text(o))
