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


def _finish(n: int, values: list[int], lineno_of_vertex) -> Orientation:
    o = Orientation(n, values)
    bad = first_edge_violation(o)
    if bad is not None:
        v, j = bad
        raise ParseError(
            f"line {lineno_of_vertex(v)}: edge-inconsistent table "
            f"(vertex {v}, coordinate {j})"
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
    values = []
    for k, raw in enumerate(body):
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"line {k + 2}: not a decimal outmap value: {raw!r}") from None
        if not 0 <= value <= full_mask(n):
            raise ParseError(f"line {k + 2}: outmap value {value} out of range")
        values.append(value)
    return _finish(n, values, lambda v: v + 2)


def dumps_text(o: Orientation) -> str:
    lines = [f"uso {o.n}"]
    lines.extend(str(int(x)) for x in o.outmap)
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
    if not isinstance(n, int) or not 1 <= n <= MAX_DIMENSION:
        raise ParseError(f"'n' must be an integer in 1..{MAX_DIMENSION}")
    if not isinstance(outmap, list) or len(outmap) != 1 << n:
        raise ParseError(f"'outmap' must be a list of {1 << n} integers")
    for k, value in enumerate(outmap):
        if not isinstance(value, int) or not 0 <= value <= full_mask(n):
            raise ParseError(f"outmap entry {k} out of range")
    return _finish(n, outmap, lambda v: v + 2)


def dumps_json(o: Orientation) -> str:
    return json.dumps({"n": o.n, "outmap": [int(x) for x in o.outmap]}) + "\n"


def read_orientation(path: str | Path) -> Orientation:
    """Load an orientation; the format is inferred from the extension
    (.json for JSON, anything else is USO-TEXT)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        return loads_json(text)
    return loads_text(text)


def write_orientation(o: Orientation, path: str | Path, fmt: str | None = None) -> None:
    """Write an orientation; round-trips bit-for-bit."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix == ".json" else "text"
    if fmt == "json":
        path.write_text(dumps_json(o))
    elif fmt == "text":
        path.write_text(dumps_text(o))
    else:
        raise ValueError(f"unknown format {fmt!r}")
