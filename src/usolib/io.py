"""Reading and writing orientations.

Text format (USO-TEXT v1): line 1 is ``uso <n>``; the following 2**n lines
hold the decimal outmap bitmask of vertex k for k = 0, 1, ... (vertex index
equals the vertex bitmask read as an unsigned integer). The JSON form
mirrors the same data as {"n": ..., "outmap": [...]}. Both loaders reject
edge-inconsistent tables and name the first violation that
:func:`usolib.core.first_edge_violation` finds.

A text in the form :func:`dumps_text` writes is decoded in bulk with numpy;
any other text is read line by line, which accepts the same texts with the
same values and names every error.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .bitops import full_mask
from .core import MAX_DIMENSION, Orientation, first_edge_violation


class ParseError(ValueError):
    """Malformed orientation file. The message names the text line, the
    JSON outmap entry, or (for a file that is not UTF-8) the file."""


def _finish(n: int, values: Sequence[int] | np.ndarray, where) -> Orientation:
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


#: the header line of each dimension, as dumps_text writes it
_HEADERS = {f"uso {n}": n for n in range(1, MAX_DIMENSION + 1)}


def _decode_bulk(text: str) -> tuple[int, np.ndarray] | None:
    """The dimension and outmap values of a text in :func:`dumps_text`'s form,
    or None for any other text.

    The form: the header is exactly ``uso <n>``, and the body holds only
    ASCII digits and newlines, as 2**n non-empty lines of at most
    len(str(full_mask(n))) digits with values up to full_mask(n), followed
    only by empty lines. :func:`_decode_lines` reads such a text to the same
    values.
    """
    cut = text.find("\n")
    n = _HEADERS.get(text[:cut]) if cut > 0 else None
    if n is None:
        return None
    # a lone surrogate encodes too, to bytes that send the text to the loop
    body = np.frombuffer(text.encode(errors="surrogatepass"), np.uint8)[cut + 1 :]
    ends = np.flatnonzero(body == ord("\n"))
    # uint8 wraps, so only the bytes "0".."9" land below 10
    if np.count_nonzero(body - ord("0") < 10) + len(ends) != body.size:
        return None
    count = 1 << n
    # every byte after the end of line 2**n is a newline
    if len(ends) < count or body.size - 1 - ends[count - 1] != len(ends) - count:
        return None
    ends = ends[:count]
    lengths = np.diff(ends, prepend=-1) - 1
    width = len(str(full_mask(n)))
    if lengths.min() < 1 or lengths.max() > width:
        return None
    # Horner's rule over the digit columns, the line's last digit in column 1
    values = np.zeros(count, dtype=np.int32)
    for k in range(width, 0, -1):
        digits = np.where(lengths >= k, body[ends - k], ord("0"))
        values = values * 10 + digits - ord("0")
    if values.max() > full_mask(n):
        return None
    return n, values


def _decode_lines(text: str) -> tuple[int, list[int]]:
    """The dimension and outmap values of any text, read one line at a time;
    a text that is not USO-TEXT v1 raises, naming the line."""
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
    return n, values


def loads_text(text: str) -> Orientation:
    """Parse USO-TEXT v1."""
    decoded = _decode_bulk(text)
    n, values = decoded if decoded is not None else _decode_lines(text)
    return _finish(n, values, lambda v: f"line {v + 2}")


#: dumps_text converts and joins this many outmap values at a time, and
#: ``uso analyze`` this many text rows, so neither holds a list of 2**n
#: strings
_TEXT_BLOCK = 1 << 16


def dumps_text(o: Orientation) -> str:
    values = o.outmap
    blocks = [f"uso {o.n}\n"]
    for k in range(0, len(values), _TEXT_BLOCK):
        blocks.append("\n".join(map(str, values[k : k + _TEXT_BLOCK].tolist())) + "\n")
    return "".join(blocks)


def loads_json(text: str) -> Orientation:
    """Parse the JSON mirror of the text format. ``n`` and every outmap
    entry must be true integers: JSON ``true`` and ``false`` raise
    ``ParseError``, though Python's bool is an int."""
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
    (.json for JSON, anything else is USO-TEXT).

    A file that is not UTF-8 raises ``ParseError`` naming the file; a file
    that cannot be read (missing, a directory) raises the ``OSError``."""
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
