"""Reading and writing orientations.

USO-TEXT v1: line 1 is ``uso <n>``, with one space and n in 1..24 in ASCII
digits. The next 2**n lines hold the outmap bitmask of vertex k = 0, 1,
... (the vertex bitmask read as an unsigned integer) in ASCII digits, each
at most 2**n - 1; leading zeros are allowed. Lines end in LF or CRLF, the
final line end is optional, and trailing empty lines are ignored. The JSON
form mirrors the same data as {"n": ..., "outmap": [...]}.

A file's format follows one rule, its extension: ``.json`` is JSON and any
other is USO-TEXT. :func:`read_orientation` and :func:`write_orientation`
apply it, and ``uso gen --out`` writes through the latter, so every
orientation file the CLI writes reads back.

:func:`loads_text` names the first error in this order: the header; a
count of outmap lines other than 2**n; the first outmap line that is empty
or holds a byte other than a digit, a CR not before LF included (``not a
decimal outmap value``), or whose value exceeds 2**n - 1 (``out of
range``). Both loaders then reject edge-inconsistent tables and name the
first violation that :func:`usolib.core.first_edge_violation` finds.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bitops import full_mask
from .core import MAX_DIMENSION, Orientation, first_edge_violation


class ParseError(ValueError):
    """Malformed orientation file. The message names the text line, the
    JSON outmap entry, or (for a file that is not UTF-8) the file."""


def _finish(n: int, values: np.ndarray, where) -> Orientation:
    """The orientation of ``values``, a fresh uint32 table that it keeps;
    an edge-inconsistent table raises, naming the place of the first bad
    vertex v as ``where(v)``."""
    o = Orientation._own(n, values)
    bad = first_edge_violation(o)
    if bad is not None:
        v, j = bad
        raise ParseError(f"{where(v)}: edge-inconsistent table (vertex {v}, coordinate {j})")
    return o


_LF, _CR, _ZERO = ord("\n"), ord("\r"), ord("0")


def loads_text(text: str) -> Orientation:
    """Parse USO-TEXT v1; any other text raises ``ParseError``, naming the
    first error in the order the module docstring gives."""
    # a lone surrogate encodes too, to bytes that are not digits
    return _loads_text_bytes(text.encode(errors="surrogatepass"))


def _loads_text_bytes(raw: bytes) -> Orientation:
    """:func:`loads_text` on the text's UTF-8 bytes."""
    data = np.frombuffer(raw, np.uint8)
    if b"\r" in raw:  # drop each CR that ends a line; any other is refused
        data = np.delete(data, np.flatnonzero((data[:-1] == _CR) & (data[1:] == _LF)))
    ends = np.flatnonzero(data == _LF)
    if data.size and data[-1] != _LF:
        ends = np.append(ends, data.size)  # the last line has no line end
    if not ends.size:
        raise ParseError("line 1: empty input, expected 'uso <n>' header")
    fields = data[: ends[0]].tobytes().decode(errors="surrogatepass").split(" ")
    if len(fields) != 2 or fields[0] != "uso":
        raise ParseError("line 1: expected 'uso <n>' header")
    if not (fields[1].isascii() and fields[1].isdigit()):
        raise ParseError("line 1: dimension is not an integer")
    dim = fields[1].lstrip("0")
    n = int(dim) if 0 < len(dim) < 3 else 0
    if not 1 <= n <= MAX_DIMENSION:
        raise ParseError(f"line 1: dimension must be in 1..{MAX_DIMENSION}")
    count, top, width = 1 << n, full_mask(n), len(str(full_mask(n)))
    # line k ends at ends[k] and starts after ends[k - 1]; one array, no
    # temporaries (np.diff with prepend builds three of 2**n entries)
    lengths = np.empty_like(ends)
    lengths[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    # line count + 1 is the last outmap line: it holds a byte, no later one does
    if np.flatnonzero(lengths[count:]).tolist() != [0]:
        got = len(np.trim_zeros(lengths[1:], "b"))
        raise ParseError(f"line {ends.size}: expected {count} outmap lines for n={n}, got {got}")
    start = ends[0] + 1
    ends, lengths, body = ends[1 : count + 1], lengths[1 : count + 1], data[start:]
    # uint8 wraps, so only the bytes "0".."9" land below 10
    digits_only = np.count_nonzero(body - _ZERO < 10) == lengths.sum()
    # Horner's rule over the last `width` digit columns; a column that a
    # line does not reach reads "0", and the "0"s are taken off at the end
    values = np.zeros(count, dtype=np.uint32)
    for k in range(width, 0, -1):
        digits = data.take(ends - k)
        digits[lengths < k] = _ZERO
        values *= 10
        values += digits
    values -= _ZERO * (10**width - 1) // 9
    bad = (lengths == 0) | (values > top)
    if not digits_only or lengths.max() > width:
        # a byte other than a digit, or a digit other than 0 left of the
        # last `width` columns, spoils its line
        pos = np.flatnonzero((body != _ZERO) & (body != _LF)) + start
        line = np.searchsorted(ends, pos)
        bad[line[(data[pos] - _ZERO >= 10) | (ends[line] - pos > width)]] = True
    k = int(np.argmax(bad))
    if bad[k]:
        raw = data[ends[k] - lengths[k] : ends[k]].tobytes().decode(errors="surrogatepass")
        if raw.isascii() and raw.isdigit():
            raise ParseError(f"line {k + 2}: outmap value {raw.lstrip('0')} out of range")
        raise ParseError(f"line {k + 2}: not a decimal outmap value: {raw!r}")
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
    return _finish(n, np.array(outmap, dtype=np.uint32), lambda v: f"outmap entry {v}")


def dumps_json(o: Orientation) -> str:
    return json.dumps({"n": o.n, "outmap": o.outmap.tolist()}) + "\n"


def read_orientation(path: str | Path) -> Orientation:
    """Load an orientation; the format is inferred from the extension
    (.json for JSON, anything else is USO-TEXT).

    The file's text reaches the loader as it is, with no newline
    translation. A file that is not UTF-8 raises ``ParseError`` naming the
    file; a file that cannot be read (missing, a directory) raises the
    ``OSError``. A USO-TEXT file's bytes are its text's UTF-8 encoding, so
    they are parsed as read; only a file that is not ASCII is decoded,
    to be checked."""
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".json" or not raw.isascii():
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
        if path.suffix == ".json":
            return loads_json(text)
    return _loads_text_bytes(raw)


def write_orientation(o: Orientation, path: str | Path) -> None:
    """Write an orientation in the format its extension names, as
    :func:`read_orientation` infers it; round-trips bit-for-bit."""
    path = Path(path)
    path.write_text(dumps_json(o) if path.suffix == ".json" else dumps_text(o))
