"""Deterministic result serialization.

Identical payloads must serialize to identical bytes, so floats go
through one fixed 17-significant-digit format, dictionary keys are
emitted sorted, and no locale or hash ordering leaks in.  CSV files
open with a schema comment line naming the layout and its version.
"""

from __future__ import annotations

import math
from itertools import repeat


SCHEMA_VERSION = 1


def _finite(x: float) -> str:
    if math.isfinite(x):
        return "%.17g" % x
    raise ValueError("non-finite values have no canonical serialization")


def format_float(x: float) -> str:
    """Fixed 17-significant-digit rendering of a float.

    17 significant digits round-trip every double exactly, though not
    always in the fewest digits (``0.1`` prints ``0.10000000000000001``);
    NaN and infinities are rejected rather than invented as JSON
    extensions.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"not a float: {x!r}")
    return _finite(float(x))


def _escape(s: str) -> str:
    # Printable ASCII without a quote or backslash needs no escape;
    # every key and most values are such strings.
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append("\\u%04x" % ord(ch))
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


#: Text of a scalar leaf by its exact type.  Subclasses, such as numpy
#: floats, miss the table and take the ``isinstance`` chain.
_LEAVES = {type(None): lambda x: "null",
           bool: lambda x: "true" if x else "false",
           int: str, float: _finite, str: _escape}


def dumps_canonical(obj) -> str:
    """Canonical JSON text: sorted keys, fixed float format.

    Accepts the JSON value types plus tuples; anything else (including
    complex numbers) must be converted by the caller first.  Scalar
    leaves of the exact JSON types are formatted from one table keyed
    by type, before any ``isinstance`` test.  Nested values recurse
    through ``_canonical``, which carries the indentation depth.
    """
    return _canonical(obj, 0)


def _canonical(obj, indent: int) -> str:
    """``dumps_canonical`` of ``obj`` nested ``indent`` levels deep."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_canonical(x, indent + 1) for x in obj]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pairs = sorted(obj.items())
        if not all(map(isinstance, obj, repeat(str))):
            raise TypeError("canonical JSON needs string keys")
        items = [f"{_escape(k)}: {_canonical(v, indent + 1)}"
                 for k, v in pairs]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(payload))
        fh.write("\n")


def csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    s = str(value)
    if any(c in s for c in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s


def csv_text(header: list[str], rows: list[list]) -> str:
    """The header line and one line per row, each ended by a newline;
    a row whose width differs from the header's raises ``ValueError``."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("row width does not match the header")
        lines.append(",".join(csv_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def write_csv(path: str, schema: str, header: list[str],
              rows: list[list]) -> None:
    """CSV with a leading schema comment line.

    The first line is ``# schema: <name> v<version>`` so downstream
    tools can dispatch on the layout without guessing from headers.
    """
    text = f"# schema: {schema} v{SCHEMA_VERSION}\n" + csv_text(header, rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
