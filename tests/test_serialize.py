"""Canonical JSON and CSV emission."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recursive_dumps
from magnodal.serialize import (
    SCHEMA_VERSION,
    csv_cell,
    dumps_canonical,
    format_float,
    write_csv,
    write_json,
)


def escape_by_characters(s: str) -> str:
    """JSON string literal built one character at a time (the oracle)."""
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


class TestFormatFloat:
    def test_round_trip_is_exact(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 1e300, -2.5, 0.0,
                  math.pi, 123456789.123456789]
        for x in values:
            assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            format_float(True)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            format_float("1.5")


class TestDumpsCanonical:
    def test_sorted_keys(self):
        text = dumps_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_stability(self):
        payload = {"x": [1, 2.5, "three"], "y": {"nested": True},
                   "z": None}
        assert dumps_canonical(payload) == dumps_canonical(dict(payload))

    def test_scalars(self):
        assert dumps_canonical(None) == "null"
        assert dumps_canonical(True) == "true"
        assert dumps_canonical(False) == "false"
        assert dumps_canonical(42) == "42"
        assert dumps_canonical("hi") == '"hi"'

    def test_empty_containers(self):
        assert dumps_canonical([]) == "[]"
        assert dumps_canonical({}) == "{}"

    def test_tuples_as_lists(self):
        assert dumps_canonical((1, 2)) == dumps_canonical([1, 2])

    def test_string_escaping(self):
        assert dumps_canonical('a"b') == '"a\\"b"'
        assert dumps_canonical("a\nb") == '"a\\nb"'
        assert dumps_canonical("a\x01b") == '"a\\u0001b"'

    @pytest.mark.parametrize("s", [
        "", "plain_key", "with space", 'a"b', "a\\b", '"', "\\", "\x7f",
        "del\x7fin", "café", "β ≥ 0", "\U0001f600",
        *(f"x{chr(c)}y" for c in range(0x20)),
        *(chr(c) for c in range(0x20, 0x80)),
    ])
    def test_escape_matches_character_loop(self, s):
        assert dumps_canonical(s) == escape_by_characters(s)

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical({1: "x"})

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical(1 + 2j)


#: JSON-like trees: scalar leaves of every table type and numpy floats
#: (which miss the table), inside lists, tuples and string-keyed dicts.
LEAVES = (st.none() | st.booleans() | st.integers()
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.floats(allow_nan=False, allow_infinity=False).map(np.float64)
          | st.text(max_size=6))
TREES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40)


class TestLeafTable:
    """Leaves formatted from the type table give the bytes of the
    serializer that recurses once per leaf."""

    @pytest.mark.parametrize("payload", [
        [1, 2, True, False, 3],
        (1, (2.5, None), [True, (), {}]),
        {"b": [{"c": (1, 2.0)}, []], "a": {"x": None, "y": "z"}},
        [np.float64(0.1), 0.1, np.float64(-0.0), -0.0, 1e300],
        {"s": ['a"b', "c\\d", "e\nf", "\x01", "café"], 'k"ey': 1},
        [[[[1.5]]], {"deep": [[{"er": [2]}]]}],
        True, None, 7, -0.0, "plain",
    ])
    def test_matches_recursive_serializer(self, payload):
        assert dumps_canonical(payload) == recursive_dumps(payload)

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_random_trees_match_recursive_serializer(self, payload):
        assert dumps_canonical(payload) == recursive_dumps(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("wrap", [
        lambda x: [1.0, x, 2.0], lambda x: {"a": 1.0, "b": x},
        lambda x: {"a": [[x]]}, lambda x: x])
    def test_non_finite_leaf_rejected(self, bad, wrap):
        with pytest.raises(ValueError):
            dumps_canonical(wrap(bad))

    @pytest.mark.parametrize("bad", [1 + 2j, np.int64(3), np.complex128(1)])
    @pytest.mark.parametrize("wrap", [
        lambda x: [1, x], lambda x: {"a": x}, lambda x: x])
    def test_unknown_leaf_rejected(self, bad, wrap):
        with pytest.raises(TypeError):
            dumps_canonical(wrap(bad))


class TestCsv:
    def test_cell_rendering(self):
        assert csv_cell(None) == ""
        assert csv_cell(True) == "true"
        assert csv_cell(7) == "7"
        assert csv_cell(2.5) == "2.5"
        assert csv_cell("plain") == "plain"

    def test_cell_quoting(self):
        assert csv_cell("a,b") == '"a,b"'
        assert csv_cell('say "hi"') == '"say ""hi"""'

    def test_write_csv_schema_line(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), "spectrum", ["k", "value"],
                  [[1, 0.5], [2, 1.5]])
        lines = path.read_text().splitlines()
        assert lines[0] == f"# schema: spectrum v{SCHEMA_VERSION}"
        assert lines[1] == "k,value"
        assert lines[2] == "1,0.5"

    def test_row_width_checked(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "bad.csv"), "x", ["a", "b"], [[1]])


class TestWriteJson:
    def test_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "out.json"
        payload = {"name": "test", "values": [1.5, 2], "flag": False}
        write_json(str(path), payload)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == payload

    def test_identical_bytes(self, tmp_path):
        payload = {"b": [0.1, 0.2], "a": {"k": 1}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(p1), payload)
        write_json(str(p2), dict(sorted(payload.items())))
        assert p1.read_bytes() == p2.read_bytes()
