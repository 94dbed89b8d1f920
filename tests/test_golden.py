"""Golden outputs: every case of tests/golden/regen.py, run again and
compared with its stored output.

Text must match exactly.  Numbers match at GOLDEN_RTOL relative to the
largest magnitude in their row: a line of text, a list of numbers in a JSON
line, or the numbers directly held by a JSON object.  Entries that are
rounding noise near 0 are measured against their row, not themselves.
"""

import importlib.util
import json
import math
import pathlib
import re

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", pathlib.Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN_RTOL = 1e-12
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _row_mismatch(got, want, where):
    """The first of two equally long number rows to differ by more than
    GOLDEN_RTOL times the row's largest magnitude, or None."""
    scale = max((abs(w) for w in want if math.isfinite(w)), default=0.0)
    for i, (g, w) in enumerate(zip(got, want)):
        if not (g == w or abs(g - w) <= GOLDEN_RTOL * scale):
            return f"{where}[{i}]: {g!r} != {w!r} (row scale {scale:g})"
    return None


def _json_mismatch(got, want, where="$"):
    """Structural comparison of two parsed JSON values: the first
    difference as a string, or None."""
    if _is_number(want):
        return _row_mismatch([got], [want], where) if _is_number(got) else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: {got!r} != {want!r}"
        row = [k for k in sorted(want) if _is_number(want[k])]
        if not all(_is_number(got[k]) for k in row):
            return f"{where}: {got!r} != {want!r}"
        pairs = [(got[k], want[k], f"{where}.{k}") for k in sorted(want) if k not in row]
        first = _row_mismatch([got[k] for k in row], [want[k] for k in row], f"{where}{row}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: {got!r} != {want!r}"
        if want and all(map(_is_number, want)):
            if not all(map(_is_number, got)):
                return f"{where}: {got!r} != {want!r}"
            return _row_mismatch(got, want, where)
        pairs = [(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
        first = None
    else:
        return None if got == want and type(got) is type(want) else f"{where}: {got!r} != {want!r}"
    for g, w, at in pairs:
        first = first or _json_mismatch(g, w, at)
    return first


def _text_mismatch(got, want, where):
    """One line of text: the words between numbers exactly, the numbers as
    one row."""
    if NUMBER.split(got) != NUMBER.split(want):
        return f"{where}: {got[:200]!r} != {want[:200]!r}"
    return _row_mismatch([float(x) for x in NUMBER.findall(got)],
                         [float(x) for x in NUMBER.findall(want)], where)


def mismatch(got, want):
    """The first difference between two outputs beyond the tolerance, or None."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines != {len(want_lines)}"
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if w.startswith(("{", "[")):
            bad = _json_mismatch(json.loads(g), json.loads(w), f"line {n}: $") \
                if g.startswith(("{", "[")) else f"line {n}: {g[:200]!r} is not JSON"
        else:
            bad = _text_mismatch(g, w, f"line {n}")
        if bad:
            return bad
    return None


CASES = regen.cases()


def test_the_golden_set_is_small_and_complete():
    stored = {p.stem for p in regen.HERE.glob("*.txt")}
    assert stored == set(CASES)
    assert sum(regen.path_of(name).stat().st_size for name in CASES) < 300_000


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    bad = mismatch(CASES[name](), regen.path_of(name).read_text())
    assert bad is None, f"{name}: {bad}"


@pytest.mark.parametrize("got, want, same", [
    ('{"a": [1.0, 1e-16]}', '{"a": [1.0, 2e-16]}', True),  # noise against its row
    ('{"a": [1.0, 1.000000001]}', '{"a": [1.0, 1.0]}', False),
    ('{"x": 1.0, "r": 3e-16}', '{"x": 1.0, "r": 1e-16}', True),
    ('{"s": "completed"}', '{"s": "non-finite"}', False),
    ('{"c": null}', '{"c": 0.0}', False),
    ('{"b": true}', '{"b": 1}', False),
    ("0.5,2.0,1e-17", "0.5,2.0,3e-17", True),
    ("0.5,2.0,1.1", "0.5,2.0,1.0", False),
    ("1,none,,2.0", "1,algebraic,,2.0", False),
    ("PASS  a  residual=1.000e-15", "PASS  a  residual=2.000e-15", False),
    ("exit 0\nx", "exit 0\nx\n", False),
])
def test_the_comparison(got, want, same):
    assert (mismatch(got, want) is None) == same
