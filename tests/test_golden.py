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


def _row_differences(got, want, where):
    """(difference relative to the row's largest magnitude, what and where)
    for each unequal entry of two equally long number rows."""
    scale = max((abs(w) for w in want if math.isfinite(w)), default=0.0)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            rel = abs(g - w) / scale if scale else math.inf
            yield (math.inf if math.isnan(rel) else rel,
                   f"{where}[{i}]: {g!r} != {w!r} (row scale {scale:g})")


def _unlike(got, want, where):
    """A structural difference: infinitely far apart."""
    yield math.inf, f"{where}: {got!r} != {want!r}"


def _json_differences(got, want, where="$"):
    """The differences of two parsed JSON values, as _row_differences
    gives them, in document order."""
    if _is_number(want):
        yield from (_row_differences([got], [want], where) if _is_number(got)
                    else _unlike(got, want, where))
    elif isinstance(want, dict):
        row = [k for k in sorted(want) if _is_number(want[k])]
        if (not isinstance(got, dict) or sorted(got) != sorted(want)
                or not all(_is_number(got[k]) for k in row)):
            yield from _unlike(got, want, where)
            return
        yield from _row_differences([got[k] for k in row], [want[k] for k in row],
                                    f"{where}{row}")
        for k in sorted(want):
            if k not in row:
                yield from _json_differences(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            yield from _unlike(got, want, where)
        elif want and all(map(_is_number, want)):
            yield from (_row_differences(got, want, where) if all(map(_is_number, got))
                        else _unlike(got, want, where))
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                yield from _json_differences(g, w, f"{where}[{i}]")
    elif not (got == want and type(got) is type(want)):
        yield from _unlike(got, want, where)


def _text_differences(got, want, where):
    """One line of text: the words between numbers exactly, the numbers as
    one row."""
    if NUMBER.split(got) != NUMBER.split(want):
        yield from _unlike(got[:200], want[:200], where)
    else:
        yield from _row_differences([float(x) for x in NUMBER.findall(got)],
                                    [float(x) for x in NUMBER.findall(want)], where)


def differences(got, want):
    """Every difference between two outputs, line by line, as
    (relative difference, what and where)."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if len(got_lines) != len(want_lines):
        yield math.inf, f"{len(got_lines)} lines != {len(want_lines)}"
        return
    for n, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if not w.startswith(("{", "[")):
            yield from _text_differences(g, w, f"line {n}")
        elif g.startswith(("{", "[")):
            yield from _json_differences(json.loads(g), json.loads(w), f"line {n}: $")
        else:
            yield math.inf, f"line {n}: {g[:200]!r} is not JSON"


def mismatch(got, want):
    """The first difference between two outputs beyond the tolerance, or None."""
    return next((where for rel, where in differences(got, want) if not rel <= GOLDEN_RTOL),
                None)


def worst(got, want):
    """The largest difference between two outputs, (0.0, None) when equal."""
    return max(differences(got, want), default=(0.0, None))


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
