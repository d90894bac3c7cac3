"""HEAD's outputs against the committed dump of `tests/golden.py`.

Everything but a float must match exactly: verdicts, labels, shot tallies,
truth-table bits, error texts and the records' order.  A float matches when it
lies within `golden.BOUND`, 4 ulp of 1.0, of the dump's value.  Every float
in the dump is a probability, a fidelity, a survival, a phase part or an
argument, all in [-1, 1] and rounded on the scale of 1, so the bound is
counted in ulps of 1.0 and not of each value.
A zero is exact, sign included: a zero matches only the same zero (0.0 or
-0.0, by its `float.hex()`), and a nonzero value never matches a zero,
because the reports print 0 and -0 differently and a structural zero (the
empty port of a perfect oracle) fixes its port's tally.

A change that means to move an output regenerates the dump (see
`tests/golden.py`), and its diff shows every value that moved.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

import golden

DUMP = Path(__file__).resolve().parent / "golden" / "outputs.jsonl"


def _mismatches(want, got, path="") -> list[str]:
    """Each place where `got` (plain data) differs from `want` (its encoded dump)."""
    if isinstance(got, float):
        if not isinstance(want, str):
            return [f"{path}: dump holds {want!r}, HEAD a float {got!r}"]
        expected = float.fromhex(want)
        if expected == 0.0 or got == 0.0:
            same = want == got.hex()
        else:
            same = abs(got - expected) <= golden.BOUND
        return [] if same else [f"{path}: dump {expected!r} ({want}), HEAD {got!r} ({got.hex()})"]
    if isinstance(got, dict) and isinstance(want, dict) and got.keys() == want.keys():
        return [m for key in got for m in _mismatches(want[key], got[key], f"{path}.{key}")]
    if isinstance(got, (list, tuple)) and isinstance(want, list) and len(got) == len(want):
        return [m for i, (w, g) in enumerate(zip(want, got)) for m in _mismatches(w, g, f"{path}[{i}]")]
    if isinstance(got, (dict, list, tuple)) or want != got or type(want) is not type(got):
        return [f"{path}: dump {want!r}, HEAD {golden.encode(got)!r}"]
    return []


def _compare(dump: list, fresh: list) -> list[str]:
    if len(dump) != len(fresh):
        return [f"the dump holds {len(dump)} records, HEAD makes {len(fresh)}"]
    return [
        m for record, got in zip(dump, fresh)
        for m in _mismatches(record, got, f"{got['kind']} {got['args']}")
    ]


@pytest.fixture(scope="module")
def dump():
    return [json.loads(line) for line in DUMP.read_text().splitlines()]


@pytest.fixture(scope="module")
def fresh():
    return list(golden.records())


def test_the_outputs_match_the_golden_dump(dump, fresh):
    problems = _compare(dump, fresh)
    assert not problems, f"{len(problems)} outputs differ:\n" + "\n".join(problems[:20])


def test_the_dump_holds_the_whole_grid(dump):
    runs = [r for r in dump if r["kind"] == "run"]
    assert len(runs) == 512
    assert sum("error" in r for r in runs) == 48
    assert sum(r["kind"] == "truth_table" for r in dump) == 16


def _report(records, test):
    return next(r["report"] for r in records if "report" in r and test(r["report"]))


def test_the_comparison_holds_floats_to_the_bound_and_the_rest_exactly(dump, fresh):
    fresh = copy.deepcopy(fresh)
    report = _report(fresh, lambda r: r["p_D1"] > 0.5)
    p_d1 = report["p_D1"]
    report["p_D1"] = p_d1 + 1e-15  # a planted move past the bound
    assert len(_compare(dump, fresh)) == 1
    report["p_D1"] = math.nextafter(p_d1, 2.0)  # an ulp is within it
    assert _compare(dump, fresh) == []
    report["p_D1"] = p_d1

    tally = _report(fresh, lambda r: r["shots"] is not None)["shots"]
    tally["n_D1"] += 1  # a flipped click
    tally["n_D2"] -= 1
    problems = _compare(dump, fresh)
    assert len(problems) == 2 and all(".shots.n_D" in p for p in problems)


def test_a_zero_matches_only_the_same_zero(dump, fresh):
    fresh = copy.deepcopy(fresh)
    report = _report(fresh, lambda r: r["p_D1"] == 0.0)
    for moved in (-0.0, 1e-300):
        report["p_D1"] = moved
        assert len(_compare(dump, fresh)) == 1
