"""Built-in assertion suites exposed through the `verify` CLI subcommand."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import deutsch, reference
from .elements import (
    APERTURE_FULL, APERTURE_L0, QPlateSpec, WaveplateSpec, dove_prism, hwp, lens, qplate,
)
from .logic import ORACLE_IDS, _BIT_ORDER, build_oracle, logical_matrix, truth_table
from .state import UNITARITY_TOL, make_space


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def verify_truth_tables(l_max: int = 6) -> list[CheckResult]:
    """16 rows: every ideal oracle bench matches its logical permutation, phase +1."""
    space = make_space(l_max)
    results = []
    for oracle_id in ORACLE_IDS:
        table = truth_table(build_oracle(space, oracle_id))
        ideal = logical_matrix(oracle_id)
        for j, bits in enumerate(_BIT_ORDER):
            expected = _BIT_ORDER[int(np.argmax(np.abs(ideal[:, j])))]
            got, phase = table[bits]
            ok = got == expected and abs(phase - 1.0) <= 1e-12
            results.append(
                CheckResult(
                    f"truth-table {oracle_id}: {bits} -> {got}",
                    ok,
                    f"expected {expected}, phase {phase:.3f}",
                )
            )
    return results


def verify_unitarity(l_max: int = 6) -> list[CheckResult]:
    """U+U = I at 1e-12 for every element factory over a parameter grid."""
    space = make_space(l_max)
    ops = [lens(space), dove_prism(space)]
    for q in (Fraction(1), Fraction(1, 2), Fraction(-1), Fraction(3, 2)):
        for eta in (1.0, 0.97):
            ops.append(qplate(space, QPlateSpec(q, eta)))
    for theta in (0.0, math.pi / 8, math.pi / 4, 1.0):
        ops.append(hwp(space, WaveplateSpec(theta, APERTURE_FULL)))
        for crosstalk in (0.0, 0.3, 1.0):
            ops.append(hwp(space, WaveplateSpec(theta, APERTURE_L0, crosstalk)))
    results = []
    identity = np.arange(space.dimension)
    for op in ops:
        # a path apart from the constructor's check, which bins the source and
        # sees only the distinct blocks: U = B P, with P a permutation, has
        # U+U - I = P+(B+B - I)P, so its deviation is the largest over the blocks
        permutation = np.array_equal(np.sort(op.source), identity)
        deviation = 0.0 if op.blocks is None else float(
            np.abs(np.einsum("kpq,kpr->kqr", op.blocks.conj(), op.blocks) - np.eye(2)).max()
        )
        results.append(
            CheckResult(
                f"unitarity {op.label}",
                permutation and deviation <= UNITARITY_TOL,
                f"max |U+U - I| = {deviation:.2e}" if permutation
                else f"source is not a permutation of range({space.dimension})",
            )
        )
    return results


def verify_cross_check(l_max: int = 6) -> list[CheckResult]:
    """Physical verdicts agree with the abstract one-query classifier, 4/4."""
    results = []
    for oracle_id in ORACLE_IDS:
        physical = deutsch.run(oracle_id, l_max=l_max).verdict
        abstract = reference.classify_abstract(oracle_id)
        results.append(
            CheckResult(
                f"cross-check {oracle_id}",
                physical == abstract,
                f"physical={physical}, abstract={abstract}",
            )
        )
    return results


SUITES = {
    "truth-tables": verify_truth_tables,
    "unitarity": verify_unitarity,
    "cross-check": verify_cross_check,
}
