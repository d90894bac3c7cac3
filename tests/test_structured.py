"""Structured element operators against an independent dense reference.

The reference below fills dim x dim matrices with Python index loops straight
from the README conventions and shares no code with the factories.  It uses
the same formulas, so the factories' dense views must equal it exactly.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import valid_bench
from dense import dense
from spinorbit import ORACLE_IDS, apply_chain, build_oracle, compile_bench, compose
from spinorbit.dsl import DoveStmt, HwpStmt, QPlateStmt
from spinorbit.elements import (
    APERTURE_FULL,
    APERTURE_L0,
    QPlateSpec,
    WaveplateSpec,
    dove_prism,
    hwp,
    lens,
    qplate,
)
from spinorbit.state import LEFT, RIGHT, make_space

# --- dense reference -----------------------------------------------------------


def ref_qplate(space, q):
    """|L,l> -> |R,l+2q>, |R,l> -> |L,l-2q>; unshiftable edge modes are fixed
    points and left out of the input mask.  Returns (matrix, mask or None)."""
    shift = int(2 * Fraction(q))
    dim = space.dimension
    matrix = np.zeros((dim, dim), dtype=complex)
    mask = np.zeros(dim, dtype=bool)
    for l in range(-space.l_max, space.l_max + 1):
        for pol, image_pol, image_l in ((LEFT, RIGHT, l + shift), (RIGHT, LEFT, l - shift)):
            src = space.index(pol, l)
            if space.contains(image_l):
                matrix[space.index(image_pol, image_l), src] = 1.0
                mask[src] = True
            else:
                matrix[src, src] = 1.0
    return matrix, None if mask.all() else mask


def masked_qplate_gather(space, shift):
    """The q-plate's (source, input_mask) by a masked formula over all k,
    kept as the reference for the factory's slice form."""
    n = space.n_oam
    k = np.arange(n)
    from_r, from_l = k + shift, k - shift
    r_in = (0 <= from_r) & (from_r < n)
    l_in = (0 <= from_l) & (from_l < n)
    source = np.concatenate((np.where(r_in, n + from_r, k), np.where(l_in, from_l, n + k)))
    mask = np.concatenate((r_in, l_in))
    return source, None if mask.all() else mask


def _lift_blocks(space, block_for_l):
    matrix = np.zeros((space.dimension, space.dimension), dtype=complex)
    for l in range(-space.l_max, space.l_max + 1):
        block = block_for_l(l)
        modes = (space.index(LEFT, l), space.index(RIGHT, l))
        for row in range(2):
            for col in range(2):
                matrix[modes[row], modes[col]] = block[row, col]
    return matrix


def ref_hwp(space, theta, aperture=APERTURE_FULL, crosstalk=0.0):
    """Circular-basis swap [[0, e^{-2it}], [e^{2it}, 0]]; the l0-only plate puts
    the residual retarder diag(1, e^{i*eps*pi}) (H/V) on every l != 0 block."""
    active = np.array(
        [[0.0, cmath.exp(-2j * theta)], [cmath.exp(2j * theta), 0.0]], dtype=complex
    )
    p = cmath.exp(1j * math.pi * crosstalk)
    residual = np.array(
        [[(1 + p) / 2, (1 - p) / 2], [(1 - p) / 2, (1 + p) / 2]], dtype=complex
    )
    if aperture == APERTURE_FULL:
        return _lift_blocks(space, lambda l: active)
    return _lift_blocks(space, lambda l: active if l == 0 else residual)


def ref_dove(space):
    dim = space.dimension
    matrix = np.zeros((dim, dim), dtype=complex)
    for pol in (LEFT, RIGHT):
        for l in range(-space.l_max, space.l_max + 1):
            matrix[space.index(pol, -l), space.index(pol, l)] = 1.0
    return matrix


def ref_stmt(space, stmt):
    if isinstance(stmt, QPlateStmt):
        return ref_qplate(space, stmt.q)[0]
    if isinstance(stmt, HwpStmt):
        return ref_hwp(space, stmt.theta, stmt.aperture, stmt.crosstalk)
    if isinstance(stmt, DoveStmt):
        return ref_dove(space)
    return np.eye(space.dimension, dtype=complex)


def ref_product(matrices, dim):
    total = np.eye(dim, dtype=complex)
    for matrix in matrices:
        total = matrix @ total
    return total


# --- factories against the reference -------------------------------------------

L_MAXES = st.sampled_from((4, 6, 64))
CHARGES = st.sampled_from([Fraction(s, 2) for s in (1, -1, 2, -2, 3, -3, 4, -4)])
ETAS = st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0))
THETAS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
CROSSTALKS = st.floats(min_value=0.0, max_value=1.0)


@given(L_MAXES, CHARGES, ETAS)
def test_qplate_equals_dense_reference(l_max, q, eta):
    space = make_space(l_max)
    op = qplate(space, QPlateSpec(q, eta))
    matrix, mask = ref_qplate(space, q)
    assert np.array_equal(dense(op), matrix)
    assert np.array_equal(op.input_mask, mask)
    assert op.survival_factor == eta


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_qplate_gather_equals_masked_reference_for_every_shift(l_max):
    space = make_space(l_max)
    for shift in range(-2 * l_max, 2 * l_max + 1):
        op = qplate(space, QPlateSpec(Fraction(shift, 2)))
        source, mask = masked_qplate_gather(space, shift)
        assert op.source.tobytes() == source.tobytes(), shift
        if mask is None:
            assert op.input_mask is None, shift
        else:
            assert op.input_mask.tobytes() == mask.tobytes(), shift


@given(L_MAXES, THETAS, st.sampled_from((APERTURE_FULL, APERTURE_L0)), CROSSTALKS)
def test_hwp_equals_dense_reference(l_max, theta, aperture, crosstalk):
    space = make_space(l_max)
    crosstalk = crosstalk if aperture == APERTURE_L0 else 0.0
    op = hwp(space, WaveplateSpec(theta, aperture, crosstalk))
    assert np.array_equal(dense(op), ref_hwp(space, theta, aperture, crosstalk))
    assert op.input_mask is None


@given(L_MAXES)
def test_dove_and_lens_equal_dense_reference(l_max):
    space = make_space(l_max)
    assert np.array_equal(dense(dove_prism(space)), ref_dove(space))
    assert np.array_equal(dense(lens(space)), np.eye(space.dimension))
    assert dove_prism(space).input_mask is None and lens(space).input_mask is None


# --- chains against the reference ----------------------------------------------


def test_seeded_benches_match_dense_reference_product():
    rng = random.Random(20261018)
    for _ in range(150):
        bench = valid_bench(rng)
        compiled = compile_bench(bench)
        space = compiled.space
        initial = compiled.preparation.initial_state(space)
        output = apply_chain(compiled.elements, initial)
        total = ref_product([ref_stmt(space, s) for s in bench.elements], space.dimension)
        expected = total @ initial.amplitudes
        assert np.abs(output.amplitudes - expected).max() <= 1e-12
        survival = math.prod(s.eta for s in bench.elements if isinstance(s, QPlateStmt))
        assert abs(output.survival - survival) <= 1e-15


#: oracle recipes from the README/logic docstring, in application order
ORACLE_RECIPES = {
    "identity": ("QP", "L", "L", "QP"),
    "not": ("QP", "L", "L", "QP", "HWP", "DP"),
    "cnot": ("QP", "L", "HWP_L0", "L", "QP"),
    "zcnot": ("HWP", "QP", "L", "HWP_L0", "L", "QP", "HWP"),
}


def _ref_element(space, name):
    return {
        "QP": lambda: ref_qplate(space, 1)[0],
        "L": lambda: np.eye(space.dimension, dtype=complex),
        "HWP": lambda: ref_hwp(space, 0.0),
        "HWP_L0": lambda: ref_hwp(space, 0.0, APERTURE_L0),
        "DP": lambda: ref_dove(space),
    }[name]()


def test_compose_of_oracle_chains_equals_dense_reference_product():
    for l_max in (6, 64):
        space = make_space(l_max)
        for oracle_id in ORACLE_IDS:
            composed = compose(build_oracle(space, oracle_id, eta=0.97).elements)
            expected = ref_product(
                [_ref_element(space, name) for name in ORACLE_RECIPES[oracle_id]],
                space.dimension,
            )
            assert np.array_equal(dense(composed), expected), (l_max, oracle_id)
            assert abs(composed.survival_factor - 0.97 ** 2) <= 1e-15
