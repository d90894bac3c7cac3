"""Invariants of seeded benches from `benchmarks/benchtext.py`, element by element.

Spin is counted as s = +1 for L and -1 for R (units of hbar), so a tuned
q-plate, |L,l> -> |R,l+2q> and |R,l> -> |L,l-2q>, flips s and moves l by
2q*s: the total J = s + l changes by 2(q - 1)s.  A q = 1 plate therefore
conserves <J> exactly (Marrucci, Manzo & Paparo, PRL 96, 163905, 2006); for
other charges <J> moves by 2(q - 1)<s>, which for q = -1 is -4<s>.
"""

import math
import random

import numpy as np
import pytest

from conftest import valid_bench
from dense import dense
from spinorbit import TruncationError, apply, basis_state, compile_bench, compose
from spinorbit.dsl import QPlateStmt
from spinorbit.state import POLARIZATIONS


def _benches(count=150, seed=20261018):
    rng = random.Random(seed)
    for _ in range(count):
        bench = valid_bench(rng)
        compiled = compile_bench(bench)
        yield bench, compiled, compiled.preparation.initial_state(compiled.space)


def _spin_and_l(state):
    space = state.space
    weights = np.abs(state.amplitudes.reshape(2, space.n_oam)) ** 2
    spin = weights[0].sum() - weights[1].sum()
    l_mean = float(weights.sum(axis=0) @ np.arange(-space.l_max, space.l_max + 1))
    return spin, l_mean


def test_every_element_keeps_the_norm_and_multiplies_survival_by_its_eta():
    for bench, compiled, state in _benches():
        survival = 1.0
        for stmt, op in zip(bench.elements, compiled.elements):
            # the element's own image, before apply() renormalizes it
            assert abs(np.linalg.norm(dense(op) @ state.amplitudes) - 1.0) <= 1e-12
            state = apply(op, state)
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
            if isinstance(stmt, QPlateStmt):
                survival *= stmt.eta
            assert abs(state.survival - survival) <= 1e-15
        etas = [s.eta for s in bench.elements if isinstance(s, QPlateStmt)]
        assert abs(state.survival - math.prod(etas)) <= 1e-15


def test_q_plates_move_total_angular_momentum_by_2_q_minus_1_spin():
    plates = {}
    for bench, compiled, state in _benches():
        for stmt, op in zip(bench.elements, compiled.elements):
            spin, l_mean = _spin_and_l(state)
            state = apply(op, state)
            if isinstance(stmt, QPlateStmt):
                spin_after, l_after = _spin_and_l(state)
                assert abs(spin_after + spin) <= 1e-12
                shift = 2 * float(stmt.q - 1) * spin
                assert abs((spin_after + l_after) - (spin + l_mean) - shift) <= 1e-12
                plates[stmt.q] = plates.get(stmt.q, 0) + 1
    # both q = +1 (J conserved) and q = -1 plates were exercised
    assert plates.get(1, 0) > 10 and plates.get(-1, 0) > 10


def _edge_kets(space, rng):
    """Basis kets at both truncation edges and at one random mode, per polarization."""
    for pol in POLARIZATIONS:
        for l in (-space.l_max, space.l_max, rng.randint(-space.l_max, space.l_max)):
            yield basis_state(space, pol, l)


@pytest.mark.parametrize("seed", [1, 2])
def test_composed_chain_acts_like_the_chain(seed):
    rng = random.Random(seed)
    checked = raised = 0
    for bench, compiled, state in _benches(seed=seed):
        if not compiled.elements:
            continue
        composed = compose(compiled.elements)
        for ket in [state, *_edge_kets(compiled.space, rng)]:
            try:
                # the reference loop, which renormalizes after every element
                step_by_step = ket
                for op in compiled.elements:
                    step_by_step = apply(op, step_by_step)
            except TruncationError as exc:
                # the composite raises the same text, under the factor's label
                with pytest.raises(TruncationError) as at_once:
                    apply(composed, ket)
                assert str(at_once.value) == str(exc)
                assert str(exc).partition(" cannot act")[0] in {
                    op.label for op in compiled.elements
                }
                raised += 1
                continue
            at_once = apply(composed, ket)
            assert np.abs(at_once.amplitudes - step_by_step.amplitudes).max() <= 1e-12
            assert abs(at_once.survival - step_by_step.survival) <= 1e-12
        checked += 1
    # both outcomes were exercised
    assert checked >= 100 and raised > 50
