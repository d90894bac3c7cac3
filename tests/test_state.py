import tracemalloc

import numpy as np
import pytest

from spinorbit import (
    ElementOp,
    TruncationError,
    apply,
    apply_chain,
    basis_state,
    compose,
    fidelity_up_to_phase,
    make_space,
)
from spinorbit.elements import QPlateSpec, WaveplateSpec, hwp, qplate
from spinorbit.state import (
    H_CIRCULAR,
    LEFT,
    LINEAR_TO_CIRCULAR,
    MAX_L_MAX,
    PhotonState,
    RIGHT,
    V_CIRCULAR,
)


@pytest.mark.parametrize("l_max,dimension", [(4, 18), (6, 26)])
def test_make_space_dimension(l_max, dimension):
    assert make_space(l_max).dimension == dimension


@pytest.mark.parametrize("l_max", [0, 2, 3])
def test_make_space_rejects_insufficient_truncation(l_max):
    # l_max=2 would overflow inside the composite CNOT chain: |L,+2> passes the
    # first q-plate to |R,+4| which needs l_max >= 4
    with pytest.raises(TruncationError):
        make_space(l_max)


def test_make_space_rejects_l_max_above_cap_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match="l_max"):
            make_space(100000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert make_space(MAX_L_MAX).dimension == 4002
    with pytest.raises(TruncationError, match="l_max"):
        make_space(MAX_L_MAX + 1)


def test_make_space_rejects_non_integer():
    with pytest.raises(TypeError):
        make_space(6.0)


def test_index_ordering_documented_formula(space):
    n_oam = 2 * space.l_max + 1
    for pol_index, pol in enumerate((LEFT, RIGHT)):
        for l in space.oam_values():
            assert space.index(pol, l) == pol_index * n_oam + (l + space.l_max)
    labels = {space.basis_label(i) for i in range(space.dimension)}
    assert len(labels) == space.dimension


def test_basis_state_unit_amplitude(space):
    state = basis_state(space, LEFT, +2)
    assert state.amplitude(LEFT, +2) == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.survival == 1.0

    state = basis_state(space, RIGHT, -2)
    assert state.amplitude(RIGHT, -2) == 1.0


def test_basis_state_out_of_range(space):
    with pytest.raises(TruncationError):
        basis_state(space, LEFT, space.l_max + 1)


def test_polarization_convention_identities():
    # (|L> - |R>)/sqrt(2) = i|V> and (|L> + |R>)/sqrt(2) = |H>, exactly
    l_ket = np.array([1.0, 0.0], dtype=complex)
    r_ket = np.array([0.0, 1.0], dtype=complex)
    lhs_v = (l_ket - r_ket) / np.sqrt(2.0)
    assert np.abs(lhs_v - 1j * V_CIRCULAR).max() <= 1e-15
    lhs_h = (l_ket + r_ket) / np.sqrt(2.0)
    assert np.abs(lhs_h - H_CIRCULAR).max() <= 1e-15


def test_linear_to_circular_is_unitary():
    t = LINEAR_TO_CIRCULAR
    assert np.abs(t.conj().T @ t - np.eye(2)).max() <= 1e-15


def test_apply_identity_leaves_state(space):
    op = ElementOp(space, np.eye(space.dimension, dtype=complex), label="id")
    state = basis_state(space, LEFT, 3)
    out = apply(op, state)
    assert np.array_equal(out.amplitudes, state.amplitudes)
    assert out.survival == 1.0


def test_apply_lossy_survival_multiplies(space):
    lossy = qplate(space, QPlateSpec(1, eta=0.97))
    state = basis_state(space, LEFT, 0)
    once = apply(lossy, state)
    assert once.survival == 0.97
    twice = apply(lossy, once)
    assert abs(twice.survival - 0.9409) <= 1e-15


def test_apply_dimension_mismatch(space, space4):
    op = ElementOp(space4, np.eye(space4.dimension, dtype=complex))
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply(op, basis_state(space, LEFT, 0))


def test_fidelity_self_and_negated(space):
    psi = basis_state(space, LEFT, 2)
    assert fidelity_up_to_phase(psi, psi) == 1.0
    negated = PhotonState(space, -psi.amplitudes)
    assert fidelity_up_to_phase(psi, negated) == 1.0


def test_fidelity_orthogonal_basis_states(space):
    assert fidelity_up_to_phase(
        basis_state(space, LEFT, 2), basis_state(space, RIGHT, 2)
    ) == 0.0


def test_global_phase_contract(space):
    rng = np.random.default_rng(20260810)
    for _ in range(100):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        amps /= np.linalg.norm(amps)
        psi = PhotonState(space, amps)
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rotated = PhotonState(space, phase * amps)
        assert abs(fidelity_up_to_phase(psi, rotated) - 1.0) <= 1e-12


def test_compose_u_udagger_is_identity(space):
    u = hwp(space, WaveplateSpec(0.7))
    u_dag = ElementOp(space, u.matrix.conj().T, label="hwp+")
    combined = compose([u, u_dag])
    assert np.abs(combined.matrix - np.eye(space.dimension)).max() <= 1e-12
    assert not combined.is_lossy


def test_compose_empty_rejected():
    with pytest.raises(ValueError):
        compose([])


def test_compose_order_last_leftmost(space):
    qp = qplate(space, QPlateSpec(1))
    wp = hwp(space, WaveplateSpec(0.0))
    combined = compose([qp, wp])
    assert np.abs(combined.matrix - wp.matrix @ qp.matrix).max() == 0.0


def test_compose_double_qplate_identity_on_safe_modes(space):
    qp = qplate(space, QPlateSpec(1))
    combined = compose([qp, qp])
    for pol in (LEFT, RIGHT):
        for l in range(-space.l_max + 2, space.l_max - 1):
            out = apply(combined, basis_state(space, pol, l))
            assert abs(out.amplitude(pol, l) - 1.0) <= 1e-12


def test_survival_factorization(space):
    etas = [0.97, 0.8, 0.93, 0.99]
    chain = [qplate(space, QPlateSpec(1, eta)) for eta in etas]
    state = apply_chain(chain, basis_state(space, LEFT, 0))
    assert abs(state.survival - np.prod(etas)) <= 1e-15
    assert abs(compose(chain).survival_factor - np.prod(etas)) <= 1e-15


def test_norm_preserved_through_random_chains(space):
    rng = np.random.default_rng(7)
    pool = [
        qplate(space, QPlateSpec(1, 0.97)),
        hwp(space, WaveplateSpec(0.3)),
        hwp(space, WaveplateSpec(0.0, "l0_only", 0.4)),
    ]
    for _ in range(25):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        # keep clear of the q-plate guard band at |l| > l_max - 2
        for pol in (LEFT, RIGHT):
            for l in (-6, -5, 5, 6):
                amps[space.index(pol, l)] = 0.0
        amps /= np.linalg.norm(amps)
        state = PhotonState(space, amps)
        for op in rng.permutation(len(pool))[: rng.integers(1, 4)]:
            state = apply(pool[op], state)
        assert abs(np.linalg.norm(state.amplitudes) ** 2 - 1.0) <= 1e-12


def test_photon_state_requires_normalized_amplitudes(space):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError, match="not normalized"):
        PhotonState(space, amps)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_photon_state_rejects_non_finite_amplitudes(space, value):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[0] = 1.0
    amps[1] = value
    with pytest.raises(ValueError, match="not normalized"):
        PhotonState(space, amps)


def test_element_op_rejects_non_unitary(space):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, 0.5 * np.eye(space.dimension, dtype=complex))


def test_element_op_rejects_nan_matrix(space):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, np.full((space.dimension, space.dimension), np.nan))


@pytest.mark.parametrize("value", [0.5, np.nan])
def test_element_op_rejects_non_unitary_block(space, value):
    blocks = np.tile(np.eye(2, dtype=complex), (space.n_oam, 1, 1))
    blocks[3, 1, 1] = value
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, source=np.arange(space.dimension), blocks=blocks)


@pytest.mark.parametrize("source", [[0] * 26, list(range(1, 27)), [0.0] * 26])
def test_element_op_rejects_source_that_is_not_a_permutation(space, source):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, source=source)


def test_element_op_needs_exactly_one_form(space):
    eye = np.eye(space.dimension, dtype=complex)
    with pytest.raises(ValueError):
        ElementOp(space)
    with pytest.raises(ValueError):
        ElementOp(space, eye, source=np.arange(space.dimension))


def test_structured_op_matches_its_dense_view(space):
    # gather with a spin-flip block on every l: U = B P, checked column by column
    rng = np.random.default_rng(5)
    source = rng.permutation(space.dimension)
    blocks = np.tile(np.array([[0, 1j], [1j, 0]]), (space.n_oam, 1, 1))
    op = ElementOp(space, source=source, blocks=blocks)
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    state = PhotonState(space, amps / np.linalg.norm(amps))
    out = apply(op, state)
    assert np.abs(out.amplitudes - op.matrix @ state.amplitudes).max() <= 1e-15
    with pytest.raises(AttributeError):
        op.label = "renamed"


def test_element_op_kind_constraints(space):
    eye = np.eye(space.dimension, dtype=complex)
    with pytest.raises(ValueError):
        ElementOp(space, eye, kind="unitary", survival_factor=0.9)
    with pytest.raises(ValueError):
        ElementOp(space, eye, kind="lossy", survival_factor=1.0)


def test_states_and_operators_are_readonly(space):
    state = basis_state(space, LEFT, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    op = qplate(space, QPlateSpec(1))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0
