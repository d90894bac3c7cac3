import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spinorbit import (
    TruncationError,
    apply,
    apply_chain,
    basis_state,
    fidelity_up_to_phase,
    make_space,
)
from spinorbit.elements import (
    APERTURE_FULL,
    APERTURE_L0,
    DovePrismSpec,
    QPlateSpec,
    WaveplateSpec,
    cnot_bench,
    dove_prism,
    hwp,
    lens,
    polarizer,
    qplate,
)
from spinorbit.state import (
    LEFT,
    LINEAR_TO_CIRCULAR,
    PhotonState,
    RIGHT,
    UNITARITY_TOL,
)


def _is_unitary(op):
    dim = op.matrix.shape[0]
    return np.abs(op.matrix.conj().T @ op.matrix - np.eye(dim)).max() <= UNITARITY_TOL


_JONES_SPACE = make_space(4)


# --- q-plate -----------------------------------------------------------------


def test_qplate_q1_left_raises_oam(space):
    op = qplate(space, QPlateSpec(1))
    out = apply(op, basis_state(space, LEFT, 0))
    assert out.amplitude(RIGHT, +2) == 1.0


def test_qplate_q1_right_lowers_oam(space):
    op = qplate(space, QPlateSpec(1))
    out = apply(op, basis_state(space, RIGHT, 0))
    assert out.amplitude(LEFT, -2) == 1.0


def test_qplate_half_charge(space):
    op = qplate(space, QPlateSpec(Fraction(1, 2)))
    out = apply(op, basis_state(space, LEFT, 0))
    assert out.amplitude(RIGHT, +1) == 1.0


def test_qplate_cascade_restores_oam(space):
    op = qplate(space, QPlateSpec(1))
    for pol in (LEFT, RIGHT):
        for l in range(-space.l_max + 2, space.l_max - 1):
            out = apply_chain([op, op], basis_state(space, pol, l))
            assert abs(out.amplitude(pol, l) - 1.0) <= 1e-12


def test_qplate_rejects_non_integer_2q():
    with pytest.raises(ValueError, match="2q"):
        QPlateSpec(Fraction(1, 3))


def test_qplate_eta_range():
    with pytest.raises(ValueError):
        QPlateSpec(1, eta=0.0)
    with pytest.raises(ValueError):
        QPlateSpec(1, eta=1.2)


def test_qplate_lossy_tagging(space):
    op = qplate(space, QPlateSpec(1, eta=0.97))
    assert op.is_lossy and op.survival_factor == 0.97
    assert _is_unitary(op)  # loss is a scalar factor, the matrix stays unitary


def test_qplate_guard_rejects_edge_modes(space):
    op = qplate(space, QPlateSpec(1))
    with pytest.raises(TruncationError, match="leave the truncation"):
        apply(op, basis_state(space, LEFT, space.l_max))
    with pytest.raises(TruncationError):
        apply(op, basis_state(space, RIGHT, -space.l_max + 1))


def test_qplate_shift_larger_than_lattice(space4):
    with pytest.raises(TruncationError):
        qplate(space4, QPlateSpec(5))


def test_qplate_angular_momentum_bookkeeping(space):
    # each safe column flips the polarization (spin z-change -/+2) and shifts
    # the OAM by +/-2q; guard columns are identity, so sigma_z + l is
    # conserved on every column
    op = qplate(space, QPlateSpec(1))
    spin = {LEFT: 1, RIGHT: -1}
    for j in range(space.dimension):
        column = op.matrix[:, j]
        assert np.count_nonzero(column) == 1
        i = int(np.flatnonzero(column)[0])
        pol_in, l_in = space.basis_label(j)
        pol_out, l_out = space.basis_label(i)
        assert spin[pol_out] + l_out == spin[pol_in] + l_in
        if op.input_mask is not None and op.input_mask[j]:
            assert pol_out != pol_in
            assert l_out - l_in == (2 if pol_in == LEFT else -2)


# --- half-wave plate ---------------------------------------------------------


def test_hwp_theta0_full_swaps_circular(space):
    # J(0) = diag(1, -1) in H/V maps (|H> + i|V>)/sqrt2 to (|H> - i|V>)/sqrt2,
    # i.e. |L> -> |R> with amplitude +1, on every l
    op = hwp(space, WaveplateSpec(0.0))
    for l in space.oam_values():
        out = apply(op, basis_state(space, LEFT, l))
        assert abs(out.amplitude(RIGHT, l) - 1.0) <= 1e-12
        out = apply(op, basis_state(space, RIGHT, l))
        assert abs(out.amplitude(LEFT, l) - 1.0) <= 1e-12


@given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_hwp_block_matches_jones_conjugation(theta):
    # independent route: lift [[cos2t, sin2t], [sin2t, -cos2t]] from the
    # linear basis with the convention's change-of-basis matrix
    space = _JONES_SPACE
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    jones_hv = np.array([[c, s], [s, -c]], dtype=complex)
    expected = LINEAR_TO_CIRCULAR @ jones_hv @ LINEAR_TO_CIRCULAR.conj().T
    op = hwp(space, WaveplateSpec(theta))
    i_l, i_r = space.index(LEFT, 0), space.index(RIGHT, 0)
    block = op.matrix[np.ix_([i_l, i_r], [i_l, i_r])]
    assert np.abs(block - expected).max() <= 1e-12


def test_hwp_l0_only_leaves_other_oam_untouched(space):
    op = hwp(space, WaveplateSpec(0.0, APERTURE_L0))
    out = apply(op, basis_state(space, LEFT, 0))
    assert abs(out.amplitude(RIGHT, 0) - 1.0) <= 1e-12
    out = apply(op, basis_state(space, LEFT, +4))
    assert abs(out.amplitude(LEFT, +4) - 1.0) <= 1e-12


def test_hwp_full_crosstalk_acts_everywhere(space):
    # retardance eps*pi at eps=1 equals a full half-wave plate on l != 0 too
    op = hwp(space, WaveplateSpec(0.0, APERTURE_L0, crosstalk=1.0))
    out = apply(op, basis_state(space, LEFT, +4))
    assert abs(abs(out.amplitude(RIGHT, +4)) - 1.0) <= 1e-12


def test_hwp_crosstalk_block_monotone_in_eps(space):
    deviations = []
    for eps in np.linspace(0.0, 1.0, 11):
        op = hwp(space, WaveplateSpec(0.0, APERTURE_L0, crosstalk=float(eps)))
        i_l, i_r = space.index(LEFT, 3), space.index(RIGHT, 3)
        block = op.matrix[np.ix_([i_l, i_r], [i_l, i_r])]
        deviations.append(np.linalg.norm(block - np.eye(2)))
    assert all(b >= a - 1e-12 for a, b in zip(deviations, deviations[1:]))
    assert deviations[0] <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 4, 1.5])
def test_hwp_full_is_involution(space, theta):
    op = hwp(space, WaveplateSpec(theta))
    assert np.abs(op.matrix @ op.matrix - np.eye(space.dimension)).max() <= 1e-12


def test_waveplate_spec_validation():
    with pytest.raises(ValueError):
        WaveplateSpec(0.0, "tiny")
    with pytest.raises(ValueError):
        WaveplateSpec(0.0, APERTURE_L0, crosstalk=1.5)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_hwp_rejects_non_finite_theta(space, theta):
    with pytest.raises(ValueError, match="theta"):
        hwp(space, WaveplateSpec(theta))


# --- Dove prism and lens -------------------------------------------------------


def test_dove_inverts_oam(space):
    op = dove_prism(space)
    out = apply(op, basis_state(space, LEFT, +2))
    assert out.amplitude(LEFT, -2) == 1.0


def test_dove_fixes_l0(space):
    out = apply(dove_prism(space), basis_state(space, RIGHT, 0))
    assert out.amplitude(RIGHT, 0) == 1.0


def test_dove_is_involution(space):
    op = dove_prism(space)
    assert np.abs(op.matrix @ op.matrix - np.eye(space.dimension)).max() == 0.0


def test_dove_rejects_tilt():
    with pytest.raises(ValueError, match="angle 0"):
        DovePrismSpec(0.1)


def test_lens_is_identity(space):
    op = lens(space)
    rng = np.random.default_rng(3)
    for _ in range(3):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        amps /= np.linalg.norm(amps)
        state = PhotonState(space, amps)
        out = apply(op, state)
        assert np.abs(out.amplitudes - state.amplitudes).max() <= 1e-15
    assert op.label == "lens"


# --- composite CNOT ------------------------------------------------------------


def test_cnot_bench_control_one_flips_target(space):
    chain = cnot_bench(space)
    out = apply_chain(chain, basis_state(space, RIGHT, +2))
    assert abs(out.amplitude(LEFT, -2) - 1.0) <= 1e-12


def test_cnot_bench_control_zero_fixed(space):
    chain = cnot_bench(space)
    out = apply_chain(chain, basis_state(space, LEFT, +2))
    assert abs(out.amplitude(LEFT, +2) - 1.0) <= 1e-12


def test_cnot_bench_intermediate_state(space):
    # the first q-plate sends |R,+2> to |L,0>, where the selective waveplate acts
    chain = cnot_bench(space)
    mid = apply(chain[0], basis_state(space, RIGHT, +2))
    assert abs(mid.amplitude(LEFT, 0) - 1.0) <= 1e-12


def test_cnot_bench_layout(space):
    labels = [op.label for op in cnot_bench(space, eta=0.97)]
    assert labels == ["QP1", "L1", "HWP1", "L2", "QP2"]


# --- polarizer -----------------------------------------------------------------


def test_polarizer_passes_aligned_state(space):
    from spinorbit.state import V_CIRCULAR

    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, 0)] = V_CIRCULAR[0]
    amps[space.index(RIGHT, 0)] = V_CIRCULAR[1]
    state = PhotonState(space, amps)
    out, probability = polarizer(space, "V").project(state)
    assert abs(probability - 1.0) <= 1e-12
    assert fidelity_up_to_phase(out, state) >= 1.0 - 1e-12


def test_polarizer_blocks_orthogonal_state(space):
    from spinorbit.state import H_CIRCULAR

    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, 0)] = H_CIRCULAR[0]
    amps[space.index(RIGHT, 0)] = H_CIRCULAR[1]
    out, probability = polarizer(space, "V").project(PhotonState(space, amps))
    assert probability == 0.0
    assert out is None


def test_polarizer_halves_circular_state(space):
    # |L,0> expanded in H/V leaves i|V,0> behind the V-polarizer, probability 1/2
    out, probability = polarizer(space, "V").project(basis_state(space, LEFT, 0))
    assert abs(probability - 0.5) <= 1e-12
    expected = np.zeros(space.dimension, dtype=complex)
    expected[space.index(LEFT, 0)] = 1.0 / math.sqrt(2.0)
    expected[space.index(RIGHT, 0)] = -1.0 / math.sqrt(2.0)
    assert fidelity_up_to_phase(out, PhotonState(space, expected)) >= 1.0 - 1e-12


def test_polarizer_axis_validation(space):
    with pytest.raises(ValueError):
        polarizer(space, "D")


# --- factory hygiene -------------------------------------------------------------


@pytest.mark.parametrize(
    "factory",
    [
        lambda s: qplate(s, QPlateSpec(1)),
        lambda s: qplate(s, QPlateSpec(Fraction(1, 2), eta=0.97)),
        lambda s: qplate(s, QPlateSpec(-1)),
        lambda s: hwp(s, WaveplateSpec(0.0)),
        lambda s: hwp(s, WaveplateSpec(0.37, APERTURE_FULL)),
        lambda s: hwp(s, WaveplateSpec(0.0, APERTURE_L0, 0.4)),
        lambda s: dove_prism(s),
        lambda s: lens(s),
    ],
)
def test_every_factory_output_is_unitary(space, factory):
    assert _is_unitary(factory(space))
