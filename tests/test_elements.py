import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import element_builders
from dense import dense
from hypothesis import given, strategies as st

from spinorbit import (
    BenchFile,
    CompileError,
    TruncationError,
    apply,
    apply_chain,
    basis_state,
    build_oracle,
    compile_bench,
    elements,
    make_space,
    measure_pbs,
    parse,
)
from spinorbit.dsl import DoveStmt
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
from spinorbit.state import (
    H_CIRCULAR,
    LEFT,
    PhotonState,
    RIGHT,
    UNITARITY_TOL,
    V_CIRCULAR,
)


def _is_unitary(op):
    matrix = dense(op)
    return np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0])).max() <= UNITARITY_TOL


_JONES_SPACE = make_space(4)
#: change of basis taking (H, V) coordinates to (L, R) coordinates
_LINEAR_TO_CIRCULAR = np.column_stack((H_CIRCULAR, V_CIRCULAR))


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


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf, "nan", "1/0", "one"])
def test_qplate_spec_names_q_for_a_value_that_is_no_finite_rational(q):
    with pytest.raises(ValueError, match="^q must be a finite rational"):
        QPlateSpec(q)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: QPlateSpec(1, "1"), "eta"),
        (lambda: QPlateSpec(1, None), "eta"),
        (lambda: WaveplateSpec("0"), "theta"),
        (lambda: WaveplateSpec(0.0, APERTURE_L0, "0.3"), "crosstalk"),
        (lambda: WaveplateSpec(0.0, APERTURE_L0, 0.3j), "crosstalk"),
    ],
)
def test_specs_name_a_field_that_is_no_number(make, name):
    with pytest.raises(TypeError, match=f"^{name} must be a number, got "):
        make()


def test_qplate_eta_range():
    with pytest.raises(ValueError):
        QPlateSpec(1, eta=0.0)
    with pytest.raises(ValueError):
        QPlateSpec(1, eta=1.2)


def test_qplate_lossy_tagging(space):
    op = qplate(space, QPlateSpec(1, eta=0.97))
    assert op.survival_factor == 0.97
    assert _is_unitary(op)  # loss is a scalar factor, the matrix stays unitary


def test_qplate_guard_rejects_edge_modes(space):
    op = qplate(space, QPlateSpec(1))
    with pytest.raises(TruncationError, match="leave the truncation"):
        apply(op, basis_state(space, LEFT, space.l_max))
    with pytest.raises(TruncationError):
        apply(op, basis_state(space, RIGHT, -space.l_max + 1))


def test_qplate_guard_names_the_first_worst_mode(space):
    op = qplate(space, QPlateSpec(1), label="QP1")
    edge = [space.index(LEFT, 5), space.index(LEFT, 6), space.index(RIGHT, -6)]
    message = (
        "QP1 cannot act on |{}>: the image would leave the truncation |l| <= 6"
    )
    # equal weights: the first guarded mode in index order is named
    amps = np.zeros(space.dimension, dtype=complex)
    amps[edge] = 1.0
    with pytest.raises(TruncationError) as err:
        apply(op, PhotonState(space, amps / np.linalg.norm(amps)))
    assert str(err.value) == message.format("L,+5")
    amps[edge[2]] = 2.0
    with pytest.raises(TruncationError) as err:
        apply(op, PhotonState(space, amps / np.linalg.norm(amps)))
    assert str(err.value) == message.format("R,-6")


def test_qplate_shift_larger_than_lattice(space4):
    with pytest.raises(TruncationError):
        qplate(space4, QPlateSpec(5))


def test_qplate_angular_momentum_bookkeeping(space):
    # each safe column flips the polarization (spin z-change -/+2) and shifts
    # the OAM by +/-2q; guard columns are identity, so sigma_z + l is
    # conserved on every column
    op = qplate(space, QPlateSpec(1))
    spin = {LEFT: 1, RIGHT: -1}
    matrix = dense(op)
    for j in range(space.dimension):
        column = matrix[:, j]
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
    for l in range(-space.l_max, space.l_max + 1):
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
    expected = _LINEAR_TO_CIRCULAR @ jones_hv @ _LINEAR_TO_CIRCULAR.conj().T
    op = hwp(space, WaveplateSpec(theta))
    i_l, i_r = space.index(LEFT, 0), space.index(RIGHT, 0)
    block = dense(op)[np.ix_([i_l, i_r], [i_l, i_r])]
    assert np.abs(block - expected).max() <= 1e-12


def test_hwp_l0_only_leaves_other_oam_untouched(space):
    op = hwp(space, WaveplateSpec(0.0, APERTURE_L0))
    out = apply(op, basis_state(space, LEFT, 0))
    assert abs(out.amplitude(RIGHT, 0) - 1.0) <= 1e-12
    out = apply(op, basis_state(space, LEFT, +4))
    assert abs(out.amplitude(LEFT, +4) - 1.0) <= 1e-12


def test_hwp_full_crosstalk_acts_everywhere(space):
    # retardance eps*pi at eps=1 is a half-wave plate on l != 0 too, up to rounding
    op = hwp(space, WaveplateSpec(0.0, APERTURE_L0, crosstalk=1.0))
    out = apply(op, basis_state(space, LEFT, +4))
    assert abs(abs(out.amplitude(RIGHT, +4)) - 1.0) <= 1e-12


def test_the_crosstalk_1_retarder_is_a_half_wave_plate_up_to_rounding(space):
    # e^{i*pi} rounds to -1+1.22e-16j: each entry that keeps the polarization is
    # 6.1e-17j, not 0, and each that flips it 1-6.1e-17j; these bits are pinned
    stay, flip = complex(0.0, 6.123233995736766e-17), complex(1.0, -6.123233995736766e-17)
    assert stay.imag.hex() == "0x1.1a62633145c07p-54"
    want = [[stay, flip], [flip, stay]]
    bits = [[(z.real.hex(), z.imag.hex()) for z in row]
            for row in (*elements._retarder_block_circular(1.0), *want)]
    assert bits[:2] == bits[2:]
    op = hwp(space, WaveplateSpec(0.0, APERTURE_L0, 1.0))
    assert op.blocks[0].tobytes() == np.array(want).tobytes()


def test_hwp_crosstalk_block_monotone_in_eps(space):
    deviations = []
    for eps in np.linspace(0.0, 1.0, 11):
        op = hwp(space, WaveplateSpec(0.0, APERTURE_L0, crosstalk=float(eps)))
        i_l, i_r = space.index(LEFT, 3), space.index(RIGHT, 3)
        block = dense(op)[np.ix_([i_l, i_r], [i_l, i_r])]
        deviations.append(np.linalg.norm(block - np.eye(2)))
    assert all(b >= a - 1e-12 for a, b in zip(deviations, deviations[1:]))
    assert deviations[0] <= 1e-15


@pytest.mark.parametrize("theta", [0.0, 0.2, math.pi / 4, 1.5])
def test_hwp_full_is_involution(space, theta):
    matrix = dense(hwp(space, WaveplateSpec(theta)))
    assert np.abs(matrix @ matrix - np.eye(space.dimension)).max() <= 1e-12


def test_waveplate_spec_validation():
    with pytest.raises(ValueError):
        WaveplateSpec(0.0, "tiny")
    with pytest.raises(ValueError):
        WaveplateSpec(0.0, APERTURE_L0, crosstalk=1.5)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: QPlateSpec(1, True), "eta"),
        (lambda: QPlateSpec(1, eta=False), "eta"),
        (lambda: QPlateSpec(True), "q"),
        (lambda: WaveplateSpec(True), "theta"),
        (lambda: WaveplateSpec(0.0, APERTURE_L0, True), "crosstalk"),
        (lambda: WaveplateSpec(0.0, APERTURE_FULL, crosstalk=False), "crosstalk"),
    ],
)
def test_specs_reject_a_bool_number(make, name):
    # a bool passes each range check as 0 or 1, so it is refused by type
    with pytest.raises(TypeError, match=f"^{name} must be a number, not a bool$"):
        make()


@pytest.mark.parametrize("oracle_id", ["identity", "cnot"])
def test_oracles_reject_a_bool_eta_or_crosstalk(oracle_id):
    from spinorbit.deutsch import run

    with pytest.raises(TypeError, match="^eta must be"):
        run(oracle_id, eta=True)
    with pytest.raises(TypeError, match="^crosstalk must be"):
        run(oracle_id, crosstalk=True)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308, -1e308])
def test_hwp_rejects_non_finite_theta(space, theta):
    with pytest.raises(ValueError, match="theta"):
        hwp(space, WaveplateSpec(theta))


# --- Dove prism and lens -------------------------------------------------------


@pytest.mark.parametrize("patched", ["_retarder_block_circular", "_hwp_block_circular"])
@pytest.mark.parametrize("block", [[[1.0, 0.0], [0.0, 1.5]], [[1.0, 0.0], [0.0, math.nan]]])
def test_hwp_rejects_a_bad_distinct_block(space, monkeypatch, patched, block):
    # an l0-only plate checks its two distinct blocks; either may be the bad one
    monkeypatch.setattr(elements, patched, lambda _: np.array(block, dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        hwp(space, WaveplateSpec(0.3, APERTURE_L0, 0.2))


def test_dove_inverts_oam(space):
    op = dove_prism(space)
    out = apply(op, basis_state(space, LEFT, +2))
    assert out.amplitude(LEFT, -2) == 1.0


def test_dove_fixes_l0(space):
    out = apply(dove_prism(space), basis_state(space, RIGHT, 0))
    assert out.amplitude(RIGHT, 0) == 1.0


def test_dove_is_involution(space):
    matrix = dense(dove_prism(space))
    assert np.abs(matrix @ matrix - np.eye(space.dimension)).max() == 0.0


def test_dove_rejects_tilt():
    with pytest.raises(CompileError, match="^element 2 'dove' \\(line 2\\): only a Dove prism at "
                                           "angle 0 is supported, got 0.1$"):
        compile_bench(parse("lens\ndove angle=0.1\n"))


@pytest.mark.parametrize("angle, error", [
    (False, "angle must be a number, not a bool"),
    (math.nan, "only a Dove prism at angle 0 is supported, got nan"),
    (-0.5, "only a Dove prism at angle 0 is supported, got -0.5"),
])
def test_a_dove_angle_other_than_0_is_a_compile_error(angle, error):
    # `dove angle=` is checked by the one rule of elements, and only by compile_bench
    with pytest.raises(CompileError, match=f"^element 1 'dove': {error}$"):
        compile_bench(BenchFile(elements=(DoveStmt(angle),)))
    assert compile_bench(BenchFile(elements=(DoveStmt(-0.0),))).elements[0].label == "dove[1]"


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
    chain = build_oracle(space, "cnot").elements
    out = apply_chain(chain, basis_state(space, RIGHT, +2))
    assert abs(out.amplitude(LEFT, -2) - 1.0) <= 1e-12


def test_cnot_bench_control_zero_fixed(space):
    chain = build_oracle(space, "cnot").elements
    out = apply_chain(chain, basis_state(space, LEFT, +2))
    assert abs(out.amplitude(LEFT, +2) - 1.0) <= 1e-12


def test_cnot_bench_intermediate_state(space):
    # the first q-plate sends |R,+2> to |L,0>, where the selective waveplate acts
    chain = build_oracle(space, "cnot").elements
    mid = apply(chain[0], basis_state(space, RIGHT, +2))
    assert abs(mid.amplitude(LEFT, 0) - 1.0) <= 1e-12


def test_cnot_bench_layout(space):
    labels = [op.label for op in build_oracle(space, "cnot", eta=0.97).elements]
    assert labels == ["QP1", "L1", "HWP1", "L2", "QP2"]


# --- polarizing beam splitter ---------------------------------------------------
# measure_pbs projects onto H (detector D1) and V (detector D2) at every l


def _linear_state(space, circular_pair, l=0):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, l)] = circular_pair[0]
    amps[space.index(RIGHT, l)] = circular_pair[1]
    return PhotonState(space, amps)


def test_polarizer_passes_aligned_state(space):
    p_h, p_v = measure_pbs(_linear_state(space, V_CIRCULAR))
    assert abs(p_v - 1.0) <= 1e-12
    assert p_h <= 1e-24


def test_polarizer_blocks_orthogonal_state(space):
    p_h, p_v = measure_pbs(_linear_state(space, H_CIRCULAR, l=3))
    assert p_v <= 1e-24
    assert abs(p_h - 1.0) <= 1e-12


def test_polarizer_halves_circular_state(space):
    # |L,0> expanded in H/V is (|H> - i|V>)/sqrt(2): probability 1/2 at each port
    for pol in (LEFT, RIGHT):
        p_h, p_v = measure_pbs(basis_state(space, pol, 0))
        assert abs(p_h - 0.5) <= 1e-12
        assert abs(p_v - 0.5) <= 1e-12


def test_polarizer_axis_validation(space):
    # H and V are orthogonal and complete: the two ports share every state
    rng = np.random.default_rng(11)
    for _ in range(20):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        p_h, p_v = measure_pbs(PhotonState(space, amps / np.linalg.norm(amps)))
        assert abs(p_h + p_v - 1.0) <= 1e-12


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


# --- the builders' memo ------------------------------------------------------------
# each factory builds and checks its op once per exact key and hands out the shared
# op relabeled; equal specs can hold different bits, so the key is never the spec


def _cold(build):
    for builder in element_builders():
        builder.cache_clear()
    return build()


def _fields(op):
    arrays = [getattr(op, name) for name in ("source", "blocks", "input_mask", "_blocked")]
    return (op.label, op.survival_factor < 1, repr(op.survival_factor),
            [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays])


#: pairs of calls with equal specs; the first four pairs build different bits
_EQUAL_SPECS = [
    (lambda s: hwp(s, WaveplateSpec(0.0)), lambda s: hwp(s, WaveplateSpec(-0.0))),
    (lambda s: hwp(s, WaveplateSpec(0.1)), lambda s: hwp(s, WaveplateSpec(np.float32(0.1)))),
    (lambda s: hwp(s, WaveplateSpec(0.0, APERTURE_L0, 1.0), "HWP1"),
     lambda s: hwp(s, WaveplateSpec(-0.0, APERTURE_L0, 1.0), "HWP1")),
    (lambda s: qplate(s, QPlateSpec(1, 0.97), "QP1"),
     lambda s: qplate(s, QPlateSpec(1, np.float32(0.97)), "QP1")),
    # crosstalk -0.0 has its own key, and builds the bits of 0.0
    (lambda s: hwp(s, WaveplateSpec(0.3, APERTURE_L0, 0.0)),
     lambda s: hwp(s, WaveplateSpec(0.3, APERTURE_L0, -0.0))),
    (lambda s: qplate(s, QPlateSpec(Fraction(-1, 2))),
     lambda s: qplate(s, QPlateSpec(-0.5), "QP2")),
    (lambda s: dove_prism(s), lambda s: dove_prism(s, "DP")),
    (lambda s: lens(s), lambda s: lens(s, "L2")),
]


@pytest.mark.parametrize("first, second", _EQUAL_SPECS[:4])
def test_the_equal_specs_build_different_bits(space4, first, second):
    # so the test below fails on a memo keyed on the spec
    assert _fields(_cold(lambda: first(space4))) != _fields(_cold(lambda: second(space4)))


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_a_warm_memo_op_equals_a_cold_build(l_max):
    space = make_space(l_max)
    calls = [build for pair in _EQUAL_SPECS for build in pair] * 2  # the second round hits
    warm = [build(space) for build in calls]
    for op, build in zip(warm, calls):
        assert _fields(op) == _fields(_cold(lambda: build(space)))


def test_a_hit_shares_the_read_only_arrays_under_its_own_label(space):
    first, second = hwp(space, WaveplateSpec(0.3), "A"), hwp(space, WaveplateSpec(0.3), "B")
    assert first is not second and (first.label, second.label) == ("A", "B")
    assert second.blocks is first.blocks and not second.blocks.flags.writeable
    assert elements._hwp_op.cache_info().hits == 1


def test_a_waveplate_hit_builds_no_block(space, monkeypatch):
    # the key is the bytes of float(theta) and float(crosstalk), so a hit needs no block
    first = hwp(space, WaveplateSpec(0.3, APERTURE_L0, np.float32(0.2)))
    for builder in ("_hwp_block_circular", "_retarder_block_circular"):
        monkeypatch.setattr(elements, builder, lambda _: pytest.fail("built a block"))
    again = hwp(space, WaveplateSpec(0.3, APERTURE_L0, float(np.float32(0.2))))
    assert again.blocks is first.blocks


def test_a_full_aperture_plate_is_keyed_without_its_crosstalk(space):
    first = hwp(space, WaveplateSpec(0.3))
    assert hwp(space, WaveplateSpec(0.3, crosstalk=0.7)).blocks is first.blocks
    assert elements._hwp_op.cache_info().currsize == 1


@pytest.mark.parametrize("l_max", [4, 1000])
def test_a_waveplate_holds_one_block_or_two(l_max):
    space = make_space(l_max)
    assert hwp(space, WaveplateSpec(0.3)).blocks.shape == (1, 2, 2)
    assert hwp(space, WaveplateSpec(0.0, APERTURE_L0, 0.3)).blocks.nbytes == 128


def test_the_memo_keeps_at_most_maxsize_entries():
    space = make_space(1000)
    maxsize = elements._hwp_op.cache_info().maxsize
    for k in range(maxsize + 8):
        hwp(space, WaveplateSpec(0.01 * k))
    assert elements._hwp_op.cache_info().currsize == maxsize
    assert all(builder.cache_info().maxsize == maxsize for builder in element_builders())


def _memo_sizes():
    return [builder.cache_info().currsize for builder in element_builders()]


def test_a_factory_that_raises_caches_nothing(space4, monkeypatch):
    for _ in range(2):  # and raises again
        with pytest.raises(TruncationError, match=r"q=9/2 shifts OAM by \+9"):
            qplate(space4, QPlateSpec(Fraction(9, 2)))
    assert _memo_sizes() == [0, 0, 0, 0]
    monkeypatch.setattr(elements, "_hwp_block_circular",
                        lambda _: np.array([[1.0, 0.0], [0.0, 1.5]], dtype=complex))
    for _ in range(2):
        with pytest.raises(ValueError, match="not unitary"):
            hwp(space4, WaveplateSpec(0.3))
    assert _memo_sizes() == [0, 0, 0, 0]
    monkeypatch.undo()
    assert _is_unitary(hwp(space4, WaveplateSpec(0.3)))


def test_each_test_starts_with_empty_memos(space):
    # the tests above filled them; conftest empties them before each test
    assert _memo_sizes() == [0, 0, 0, 0]
