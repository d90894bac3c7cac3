import tracemalloc

import numpy as np
import pytest
from conftest import package_memos
from dense import dense, per_l_blocks

from spinorbit import (
    ElementOp,
    TruncationError,
    apply,
    apply_chain,
    basis_state,
    build_oracle,
    compose,
    fidelity_up_to_phase,
    make_space,
    run,
)
from spinorbit.elements import APERTURE_L0, QPlateSpec, WaveplateSpec, hwp, qplate
from spinorbit.state import (
    GUARD_TOL,
    H_CIRCULAR,
    LEFT,
    MAX_L_MAX,
    ModeSpace,
    PhotonState,
    RIGHT,
    V_CIRCULAR,
    _act,
    _norm,
    _space,
)


@pytest.mark.parametrize("l_max,dimension", [(4, 18), (6, 26)])
def test_make_space_dimension(l_max, dimension):
    space = make_space(l_max)
    assert space.dimension == dimension and space.n_oam == dimension // 2
    # the stored sizes are no part of the value
    assert repr(space) == f"ModeSpace(l_max={l_max})"
    assert space == make_space(l_max) and hash(space) == hash(make_space(l_max))


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


# --- the truncation's memos ----------------------------------------------------------
# make_space builds one space per l_max; deutsch and logic keep the states a space fixes


def test_the_walk_finds_every_memo():
    # conftest empties what this walk finds before each test; a new memo moves the count
    names = sorted(f"{memo.__module__}.{memo.__qualname__}" for memo in package_memos())
    assert names == [
        "spinorbit.deutsch._expected", "spinorbit.deutsch._probe",
        "spinorbit.elements._dove_op", "spinorbit.elements._hwp_op",
        "spinorbit.elements._lens_op", "spinorbit.elements._qplate_op",
        "spinorbit.logic._ket", "spinorbit.state._space",
    ]


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_a_warm_memo_space_equals_a_cold_build(l_max):
    cold = ModeSpace(l_max)
    warm = [make_space(l_max) for _ in range(2)]
    assert warm[1] is warm[0] and _space.cache_info().hits == 1
    assert (warm[0], warm[0].n_oam, warm[0].dimension) == (cold, cold.n_oam, cold.dimension)
    assert make_space(np.int64(l_max)) is warm[0]


@pytest.mark.parametrize("l_max, error", [(3, TruncationError), (True, TypeError),
                                          (MAX_L_MAX + 1, TruncationError)])
def test_an_invalid_l_max_caches_nothing(l_max, error):
    make_space(6)
    before = _space.cache_info()
    for _ in range(2):  # and raises again, checked before the lookup
        with pytest.raises(error, match="l_max"):
            make_space(l_max)
    assert _space.cache_info() == before and before.currsize == 1


def test_index_ordering_documented_formula(space):
    n_oam = 2 * space.l_max + 1
    for pol_index, pol in enumerate((LEFT, RIGHT)):
        for l in range(-space.l_max, space.l_max + 1):
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


@pytest.mark.parametrize("l", [2.0, 2.5, True])
def test_basis_state_rejects_a_non_integer_l(space, l):
    with pytest.raises(TypeError, match="^l must be an integer"):
        basis_state(space, LEFT, l)


def test_survival_rejects_a_bool(space):
    amplitudes = basis_state(space, LEFT, 0).amplitudes
    with pytest.raises(TypeError, match="^survival must be a number, not a bool$"):
        PhotonState(space, amplitudes, survival=True)
    with pytest.raises(TypeError, match="^survival_factor must be a number, not a bool$"):
        ElementOp(space, survival_factor=True)


def test_polarization_convention_identities():
    # (|L> - |R>)/sqrt(2) = i|V> and (|L> + |R>)/sqrt(2) = |H>, exactly
    l_ket = np.array([1.0, 0.0], dtype=complex)
    r_ket = np.array([0.0, 1.0], dtype=complex)
    lhs_v = (l_ket - r_ket) / np.sqrt(2.0)
    assert np.abs(lhs_v - 1j * V_CIRCULAR).max() <= 1e-15
    lhs_h = (l_ket + r_ket) / np.sqrt(2.0)
    assert np.abs(lhs_h - H_CIRCULAR).max() <= 1e-15


def test_linear_to_circular_is_unitary():
    # the change of basis taking (H, V) coordinates to (L, R) coordinates
    t = np.column_stack((H_CIRCULAR, V_CIRCULAR))
    assert np.abs(t.conj().T @ t - np.eye(2)).max() <= 1e-15


def test_apply_identity_leaves_state(space):
    op = ElementOp(space, label="id")
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
    op = ElementOp(space4)
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
    # U = B on the identity gather, so U+ is the blocks' conjugate transposes
    u_dag = ElementOp(space, blocks=u.blocks.conj().transpose(0, 2, 1), label="hwp+")
    combined = compose([u, u_dag])
    assert np.abs(dense(combined) - np.eye(space.dimension)).max() <= 1e-12
    assert combined.survival_factor == 1.0


def test_compose_empty_rejected():
    with pytest.raises(ValueError):
        compose([])


def test_compose_order_last_leftmost(space):
    qp = qplate(space, QPlateSpec(1))
    wp = hwp(space, WaveplateSpec(0.0))
    combined = compose([qp, wp])
    assert np.abs(dense(combined) - dense(wp) @ dense(qp)).max() == 0.0


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


def test_survival_of_a_chain_may_underflow_to_zero(space):
    # each eta lies in (0, 1], but their product is below the smallest float
    chain = [qplate(space, QPlateSpec(1, 1e-200)) for _ in range(2)]
    assert compose(chain).survival_factor == 0.0
    assert apply_chain(chain, basis_state(space, LEFT, 0)).survival == 0.0
    report = run("identity", eta=1e-200)
    assert (report.survival, report.verdict) == (0.0, "constant")
    with pytest.raises(ValueError, match="survival_factor"):
        ElementOp(space, survival_factor=0.0)


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


def test_norm_and_apply_keep_the_bits_of_np_linalg_norm(space):
    rng = np.random.default_rng(11)
    op = hwp(space, WaveplateSpec(0.3, "l0_only", 0.4))
    for size in (1, 7, 26, 4002):
        vector = rng.normal(size=size) + 1j * rng.normal(size=size)
        assert _norm(vector) == np.linalg.norm(vector)
    for _ in range(50):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        state = PhotonState(space, amps / np.linalg.norm(amps))
        # PhotonState divides by the norm once; apply does not divide first
        once = _act(op, state.amplitudes)
        assert apply(op, state).amplitudes.tobytes() == (once / np.linalg.norm(once)).tobytes()


def test_photon_state_requires_normalized_amplitudes(space):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[0] = 0.5
    with pytest.raises(ValueError, match="not normalized"):
        PhotonState(space, amps)


def test_components_lists_the_amplitudes_above_guard_tol(space):
    # normalizing leaves these amplitudes' bits as they are: the norm rounds to 1
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, 2)] = 1.0
    amps[space.index(RIGHT, -1)] = GUARD_TOL
    amps[space.index(RIGHT, 3)] = -1j * np.nextafter(GUARD_TOL, 1.0)
    assert list(PhotonState(space, amps).components()) == [
        (LEFT, 2, 1 + 0j), (RIGHT, 3, -1j * np.nextafter(GUARD_TOL, 1.0))]


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_photon_state_rejects_non_finite_amplitudes(space, value):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[0] = 1.0
    amps[1] = value
    with pytest.raises(ValueError, match="not normalized"):
        PhotonState(space, amps)


def test_element_op_rejects_non_unitary(space):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, blocks=0.5 * np.eye(2, dtype=complex)[None])


def test_element_op_rejects_nan_matrix(space):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, blocks=np.full((1, 2, 2), np.nan))


@pytest.mark.parametrize("shape", [(13, 2, 2), (3, 2, 2), (2, 2), (2, 2, 3), (0, 2, 2)])
def test_element_op_takes_one_block_or_two(space, shape):
    # one block for every l, or that block and the block of l = 0; a block per l
    # (n_oam of them at l_max 6) is no longer a form
    with pytest.raises(ValueError) as info:
        ElementOp(space, blocks=np.zeros(shape))
    assert str(info.value) == (
        f"blocks have shape {shape}, expected (1, 2, 2) or (2, 2, 2)"
    )


def _oracle_blocks(l_max):
    """The blocks of cnot's one mixing element, HWP1 with crosstalk: the
    retarder of every l != 0, then the L <-> R swap, with zeros, of l = 0."""
    space = make_space(l_max)
    (hwp1,) = [op for op in build_oracle(space, "cnot", crosstalk=0.3).elements
               if op.blocks is not None]
    return space, np.array(hwp1.blocks)


def _plant(blocks, fault):
    # blocks[0] is the retarder, blocks[1] the swap of l = 0
    if fault == "existing entry +1e-11":
        blocks[0, 0, 0] += 1e-11
    elif fault == "new entry +1e-11":
        blocks[1, 0, 0] += 1e-11
    elif fault == "zeroed column":
        blocks[0, :, 1] = 0.0
    elif fault == "NaN entry":
        blocks[0, 1, 1] = np.nan
    elif fault == "NaN in a one-entry row":
        blocks[1, 0, 1] = np.nan
    return blocks


@pytest.mark.parametrize("l_max", [6, 64])
@pytest.mark.parametrize(
    "fault",
    [
        "existing entry +1e-11",
        "new entry +1e-11",
        "zeroed column",
        "NaN entry",
        "NaN in a one-entry row",
    ],
)
def test_element_op_rejects_faults_planted_in_an_oracle_product(l_max, fault):
    # the product is never multiplied out: each fault goes into the blocks of
    # the element that mixes, where the constructor checks it
    space, blocks = _oracle_blocks(l_max)
    ElementOp(space, blocks=blocks)
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, blocks=_plant(blocks, fault))


def test_element_op_accepts_an_oracle_product_perturbed_within_tolerance():
    space, blocks = _oracle_blocks(64)
    blocks[0, 1, 1] += 3e-13j
    ElementOp(space, blocks=blocks)


@pytest.mark.parametrize("value", [0.5, np.nan])
def test_element_op_rejects_non_unitary_block(space, value):
    # the fault is in the block of l = 0 alone
    blocks = np.array([np.eye(2), np.eye(2)], dtype=complex)
    blocks[1, 1, 1] = value
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, source=np.arange(space.dimension), blocks=blocks)


def test_element_op_rejects_block_with_unit_but_skew_columns(space):
    # both columns have norm 1, so only the off-diagonal of B+B shows the fault
    blocks = np.array([np.full((2, 2), 0.5 ** 0.5), np.eye(2)], dtype=complex)
    with pytest.raises(ValueError, match=r"not unitary \(max \|U\+U - I\| = 1\.000e\+00\)"):
        ElementOp(space, source=np.arange(space.dimension), blocks=blocks)


@pytest.mark.parametrize(
    "source",
    [
        [0] * 26,
        list(range(1, 27)),
        [0.0] * 26,
        [-1] + list(range(1, 26)),
        np.arange(26).reshape(2, 13),
        # a huge index must be rejected without a bin for it
        list(range(25)) + [2 ** 40],
        np.array([2 ** 64 - 1] + list(range(1, 26)), dtype=np.uint64),
    ],
)
def test_element_op_rejects_source_that_is_not_a_permutation(space, source):
    with pytest.raises(ValueError, match="not unitary"):
        ElementOp(space, source=source)


def test_element_op_errors_name_the_element_and_its_fault():
    space = make_space(4)
    with pytest.raises(ValueError) as info:
        ElementOp(space, source=[0] * 18)
    assert str(info.value) == "element is not unitary (source is not a permutation of range(18))"
    with pytest.raises(ValueError) as info:
        ElementOp(space, label="HWP9", blocks=[np.eye(2), 0.5 * np.eye(2)])
    assert str(info.value) == "HWP9 is not unitary (max |U+U - I| = 7.500e-01)"


def test_element_op_accepts_an_unsigned_permutation(space):
    source = np.arange(space.dimension, dtype=np.uint64)[::-1]
    op = ElementOp(space, source=source)
    assert np.array_equal(op.source, source) and op.source.dtype == np.intp


def test_element_op_copies_the_callers_source(space):
    source = np.arange(space.dimension)[::-1].copy()
    op = ElementOp(space, source=source)
    source[:2] = source[1::-1]
    assert np.array_equal(op.source, np.arange(space.dimension)[::-1])


def test_element_op_without_source_takes_the_identity_gather(space):
    op = ElementOp(space, label="id")
    assert np.array_equal(op.source, np.arange(space.dimension)) and op.blocks is None
    assert np.array_equal(dense(op), np.eye(space.dimension))
    # there is no dense form: a matrix is not an argument
    with pytest.raises(TypeError):
        ElementOp(space, np.eye(space.dimension, dtype=complex))


#: every waveplate form: full aperture, and l0 with each crosstalk, at each theta
_WAVEPLATES = [WaveplateSpec(theta, aperture, crosstalk) for theta in (0.0, -0.0, 0.4)
               for aperture, crosstalk in [("full", 0.0)]
               + [(APERTURE_L0, crosstalk) for crosstalk in (0.0, -0.0, 0.3, 1.0)]]


def _with_signed_zeros(amps, rng):
    # the real or imaginary part of about a third of the modes made +0 or -0
    for part in (amps.real, amps.imag):
        part[rng.random(amps.size) < 1 / 3] = 0.0
        part[rng.random(amps.size) < 1 / 3] = -0.0
    return amps


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_waveplates_apply_the_bits_of_one_block_per_l(l_max):
    # `apply` against the block of each l applied by the per-l einsum, byte for byte:
    # a matrix product of the shared block, or the l = 0 block on another column,
    # moves bits here
    space = make_space(l_max)
    rng = np.random.default_rng(l_max)
    ones = _with_signed_zeros(np.ones(space.dimension, dtype=complex), rng)
    normal = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    states = [PhotonState(space, a / _norm(a)) for a in (ones, _with_signed_zeros(normal, rng))]
    for spec in _WAVEPLATES:
        op = hwp(space, spec)
        for state in states:
            pairs = state.amplitudes.reshape(2, space.n_oam)
            mixed = np.einsum("kpq,qk->pk", per_l_blocks(op), pairs).reshape(-1)
            want = PhotonState(space, mixed).amplitudes
            assert apply(op, state).amplitudes.tobytes() == want.tobytes(), spec


def test_structured_op_matches_its_dense_view(space):
    # gather with a spin-flip block on every l but l = 0, which has a mixer:
    # U = B P, checked column by column
    rng = np.random.default_rng(5)
    source = rng.permutation(space.dimension)
    blocks = np.array([[[0, 1j], [1j, 0]], [[0.6, 0.8j], [0.8j, 0.6]]])
    op = ElementOp(space, source=source, blocks=blocks)
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    state = PhotonState(space, amps / np.linalg.norm(amps))
    out = apply(op, state)
    assert np.abs(out.amplitudes - dense(op) @ state.amplitudes).max() <= 1e-15
    with pytest.raises(AttributeError):
        op.label = "renamed"


@pytest.mark.parametrize("factor", [0.0, -0.1, 1.5, float("nan"), float("inf")])
def test_element_op_rejects_survival_factor_outside_unit_interval(space, factor):
    with pytest.raises(ValueError, match="survival_factor"):
        ElementOp(space, survival_factor=factor)
    with pytest.raises(ValueError, match="survival_factor"):
        ElementOp(space, source=np.arange(space.dimension), survival_factor=factor)


def test_loss_is_a_survival_factor_below_one(space):
    # an op takes no separate loss label: it is lossy iff survival_factor < 1
    assert ElementOp(space, survival_factor=0.97).survival_factor < 1.0
    assert not ElementOp(space, survival_factor=1.0).survival_factor < 1.0
    assert qplate(space, QPlateSpec(1, 0.97)).survival_factor < 1.0
    assert not qplate(space, QPlateSpec(1, 1.0)).survival_factor < 1.0
    assert not any(hasattr(ElementOp(space), name) for name in ("kind", "is_lossy"))
    # a product is lossy iff some factor is below 1
    for factors in ([1.0, 1.0], [1.0, 0.97], [0.97, 1.0], [0.97, 0.97]):
        composed = compose([ElementOp(space, survival_factor=f) for f in factors])
        assert (composed.survival_factor < 1.0) == any(f < 1.0 for f in factors)


def test_states_and_operators_are_readonly(space):
    state = basis_state(space, LEFT, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    op = qplate(space, QPlateSpec(1))
    with pytest.raises(ValueError):
        op.source[0] = 5
    with pytest.raises(ValueError):
        op.input_mask[0] = False
    with pytest.raises(ValueError):
        hwp(space, WaveplateSpec(0.3)).blocks[0, 0, 0] = 5.0
