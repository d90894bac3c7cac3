from importlib import resources

import numpy as np
import pytest
from conftest import element_builders, package_memos
from dense import dense

from spinorbit import (
    ElementOp,
    EncodingError,
    GateBrokenError,
    ORACLE_IDS,
    apply,
    basis_state,
    build_oracle,
    compose,
    decode,
    encode,
    logical_matrix,
    oracle_class,
    truth_table,
)
from spinorbit.elements import QPlateSpec, WaveplateSpec, hwp, qplate
from spinorbit import dsl
from spinorbit.dsl import Preparation, compile_bench, parse
from spinorbit.deutsch import run
from spinorbit.errors import TruncationError
from spinorbit.logic import (
    _BIT_ORDER, LOGICAL_STATES, ORACLE_CHAINS, OracleBench, _ket, oracle_recipe,
)
from spinorbit.state import LEFT, MAX_L_MAX, RIGHT, ModeSpace, _act, make_space

# the four defining rows of each oracle, (x, y) -> (x', y')
EXPECTED_TABLES = {
    "identity": {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (1, 1)},
    "not": {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (1, 0)},
    "cnot": {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)},
    "zcnot": {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)},
}


def test_encoding_assignments(space):
    assert encode(space, (0, 0)).amplitude(LEFT, +2) == 1.0
    assert encode(space, (0, 1)).amplitude(RIGHT, -2) == 1.0
    assert encode(space, (1, 0)).amplitude(RIGHT, +2) == 1.0
    assert encode(space, (1, 1)).amplitude(LEFT, -2) == 1.0


def test_encoding_is_bijective():
    kets = set(LOGICAL_STATES.values())
    assert len(kets) == 4
    assert kets == {(LEFT, +2), (RIGHT, -2), (RIGHT, +2), (LEFT, -2)}


def test_decode_round_trip(space):
    for bits in LOGICAL_STATES:
        assert decode(encode(space, bits)) == bits


def test_decode_named_example(space):
    assert decode(basis_state(space, LEFT, -2)) == (1, 1)


def test_decode_rejects_unencoded_ket(space):
    with pytest.raises(EncodingError):
        decode(basis_state(space, LEFT, 0))


def test_decode_rejects_superposition(space):
    a = encode(space, (0, 0)).amplitudes + encode(space, (1, 1)).amplitudes
    from spinorbit.state import PhotonState

    with pytest.raises(EncodingError):
        decode(PhotonState(space, a / np.linalg.norm(a)))


def test_encode_rejects_bad_bits(space):
    # True and 1.0 equal 1, and hash like it, but are no bits
    for bits in ((2, 0), (True, 0), (0, 1.0)):
        with pytest.raises(EncodingError, match=r"^logical bits must be in \{0,1\}\^2"):
            encode(space, bits)


@pytest.mark.parametrize(
    "oracle_id,f,klass",
    [
        ("identity", (0, 0), "constant"),
        ("not", (1, 1), "constant"),
        ("cnot", (0, 1), "balanced"),
        ("zcnot", (1, 0), "balanced"),
    ],
)
def test_oracle_function_table(oracle_id, f, klass):
    from spinorbit.logic import ORACLE_FUNCTIONS

    assert ORACLE_FUNCTIONS[oracle_id] == f
    assert oracle_class(oracle_id) == klass


def test_logical_matrix_permutations():
    identity = logical_matrix("identity")
    assert np.array_equal(identity, np.eye(4))
    cnot = logical_matrix("cnot")
    expected_cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(cnot, expected_cnot)
    zcnot = logical_matrix("zcnot")
    expected_zcnot = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(zcnot, expected_zcnot)


def test_build_oracle_recipes(space):
    identity = build_oracle(space, "identity")
    assert [op.label for op in identity.elements] == ["QP1", "L1", "L2", "QP2"]

    noto = build_oracle(space, "not")
    assert [op.label for op in noto.elements] == ["QP1", "L1", "L2", "QP2", "HWP3", "DP"]

    cnot = build_oracle(space, "cnot")
    assert [op.label for op in cnot.elements] == ["QP1", "L1", "HWP1", "L2", "QP2"]

    zcnot = build_oracle(space, "zcnot")
    assert [op.label for op in zcnot.elements] == [
        "HWP2", "QP1", "L1", "HWP1", "L2", "QP2", "HWP3",
    ]
    # each oracle inserts into identity's chain the elements that select it
    inserted = {oracle_id: set(chain) - set(ORACLE_CHAINS["identity"])
                for oracle_id, chain in ORACLE_CHAINS.items()}
    assert inserted == {"identity": set(), "not": {"HWP3", "DP"}, "cnot": {"HWP1"},
                        "zcnot": {"HWP1", "HWP2", "HWP3"}}


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_corpus_file_has_the_statements_of_its_recipe(oracle_id):
    text = (resources.files("spinorbit") / "benches" / f"{oracle_id}.bench").read_text()
    bench = parse(text)
    assert [dsl._element_spec(stmt) for stmt in bench.elements] == [
        (name, spec) for _, name, spec in oracle_recipe(oracle_id)]
    # and the file prepares the probe state `run` uses
    assert compile_bench(bench).preparation == Preparation("V", (2, -2))


def test_build_oracle_builds_its_recipe_statements(space):
    text = "\n".join([f"space lmax={space.l_max}", "hwp theta=0", "qplate q=1 eta=0.97", "lens",
                      "hwp theta=0 aperture=l0 crosstalk=0.3", "lens", "qplate q=1 eta=0.97",
                      "hwp theta=0"])
    bench = parse(text)
    assert [dsl._element_spec(stmt) for stmt in bench.elements] == [
        (name, spec) for _, name, spec in oracle_recipe("zcnot", eta=0.97, crosstalk=0.3)]
    built = compile_bench(bench)
    assert built.space == space
    for op, reference in zip(build_oracle(space, "zcnot", 0.97, 0.3).elements, built.elements):
        assert op.survival_factor == reference.survival_factor
        assert np.array_equal(dense(op), dense(reference))


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_build_oracle_calls_each_factory_once_per_element(space, monkeypatch, oracle_id):
    # through the `elements` attribute, where benchmarks/tracer.py binds its wrapper;
    # the factory's memo is the only cache, so a second build calls them all again
    from spinorbit import elements

    calls = []
    for name in ("qplate", "hwp", "dove_prism", "lens"):
        def counted(space, *args, _name=name, _factory=getattr(elements, name), label):
            calls.append((_name, *args, label))
            return _factory(space, *args, label=label)

        monkeypatch.setattr(elements, name, counted)
    recipe = oracle_recipe(oracle_id, eta=0.97, crosstalk=0.3)
    want = [(name, *([] if spec is None else [spec]), label) for label, name, spec in recipe]
    for _ in range(2):
        calls.clear()
        bench = build_oracle(space, oracle_id, eta=0.97, crosstalk=0.3)
        assert calls == want
        assert [op.label for op in bench.elements] == list(ORACLE_CHAINS[oracle_id])


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
@pytest.mark.parametrize("eta, crosstalk", [(1.0, 0.0), (0.97, 0.3)])
def test_repeated_ops_equal_ops_built_afresh(oracle_id, eta, crosstalk):
    from spinorbit import elements

    space = make_space(6)
    for op, (label, name, spec) in zip(
        build_oracle(space, oracle_id, eta, crosstalk).elements,
        oracle_recipe(oracle_id, eta, crosstalk),
    ):
        for builder in element_builders():  # a cold build, not the memo's op
            builder.cache_clear()
        fresh = elements._build(space, name, spec, label)
        assert (op.label, op.survival_factor < 1, repr(op.survival_factor)) == (
            fresh.label, fresh.survival_factor < 1, repr(fresh.survival_factor)
        )
        assert dense(op).tobytes() == dense(fresh).tobytes()
        assert (op.input_mask is None) == (fresh.input_mask is None)
        if op.input_mask is not None:
            assert op.input_mask.tobytes() == fresh.input_mask.tobytes()


def test_repeated_ops_keep_their_labels_and_share_read_only_arrays(space):
    ops = {op.label: op for op in build_oracle(space, "zcnot", 0.97, 0.3).elements}
    for first, repeat in (("QP1", "QP2"), ("L1", "L2"), ("HWP2", "HWP3")):
        a, b = ops[first], ops[repeat]
        assert a is not b and (a.label, b.label) == (first, repeat)
        assert a.survival_factor == b.survival_factor
        for name in ("source", "blocks", "input_mask", "_blocked"):
            shared = getattr(a, name)
            assert getattr(b, name) is shared
            assert shared is None or not shared.flags.writeable
        with pytest.raises(AttributeError, match="immutable"):
            b.label = first
    # each op keeps its own label in the truncation error it raises
    with pytest.raises(TruncationError, match=r"^QP2 cannot act on \|L,\+4>: "):
        run("cnot", crosstalk=0.3, l_max=4)


def test_build_oracle_rejects_unknown(space):
    with pytest.raises(ValueError, match="unknown oracle"):
        build_oracle(space, "toffoli")


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_truth_tables_match_logical_matrices(space, oracle_id):
    table = truth_table(build_oracle(space, oracle_id))
    for bits, expected in EXPECTED_TABLES[oracle_id].items():
        got, phase = table[bits]
        assert got == expected
        assert abs(phase - 1.0) <= 1e-12


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_truth_table_agrees_with_brute_force_matrix(space, oracle_id):
    # dual route: the ideal permutation built directly from f(x)
    ideal = logical_matrix(oracle_id)
    table = truth_table(build_oracle(space, oracle_id))
    order = ((0, 0), (0, 1), (1, 0), (1, 1))
    for j, bits in enumerate(order):
        out_bits, _ = table[bits]
        assert ideal[order.index(out_bits), j] == 1.0


def test_zcnot_is_conjugated_cnot():
    x_on_control = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    lhs = logical_matrix("zcnot")
    rhs = x_on_control @ logical_matrix("cnot") @ x_on_control
    assert np.array_equal(lhs, rhs)


def _encoded_indices(space):
    return [space.index(*LOGICAL_STATES[bits]) for bits in _BIT_ORDER]


def encoded_restriction(op):
    """4x4 restriction <enc_i| U |enc_j> of an operator, read off its dense view."""
    indices = _encoded_indices(op.space)
    return dense(op)[np.ix_(indices, indices)]


def test_physical_zcnot_conjugation_on_encoded_subspace(space):
    x_on_control = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    )
    zc = encoded_restriction(compose(build_oracle(space, "zcnot").elements))
    cn = encoded_restriction(compose(build_oracle(space, "cnot").elements))
    assert np.abs(zc - x_on_control @ cn @ x_on_control).max() <= 1e-12


@pytest.mark.parametrize("oracle_id", ["identity", "not"])
def test_squared_benches_are_identity_on_encoded_subspace(space, oracle_id):
    bench = build_oracle(space, oracle_id)
    doubled = compose(tuple(bench.elements) + tuple(bench.elements))
    restriction = encoded_restriction(doubled)
    assert np.abs(restriction - np.eye(4)).max() <= 1e-12


def assert_acts_as_the_dense_view_on_the_encoded_kets(op):
    # `_act` on one vector against the dense view's column, byte for byte
    matrix = dense(op)
    for j in _encoded_indices(op.space):
        ket = np.zeros(op.space.dimension, dtype=complex)
        ket[j] = 1.0
        assert _act(op, ket).tobytes() == matrix[:, j].tobytes()


@pytest.mark.parametrize("l_max", [6, 64])
def test_act_on_the_encoded_kets_equals_the_dense_view(l_max):
    space = make_space(l_max)
    indices = _encoded_indices(space)
    for oracle_id in ORACLE_IDS:
        for eta, crosstalk in ((1.0, 0.0), (0.97, 0.0), (1.0, 0.3), (0.97, 0.77)):
            elements = build_oracle(space, oracle_id, eta, crosstalk).elements
            for op in (compose(elements),) + elements:
                assert_acts_as_the_dense_view_on_the_encoded_kets(op)
    # restrictions that are not symmetric, in both operator forms
    tilted = hwp(space, WaveplateSpec(0.3))
    # a 4-cycle of the encoded kets, then an (L, R) mixer on every l but l = 0,
    # which has a spin flip
    cycle = np.arange(space.dimension)
    cycle[indices] = np.roll(indices, 1)
    scrambled = ElementOp(
        space,
        source=cycle,
        blocks=np.array([[[0.6, 0.8j], [0.8j, 0.6]], [[0, 1j], [1j, 0]]]),
    )
    for op in (tilted, scrambled):
        restriction = encoded_restriction(op)
        assert not np.array_equal(restriction, restriction.T)
    for op in (tilted, scrambled, compose((scrambled, tilted, scrambled))):
        assert_acts_as_the_dense_view_on_the_encoded_kets(op)


def test_run_at_the_largest_truncation_holds_no_dense_matrix():
    import tracemalloc

    dim = make_space(MAX_L_MAX).dimension
    tracemalloc.start()
    try:
        report = run("zcnot", l_max=MAX_L_MAX, crosstalk=0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense complex matrix would take 16 * dim^2 bytes
    assert peak < dim ** 2
    assert report.verdict == run("zcnot", crosstalk=0.3).verdict


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_encoded_subspace_closure(space, oracle_id):
    composed = compose(build_oracle(space, oracle_id).elements)
    encoded = [space.index(*ket) for ket in LOGICAL_STATES.values()]
    outside = [i for i in range(space.dimension) if i not in encoded]
    for bits in LOGICAL_STATES:
        out = apply(composed, encode(space, bits))
        assert np.abs(out.amplitudes[outside]).max() <= 1e-12


def test_truth_table_reports_broken_gate(space):
    # a lone q-plate scatters the encoded kets to l in {0, +/-4}
    broken = OracleBench("identity", (qplate(space, QPlateSpec(1)),))
    with pytest.raises(GateBrokenError):
        truth_table(broken)


# --- the encoded kets' memo ----------------------------------------------------------
# each encoded ket depends only on the space and the bits, so it is built once per key


def _kets(space):
    return [encode(space, bits) for bits in _BIT_ORDER]


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_a_warm_memo_ket_equals_a_cold_build(l_max):
    space = make_space(l_max)
    _kets(space)
    warm = _kets(space) + _kets(ModeSpace(l_max))  # every call hits
    assert _ket.cache_info().hits == 8 and _ket.cache_info().currsize == 4
    for memo in package_memos():
        memo.cache_clear()
    cold = _kets(make_space(l_max)) * 2
    assert [(s.amplitudes.tobytes(), repr(s.survival)) for s in warm] == [
        (s.amplitudes.tobytes(), repr(s.survival)) for s in cold]
    assert not warm[0].amplitudes.flags.writeable


def test_bad_bits_cache_nothing(space):
    encode(space, (0, 0))
    before = _ket.cache_info()
    for _ in range(2):  # and raise again, checked before the lookup
        with pytest.raises(EncodingError, match=r"got \(2, 0\)$"):
            encode(space, (2, 0))
    assert _ket.cache_info() == before and before.currsize == 1
