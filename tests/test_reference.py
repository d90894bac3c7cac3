import numpy as np
import pytest

from spinorbit import reference
from spinorbit.reference import (
    BALANCED,
    BOOLEAN_FUNCTIONS,
    CONSTANT,
    TwoQubitState,
    apply_uf,
    classify_abstract,
    computational_state,
    first_qubit_probabilities,
    hadamard_both,
    hadamard_first,
)

# amplitudes over |00>, |01>, |10>, |11>
QUERY_STATE = np.array([1, -1, 1, -1], dtype=complex) / 2  # (|0>+|1>)(|0>-|1>)/2


def test_hadamard_both_on_01():
    out = hadamard_both(computational_state(0, 1))
    assert np.abs(out.amplitudes - QUERY_STATE).max() <= 1e-12


def test_hadamard_both_is_involution():
    state = hadamard_both(hadamard_both(computational_state(0, 1)))
    assert np.abs(state.amplitudes - computational_state(0, 1).amplitudes).max() <= 1e-12


def test_hadamard_both_on_10():
    # direct product: (|0>-|1>)(|0>+|1>)/2
    out = hadamard_both(computational_state(1, 0))
    expected = np.array([1, 1, -1, -1], dtype=complex) / 2
    assert np.abs(out.amplitudes - expected).max() <= 1e-12


def test_uf_identity_function_keeps_state():
    out = apply_uf(TwoQubitState(QUERY_STATE), "identity")
    assert np.abs(out.amplitudes - QUERY_STATE).max() <= 1e-12


def test_uf_balanced_function_flips_first_qubit_sign():
    # f(x) = x puts (-1)^f(x) on each branch: (|0>-|1>)(|0>-|1>)/2 up to sign
    out = apply_uf(TwoQubitState(QUERY_STATE), "cnot")
    expected = np.array([1, -1, -1, 1], dtype=complex) / 2
    overlap = abs(np.vdot(expected, out.amplitudes))
    assert abs(overlap - 1.0) <= 1e-12


def test_uf_always_one_negates():
    out = apply_uf(TwoQubitState(QUERY_STATE), "not")
    assert np.abs(out.amplitudes - (-QUERY_STATE)).max() <= 1e-12


def test_uf_permutes_computational_basis():
    for name, (f0, f1) in BOOLEAN_FUNCTIONS.items():
        for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = apply_uf(computational_state(x, y), name)
            expected = computational_state(x, y ^ (f1 if x else f0))
            assert np.array_equal(out.amplitudes, expected.amplitudes), name


@pytest.mark.parametrize(
    "function,expected",
    [
        ("identity", CONSTANT),
        ("not", CONSTANT),
        ("cnot", BALANCED),
        ("zcnot", BALANCED),
    ],
)
def test_classification(function, expected):
    assert classify_abstract(function) == expected


@pytest.mark.parametrize("function", sorted(BOOLEAN_FUNCTIONS))
def test_classification_is_deterministic(function):
    state = hadamard_both(computational_state(0, 1))
    state = apply_uf(state, function)
    state = hadamard_first(state)
    p0, p1 = first_qubit_probabilities(state)
    assert min(abs(p0 - 1.0), abs(p0)) <= 1e-12
    assert abs(p0 + p1 - 1.0) <= 1e-12


def test_state_validates_norm():
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1.0, 1.0, 0.0, 0.0]))


def test_state_validates_shape():
    with pytest.raises(ValueError, match=r"^need 4 amplitudes over \|x,y>, got shape \(2,\)$"):
        TwoQubitState(np.array([1.0, 0.0]))


def test_classification_fails_loudly_when_the_first_qubit_is_not_certain(monkeypatch):
    # without the last Hadamard the first qubit reads 0 or 1 with probability 1/2
    monkeypatch.setattr(reference, "hadamard_first", lambda state: state)
    with pytest.raises(AssertionError) as info:
        classify_abstract("identity")
    head, _, p0 = str(info.value).rpartition("=")
    assert head == "classification is not deterministic for 'identity': P(first=0)"
    assert abs(float(p0) - 0.5) <= 1e-12
