"""`compose` against the dense product it no longer forms, and against applying
the elements one at a time.

`dense_compose` below is the dense loop `compose` once ran: a dim x dim
running matrix, each element applied to its columns by the structured
gather and per-l `einsum` (`dense.dense_act`), and the guard mask summed over
the blocked rows.  `compose` now multiplies nothing out: it holds its
elements' factors, and `apply` runs them in turn, so it must act as `apply`
of each element in turn does, errors included, while its dense view
(`dense.dense`) keeps the dense loop's bytes.  `apply_chain` is `apply` of the
composite.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from benchgen import random_bench
from dense import dense, dense_act
from spinorbit import (
    ORACLE_IDS,
    TruncationError,
    apply,
    apply_chain,
    basis_state,
    build_oracle,
    compile_bench,
    compose,
    make_space,
    prepare_input,
    run,
    truth_table,
)
from spinorbit.elements import QPlateSpec, WaveplateSpec, hwp, qplate
from spinorbit.state import GUARD_TOL, PhotonState

# --- dense reference -------------------------------------------------------------


def dense_compose(ops):
    """(matrix, input mask or None, survival, lossy, label) of the dense loop."""
    dim = ops[0].space.dimension
    total = np.eye(dim, dtype=complex)
    mask = np.ones(dim, dtype=bool)
    for op in ops:
        if op.input_mask is not None:
            leakage = np.abs(total[~op.input_mask, :]).sum(axis=0)
            mask &= leakage <= GUARD_TOL
        total = dense_act(op, total)
    survival = 1.0
    for op in ops:
        survival *= op.survival_factor
    lossy = any(op.survival_factor < 1.0 for op in ops)
    label = " -> ".join(op.label or "element" for op in ops)
    return total, None if mask.all() else mask, survival, lossy, label


def assert_same_bytes(composed, reference):
    matrix, _, survival, lossy, label = reference
    assert dense(composed).tobytes() == matrix.tobytes()
    # a composite has no mask of its own: each factor checks its guard
    assert composed.input_mask is None and composed.source is None
    assert (composed.survival_factor, composed.survival_factor < 1.0, composed.label) == (
        survival, lossy, label
    )


def outcome(fn):
    """(amplitudes, survival) of a state, or (error type, message)."""
    try:
        state = fn()
    except TruncationError as exc:
        return TruncationError, str(exc)
    return state.amplitudes, state.survival


# --- byte equality -----------------------------------------------------------------


def _oracle_chains(l_max):
    space = make_space(l_max)
    for oracle_id in ORACLE_IDS:
        for eta in (1.0, 0.97):
            # crosstalk only enters through HWP1, which identity and not lack
            for crosstalk in (0.0, 0.3, 0.77, 1.0) if oracle_id in ("cnot", "zcnot") else (0.0,):
                chain = build_oracle(space, oracle_id, eta=eta, crosstalk=crosstalk).elements
                yield chain
                yield chain * 2


@pytest.mark.parametrize("l_max", [4, 6, 12, 64, 200])
def test_oracle_chains_match_the_dense_loop_byte_for_byte(l_max):
    for chain in _oracle_chains(l_max):
        assert_same_bytes(compose(chain), dense_compose(chain))


def test_random_bench_chains_match_the_dense_loop_byte_for_byte():
    rng = random.Random(51)
    checked = 0
    while checked < 150:
        elements = compile_bench(random_bench(rng)).elements
        if elements:
            assert_same_bytes(compose(elements), dense_compose(elements))
            checked += 1


def test_nested_composites_flatten_into_their_factors():
    space = make_space(6)
    u = hwp(space, WaveplateSpec(0.7))
    cnot = build_oracle(space, "cnot", eta=0.97, crosstalk=0.3).elements
    chain = [u, hwp(space, WaveplateSpec(0.0, "l0_only", 0.3)), compose(cnot), u]
    composed = compose(chain)
    flat = [u, chain[1], *cnot, u]
    assert [f.label for f in composed.factors] == [op.label for op in flat]
    assert dense(composed).tobytes() == dense_compose(flat)[0].tobytes()
    # the nested composite's label is its own elements' labels, joined
    assert composed.label == " -> ".join(op.label for op in flat)
    assert composed.survival_factor == 0.97 * 0.97
    # a composite composed again
    twice = compose([compose(cnot), compose(cnot)])
    assert len(twice.factors) == 2 * len(cnot)
    once = dense(compose(cnot))
    assert np.abs(dense(twice) - once @ once).max() <= 1e-15


# --- against the element-by-element loop -------------------------------------------


def step_by_step(chain, state):
    """The reference loop: `apply` of each element, renormalizing after each."""
    for op in chain:
        state = apply(op, state)
    return state


@pytest.mark.parametrize("l_max", [4, 6])
def test_leak_into_a_guarded_mode_gives_the_dense_mask(l_max):
    space = make_space(l_max)
    first = qplate(space, QPlateSpec(1))
    # the mixer spreads |L,l> onto |R,l>, so later plates meet both polarizations
    chain = [
        first,
        hwp(space, WaveplateSpec(0.0, "l0_only", 0.4)),
        qplate(space, QPlateSpec(1)),
        qplate(space, QPlateSpec("1/2", eta=0.9)),
    ]
    composed = compose(chain)
    _, mask, _, _, _ = dense_compose(chain)
    # later stages excluded inputs that the first plate alone accepts
    assert np.count_nonzero(~mask) > np.count_nonzero(~first.input_mask)
    # a basis ket raises exactly where the dense loop's mask excludes it, and
    # with the reference loop's message, which names the factor, not the composite
    for index in range(space.dimension):
        ket = basis_state(space, *space.basis_label(index))
        expected = outcome(lambda: step_by_step(chain, ket))
        got = outcome(lambda: apply(composed, ket))
        assert (got[0] is TruncationError) == (not mask[index])
        if got[0] is TruncationError:
            assert got == expected
            assert " -> " not in got[1]
        else:
            assert got[0].tobytes() == expected[0].tobytes()


def test_apply_chain_is_one_pass_that_builds_one_state(monkeypatch):
    space = make_space(6)
    chain = build_oracle(space, "zcnot", eta=0.97, crosstalk=0.3).elements
    assert len(chain) == 7
    probe = prepare_input(space)
    built = []
    post_init = PhotonState.__post_init__
    monkeypatch.setattr(
        PhotonState, "__post_init__", lambda state: (built.append(state), post_init(state))
    )
    out = apply_chain(iter(chain), probe)
    assert len(built) == 1
    expected = step_by_step(chain, probe)
    assert np.abs(out.amplitudes - expected.amplitudes).max() <= 1e-12
    assert abs(out.survival - expected.survival) <= 1e-12
    assert apply_chain((), probe) is probe
    assert apply_chain(iter(()), probe) is probe
    # elements of two spaces are one composite's error
    with pytest.raises(ValueError, match="composed elements must share one mode space"):
        apply_chain([chain[0], hwp(make_space(4), WaveplateSpec(0.0))], probe)


def test_compose_at_the_largest_truncation_holds_no_dense_matrix():
    space = make_space(1000)
    dim = space.dimension
    bench = build_oracle(space, "zcnot")
    for call in (
        lambda: compose(bench.elements),
        lambda: truth_table(bench),
        lambda: run("zcnot", l_max=1000, crosstalk=0.3),
    ):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one dense complex matrix would take 16 * dim^2 bytes
        assert peak < dim * dim
    assert truth_table(bench) == truth_table(build_oracle(make_space(6), "zcnot"))


@pytest.mark.parametrize("l_max", [6, 64])
def test_apply_of_a_composite_matches_its_matrix(l_max):
    space = make_space(l_max)
    rng = np.random.default_rng(l_max)
    for oracle_id in ORACLE_IDS:
        elements = build_oracle(space, oracle_id, eta=0.97, crosstalk=0.3).elements
        composed = compose(elements)
        matrix, mask = dense(composed), dense_compose(elements)[1]
        for _ in range(5):
            amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
            if mask is not None:
                amps[~mask] = 0.0
            state = PhotonState(space, amps / np.linalg.norm(amps))
            out = apply(composed, state)
            expected = matrix @ state.amplitudes
            assert np.abs(out.amplitudes - expected / np.linalg.norm(expected)).max() <= 1e-15
            assert out.survival == composed.survival_factor == math.prod([0.97, 0.97])
