import json
import math

import numpy as np
import pytest
from conftest import package_memos
from golden import BOUND
from hypothesis import assume, given, settings, strategies as st

from spinorbit import (
    ORACLE_IDS,
    apply_chain,
    basis_state,
    build_oracle,
    fidelity_up_to_phase,
    make_space,
    oracle_class,
)
from spinorbit import deutsch
from spinorbit.deutsch import (
    BALANCED,
    CONSTANT,
    INCONCLUSIVE,
    OAM_SORTER,
    PBS,
    classify,
    expected_output,
    measure_oam_superposition,
    measure_pbs,
    prepare_input,
    run,
    sample_counts,
)
from spinorbit.dsl import Preparation
from spinorbit.state import H_CIRCULAR, LEFT, MAX_L_MAX, ModeSpace, PhotonState, RIGHT, V_CIRCULAR


def _linear_ket(space, axis_vec, l):
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, l)] = axis_vec[0]
    amps[space.index(RIGHT, l)] = axis_vec[1]
    return PhotonState(space, amps)


def test_prepare_input_amplitudes(space):
    state = prepare_input(space)
    assert state.amplitude(LEFT, +2) == 0.5
    assert state.amplitude(LEFT, -2) == 0.5
    assert state.amplitude(RIGHT, +2) == -0.5
    assert state.amplitude(RIGHT, -2) == -0.5
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-15
    assert state.survival == 1.0


def test_prepare_input_is_vertical_times_oam_superposition(space):
    # |V> (x) (|+2> + |-2>)/sqrt2, up to the global i
    amps = np.zeros(space.dimension, dtype=complex)
    for l in (+2, -2):
        amps[space.index(LEFT, l)] = V_CIRCULAR[0] / math.sqrt(2.0)
        amps[space.index(RIGHT, l)] = V_CIRCULAR[1] / math.sqrt(2.0)
    reference = PhotonState(space, amps)
    assert abs(fidelity_up_to_phase(prepare_input(space), reference) - 1.0) <= 1e-12


def test_measure_pbs_pure_linear_states(space):
    p1, p2 = measure_pbs(_linear_ket(space, H_CIRCULAR, +2))
    assert abs(p1 - 1.0) <= 1e-12 and abs(p2) <= 1e-12
    p1, p2 = measure_pbs(_linear_ket(space, V_CIRCULAR, -2))
    assert abs(p1) <= 1e-12 and abs(p2 - 1.0) <= 1e-12


def test_measure_pbs_circular_splits_evenly(space):
    # |L> = (|H> + i|V>)/sqrt2 puts half the weight on each port
    p1, p2 = measure_pbs(basis_state(space, LEFT, 0))
    assert abs(p1 - 0.5) <= 1e-12 and abs(p2 - 0.5) <= 1e-12


def test_measure_pbs_sums_to_one_on_random_states(space):
    rng = np.random.default_rng(11)
    for _ in range(20):
        amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
        amps /= np.linalg.norm(amps)
        p1, p2 = measure_pbs(PhotonState(space, amps))
        assert abs(p1 + p2 - 1.0) <= 1e-12


def measure_pbs_loop(state):
    """The per-l loop `measure_pbs` replaced, summed in l order."""
    p_h = 0.0
    p_v = 0.0
    for l in range(-state.space.l_max, state.space.l_max + 1):
        pair = np.array(
            [state.amplitudes[state.space.index(LEFT, l)],
             state.amplitudes[state.space.index(RIGHT, l)]]
        )
        p_h += abs(np.vdot(H_CIRCULAR, pair)) ** 2
        p_v += abs(np.vdot(V_CIRCULAR, pair)) ** 2
    return float(p_h), float(p_v)


_L_MAXES = st.sampled_from((4, 6, 64))


@st.composite
def _random_states(draw):
    """Unit states with every mode occupied, or with a random sparse support."""
    space = make_space(draw(_L_MAXES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    if draw(st.booleans()):
        keep = rng.random(space.dimension) < draw(st.floats(0.0, 0.2))
        keep[rng.integers(space.dimension)] = True
        amps = np.where(keep, amps, 0.0)
    return PhotonState(space, amps / np.linalg.norm(amps))


@st.composite
def _oracle_outputs(draw):
    """Oracle outputs: ideal, eta = 0.97, or an OAM-selective plate with crosstalk."""
    l_max = draw(_L_MAXES)
    oracle_id = draw(st.sampled_from(ORACLE_IDS))
    noise = draw(st.sampled_from(("ideal", "eta", "crosstalk")))
    eta = 0.97 if noise == "eta" else 1.0
    crosstalk = 0.0
    if noise == "crosstalk":
        crosstalk = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
        # at l_max 4 the crosstalk-widened support of the CNOT benches overflows
        assume(l_max > 4 or oracle_id in ("identity", "not"))
    space = make_space(l_max)
    bench = build_oracle(space, oracle_id, eta=eta, crosstalk=crosstalk)
    return apply_chain(bench.elements, prepare_input(space))


@given(st.one_of(_random_states(), _oracle_outputs()))
@settings(max_examples=300, deadline=None)
def test_measure_pbs_is_within_the_golden_bound_of_the_per_l_loop(state):
    assert all(abs(p - q) <= BOUND for p, q in zip(measure_pbs(state), measure_pbs_loop(state)))


def test_oam_sorter_on_ideal_outputs(space):
    plus = measure_oam_superposition(expected_output(space, "identity"))
    assert abs(plus.p_plus - 1.0) <= 1e-12 and plus.p_minus <= 1e-12
    minus = measure_oam_superposition(expected_output(space, "zcnot"))
    assert abs(minus.p_minus - 1.0) <= 1e-12 and minus.p_plus <= 1e-12


def test_oam_sorter_residual_bucket(space):
    probs = measure_oam_superposition(basis_state(space, LEFT, 0))
    assert probs.p_plus <= 1e-12 and probs.p_minus <= 1e-12
    assert abs(probs.residual - 1.0) <= 1e-12


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_ideal_runs_are_deterministic(oracle_id):
    report = run(oracle_id)
    if oracle_class(oracle_id) == CONSTANT:
        assert abs(report.p_d2 - 1.0) <= 1e-12
        assert report.verdict == CONSTANT
    else:
        assert abs(report.p_d1 - 1.0) <= 1e-12
        assert report.verdict == BALANCED
    assert abs(report.p_d1 + report.p_d2 - 1.0) <= 1e-12
    assert report.output_fidelity >= 1.0 - 1e-12
    assert report.survival == 1.0


def test_not_output_is_negated_input(space):
    # exact amplitude relation, not just fidelity
    bench = build_oracle(space, "not")
    output = apply_chain(bench.elements, prepare_input(space))
    assert np.abs(output.amplitudes + prepare_input(space).amplitudes).max() <= 1e-12


def test_cnot_output_state(space):
    # (|L> + |R>)(|+2> - |-2>)/2
    bench = build_oracle(space, "cnot")
    output = apply_chain(bench.elements, prepare_input(space))
    expected = expected_output(space, "cnot")
    assert np.abs(output.amplitudes - expected.amplitudes).max() <= 1e-12
    assert abs(fidelity_up_to_phase(output, expected) - 1.0) <= 1e-12


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_realistic_efficiency_survival(oracle_id):
    report = run(oracle_id, eta=0.97)
    assert abs(report.survival - 0.9409) <= 1e-12


@pytest.mark.parametrize("eta", [0.3, 0.7, 0.97, 1.0])
def test_loss_does_not_change_conditional_probabilities(eta):
    baseline = run("cnot")
    lossy = run("cnot", eta=eta)
    assert abs(lossy.p_d1 - baseline.p_d1) <= 1e-12
    assert abs(lossy.p_d2 - baseline.p_d2) <= 1e-12
    assert lossy.verdict == baseline.verdict


def test_crosstalk_sweep_matches_closed_form():
    # propagating the four input components by hand through the q-plate /
    # selective-waveplate chain gives p_D1(eps) = 1 - sin^2(eps*pi/2)/2
    for eps in np.linspace(0.0, 1.0, 11):
        report = run("cnot", crosstalk=float(eps))
        expected = 1.0 - math.sin(eps * math.pi / 2.0) ** 2 / 2.0
        assert abs(report.p_d1 - expected) <= 1e-12
        assert abs(report.p_d1 + report.p_d2 - 1.0) <= 1e-12


def test_crosstalk_zero_has_no_wrong_detector_weight():
    report = run("cnot", crosstalk=0.0)
    assert report.p_d2 <= 1e-12


def test_crosstalk_degrades_to_inconclusive_before_flipping():
    verdicts = [run("cnot", crosstalk=float(e)).verdict for e in np.linspace(0, 1, 11)]
    assert verdicts[0] == BALANCED
    assert INCONCLUSIVE in verdicts
    assert CONSTANT not in verdicts
    first_change = next(i for i, v in enumerate(verdicts) if v != BALANCED)
    assert verdicts[first_change] == INCONCLUSIVE


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_pbs_and_oam_sorter_agree(oracle_id):
    assert run(oracle_id, measurement=PBS).verdict == run(
        oracle_id, measurement=OAM_SORTER
    ).verdict


def test_classify_thresholds():
    assert classify(0.005, 0.995) == CONSTANT
    assert classify(0.995, 0.005) == BALANCED
    assert classify(0.985, 0.015) == INCONCLUSIVE
    # the fixed rule: a port must pass 0.99, and the next double above it does
    assert deutsch.THRESHOLD == 0.99
    above = math.nextafter(0.99, 1.0)
    assert classify(0.01, 0.99) == classify(0.99, 0.01) == INCONCLUSIVE
    assert classify(1.0 - above, above) == CONSTANT
    assert classify(above, 1.0 - above) == BALANCED
    # and a report writes the rule it used
    assert run("identity").to_dict()["threshold"] == 0.99


@pytest.mark.parametrize("bad", [math.nan, -1.0, -1e-9, 1.0 + 1e-9, 2.0, math.inf])
def test_classify_rejects_a_value_that_is_no_probability(bad):
    with pytest.raises(ValueError, match="^p_balanced_port must be a probability"):
        classify(bad, 0.2)
    with pytest.raises(ValueError, match="^p_constant_port must be a probability"):
        classify(0.2, bad)


@pytest.mark.parametrize("bad", [True, "0.5"])
def test_classify_rejects_a_bool_or_a_string(bad):
    # a bool would pass the range check as 0 or 1
    with pytest.raises(TypeError, match="^p_balanced_port must be a number"):
        classify(bad, 0.2)
    with pytest.raises(TypeError, match="^p_constant_port must be a number"):
        classify(0.2, bad)


def test_classify_allows_the_roundoff_of_a_unit_vector():
    # measure_pbs sums squares of a unit vector's parts, which can pass 1 by an ulp
    assert classify(1.0 + 2.2e-16, 0.0) == BALANCED
    assert classify(0.0, 1.0 + 2.2e-16) == CONSTANT


def measure_pbs_python_sum(state):
    """`measure_pbs` as a per-l loop: the modulus of each projection, squared in
    Python, the squares summed in l order by `math.fsum`, which rounds once.  A
    plain running sum is itself up to 4.5 ulp of 1.0 off at l_max 1000 on the
    full supports below, more than `golden.BOUND` leaves for `measure_pbs`."""
    n_oam = state.space.n_oam
    pairs = state.amplitudes.reshape(2, n_oam).T.reshape(n_oam, 2, 1)
    projections = np.matmul(np.stack((H_CIRCULAR, V_CIRCULAR)).conj().reshape(2, 1, 1, 2), pairs)
    moduli = np.hypot(projections.real, projections.imag).reshape(2, n_oam).tolist()
    return tuple(math.fsum(m ** 2 for m in row) for row in moduli)


def _sparse_state(space, rng, density):
    amps = rng.normal(size=space.dimension) + 1j * rng.normal(size=space.dimension)
    keep = rng.random(space.dimension) < density
    keep[rng.integers(space.dimension)] = True
    amps = np.where(keep, amps, 0.0)
    return PhotonState(space, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_measure_pbs_is_within_the_golden_bound_of_the_python_sum(l_max):
    space = make_space(l_max)
    rng = np.random.default_rng(l_max)
    # zeros included: one port empty, sparse supports, every mode occupied
    states = [_linear_ket(space, H_CIRCULAR, 0), _linear_ket(space, V_CIRCULAR, l_max)]
    states += [_sparse_state(space, rng, density) for density in (0.0, 0.05, 0.5, 1.0) * 10]
    for state in states:
        new, old = measure_pbs(state), measure_pbs_python_sum(state)
        assert all(abs(p - q) <= BOUND for p, q in zip(new, old)), (new, old)
        # an empty port stays an exact zero, and no port is ever -0.0
        assert [p == 0.0 for p in new] == [q == 0.0 for q in old]
        assert all(type(p) is float and math.copysign(1.0, p) == 1.0 for p in new)
        assert abs(sum(new) - 1.0) <= 1e-12


def test_shot_tallies_are_seed_reproducible():
    a = run("cnot", eta=0.97, shots=10_000, seed=42)
    b = run("cnot", eta=0.97, shots=10_000, seed=42)
    assert a.shots == b.shots
    c = run("cnot", eta=0.97, shots=10_000, seed=43)
    assert (c.shots.n_d1, c.shots.n_lost) != (a.shots.n_d1, a.shots.n_lost)


def test_shot_tallies_follow_the_distribution():
    report = run("cnot", eta=0.97, shots=10_000, seed=5)
    tally = report.shots
    assert tally.n_d1 + tally.n_d2 + tally.n_lost == 10_000
    assert tally.n_d2 == 0  # p_D2 is exactly zero here
    sigma = math.sqrt(0.9409 * 0.0591 / 10_000)
    assert abs(tally.n_d1 / 10_000 - 0.9409) <= 3 * sigma


def test_oam_sorter_shots_include_residual_bucket():
    report = run("cnot", crosstalk=0.5, shots=5_000, seed=9, measurement=OAM_SORTER)
    tally = report.shots
    total = tally.n_d1 + tally.n_d2 + tally.n_lost + tally.n_residual
    assert total == 5_000
    assert tally.n_residual > 0  # crosstalk scatters weight to l = +/-6


@pytest.mark.parametrize(
    "probabilities, shots, seed, tally",
    [
        ([0.6, 0.3, 0.1], 9_999, 1, [5920, 3027, 1052]),
        ([0.9409, 0.0, 0.0591], 100_000, 7, [94174, 0, 5826]),
        ([0.25, 0.25, 0.25, 0.25], 1_000, 123456789, [242, 240, 254, 264]),
    ],
)
def test_sample_counts_are_deterministic(probabilities, shots, seed, tally):
    # pinned: the draw comes from SeedSequence(seed).spawn(1)[0]
    a = sample_counts(probabilities, shots, seed=seed)
    b = sample_counts(probabilities, shots, seed=seed)
    assert np.array_equal(a, b)
    assert a.tolist() == tally
    assert a.sum() == shots


def test_sample_counts_draw_from_the_first_spawned_stream():
    rng = np.random.default_rng(3)
    seeds = list(range(64)) + [123456789, 2**32, 2**40, 2**63 - 1, 2**64, 2**100]
    for seed in seeds:
        probabilities = rng.dirichlet(np.ones(rng.integers(2, 6)))
        shots = int(rng.integers(0, 10**6))
        (stream,) = np.random.SeedSequence(seed).spawn(1)
        spawned = np.random.default_rng(stream).multinomial(shots, probabilities)
        assert sample_counts(probabilities, shots, seed).tolist() == spawned.tolist()


def test_expected_output_rejects_an_unknown_oracle(space):
    with pytest.raises(ValueError, match="unknown oracle 'bogus'"):
        expected_output(space, "bogus")


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5], -1, seed=0)
    with pytest.raises(TypeError):
        sample_counts([0.5, 0.5], 10, seed=0, batches=1)
    with pytest.raises(ValueError, match="^probabilities must be non-negative"):
        sample_counts([-0.1, 1.1], 10, seed=0)
    # a bool would pass as 0 or 1
    for probabilities in (["a"], [True, False]):
        with pytest.raises(TypeError, match=r"^probabilities\[0\] must be a number"):
            sample_counts(probabilities, 10, seed=0)


@pytest.mark.parametrize(
    "probabilities", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0]]
)
def test_sample_counts_rejects_probabilities_before_dividing(probabilities):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^probabilities must"):
            sample_counts(probabilities, 10, seed=1)


@pytest.mark.parametrize("crosstalk", [math.nan, math.inf, -math.inf, 1.5, -0.1])
@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_every_oracle_rejects_crosstalk_outside_unit_interval(oracle_id, crosstalk):
    with pytest.raises(ValueError, match=r"crosstalk must lie in \[0, 1\], got"):
        build_oracle(make_space(6), oracle_id, crosstalk=crosstalk)
    with pytest.raises(ValueError, match=r"crosstalk must lie in \[0, 1\], got"):
        run(oracle_id, crosstalk=crosstalk)


def test_eta_is_checked_before_crosstalk():
    with pytest.raises(ValueError, match="eta"):
        run("identity", eta=0.0, crosstalk=2.0)


@pytest.mark.parametrize(
    "shots,seed,name",
    [
        (2.5, 0, "shots"),
        (True, 0, "shots"),
        (-1, 0, "shots"),
        (2**63, 0, "shots"),
        (5, -1, "seed"),
        (5, 1.0, "seed"),
    ],
)
def test_sample_counts_names_the_bad_parameter(shots, seed, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sample_counts([0.5, 0.5], shots, seed=seed)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run("identity", shots=shots, seed=seed)


def _leaves(value):
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    return [value]


def test_reports_hold_python_scalars():
    want = json.dumps(run("identity", shots=5, seed=3).to_dict())
    assert json.dumps(run("identity", shots=np.int64(5), seed=np.int64(3)).to_dict()) == want
    for measurement in (PBS, OAM_SORTER):
        report = run("cnot", eta=np.float64(0.97), crosstalk=np.float64(0.3), l_max=np.int64(6),
                     shots=np.int64(100), seed=np.int64(1), measurement=measurement)
        numbers = [v for v in _leaves(report.to_dict()) if not isinstance(v, (str, type(None)))]
        assert {type(v) for v in numbers} == {int, float}, numbers
    # the sorter's residual is a float like its siblings, also from the default call
    assert type(run("identity").residual) is float


def test_sample_counts_accepts_the_largest_and_numpy_counts():
    assert sample_counts([0.5, 0.5], 2**63 - 1, seed=0).sum() == 2**63 - 1
    assert sample_counts([0.5, 0.5], np.int64(10), seed=np.uint8(3)).sum() == 10


@pytest.mark.parametrize("oracle_id", ORACLE_IDS)
def test_run_prepares_the_probe_once(oracle_id, monkeypatch):
    calls = []
    prepare = Preparation.initial_state

    def counted(self, space):
        calls.append(self)
        return prepare(self, space)

    monkeypatch.setattr(Preparation, "initial_state", counted)
    run(oracle_id)
    assert len(calls) == 1
    # the probe is memoized per space: a second run prepares none
    calls.clear()
    run(oracle_id)
    assert calls == []


def test_run_rejects_unknown_oracle_and_measurement():
    with pytest.raises(ValueError):
        run("parity")
    with pytest.raises(ValueError):
        run("cnot", measurement="calorimeter")


def test_run_larger_truncation_same_results():
    small = run("zcnot")
    large = run("zcnot", l_max=9)
    assert abs(small.p_d1 - large.p_d1) <= 1e-12
    assert small.verdict == large.verdict


def test_expected_output_signs(space):
    identity = expected_output(space, "identity")
    noto = expected_output(space, "not")
    assert np.abs(identity.amplitudes + noto.amplitudes).max() <= 1e-15
    cnot = expected_output(space, "cnot")
    zcnot = expected_output(space, "zcnot")
    assert np.abs(cnot.amplitudes + zcnot.amplitudes).max() <= 1e-15


# --- the probe and expected-output memos ---------------------------------------------
# both depend only on the truncation (and the oracle), so each is built once per key


def _bits(state):
    return state.space, state.amplitudes.dtype.str, state.amplitudes.tobytes(), repr(state.survival)


def _cold(build):
    for memo in package_memos():
        memo.cache_clear()
    return build()


def _states(space):
    return [prepare_input(space)] + [expected_output(space, o) for o in ORACLE_IDS]


@pytest.mark.parametrize("l_max", [4, 6, 64, 1000])
def test_a_warm_memo_state_equals_a_cold_build(l_max):
    space = make_space(l_max)
    _states(space)
    warm = _states(space)  # every call hits
    # the constant oracles' expected outputs are built from the probe
    assert deutsch._probe.cache_info().misses == 1 and deutsch._expected.cache_info().hits == 4
    cold = _cold(lambda: _states(make_space(l_max)))
    assert [_bits(state) for state in warm] == [_bits(state) for state in cold]


def test_a_hit_shares_the_read_only_state(space):
    probe = prepare_input(space)
    # a space built directly equals the memo's and finds the same entry
    assert prepare_input(ModeSpace(space.l_max)) is probe
    assert expected_output(space, "cnot") is expected_output(ModeSpace(space.l_max), "cnot")
    assert not probe.amplitudes.flags.writeable


def test_an_unknown_oracle_caches_nothing(space):
    expected_output(space, "cnot")
    before = deutsch._expected.cache_info()
    for _ in range(2):  # and raises again, checked before the lookup
        with pytest.raises(ValueError, match="unknown oracle 'bogus'"):
            expected_output(space, "bogus")
    assert deutsch._expected.cache_info() == before and before.currsize == 1


def test_the_state_memos_keep_at_most_maxsize_entries():
    maxsize = deutsch._expected.cache_info().maxsize
    spaces = [make_space(MAX_L_MAX - k) for k in range(maxsize // len(ORACLE_IDS) + 2)]
    for space in spaces:
        _states(space)
    assert deutsch._expected.cache_info().currsize == maxsize
    assert deutsch._probe.cache_info().currsize == len(spaces) <= maxsize
