import math

import numpy as np
import pytest

from spinorbit import (
    ORACLE_IDS,
    apply_chain,
    basis_state,
    build_oracle,
    fidelity_up_to_phase,
    oracle_class,
)
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
from spinorbit.state import H_CIRCULAR, LEFT, PhotonState, RIGHT, V_CIRCULAR


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
    assert classify(0.985, 0.015, threshold=0.98) == BALANCED
    for threshold in (0.2, 1.0, float("nan")):
        with pytest.raises(ValueError, match="threshold"):
            classify(0.5, 0.5, threshold)
        with pytest.raises(ValueError, match="threshold"):
            run("identity", threshold=threshold)


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


def test_sample_counts_batches_are_deterministic():
    a = sample_counts([0.6, 0.3, 0.1], 9_999, seed=1, batches=4)
    b = sample_counts([0.6, 0.3, 0.1], 9_999, seed=1, batches=4)
    assert np.array_equal(a, b)
    assert a.sum() == 9_999


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5], -1, seed=0)
    with pytest.raises(ValueError):
        sample_counts([0.5, 0.5], 10, seed=0, batches=0)
    with pytest.raises(ValueError):
        sample_counts([-0.1, 1.1], 10, seed=0)


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
