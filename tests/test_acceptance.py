"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time
from importlib import resources

import numpy as np

from conftest import valid_bench
from dense import dense
from spinorbit import (
    CompileError,
    ORACLE_IDS,
    apply,
    apply_chain,
    build_oracle,
    compile_bench,
    compose,
    encode,
    fidelity_up_to_phase,
    make_space,
    oracle_class,
    parse,
    render,
)
from spinorbit.deutsch import (
    BALANCED,
    CONSTANT,
    INCONCLUSIVE,
    OAM_SORTER,
    PBS,
    expected_output,
    prepare_input,
    run,
)
from spinorbit.elements import (
    APERTURE_FULL,
    APERTURE_L0,
    DovePrismSpec,
    QPlateSpec,
    WaveplateSpec,
    dove_prism,
    hwp,
    lens,
    qplate,
)
from spinorbit.reference import classify_abstract
from spinorbit.state import LEFT, RIGHT

SPACE = make_space(6)

EXPECTED_TABLES = {
    "identity": {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 0), (1, 1): (1, 1)},
    "not": {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (1, 0)},
    "cnot": {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (1, 0)},
    "zcnot": {(0, 0): (0, 1), (0, 1): (0, 0), (1, 0): (1, 0), (1, 1): (1, 1)},
}


def _report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:02d} [{'PASS' if passed else 'FAIL'}] {description}")


def test_criterion_01_truth_tables():
    started = time.perf_counter()
    checks = 0
    worst = 0.0
    for oracle_id in ORACLE_IDS:
        composed = compose(build_oracle(SPACE, oracle_id).elements)
        for bits, expected_bits in EXPECTED_TABLES[oracle_id].items():
            output = apply(composed, encode(SPACE, bits))
            target = encode(SPACE, expected_bits)
            worst = max(worst, float(np.abs(output.amplitudes - target.amplitudes).max()))
            checks += 1
    elapsed = time.perf_counter() - started
    passed = checks == 16 and worst < 1e-12 and elapsed < 1.0
    _report(1, f"truth tables: 16 rows, max amplitude deviation {worst:.2e}, "
               f"{elapsed * 1000:.0f} ms", passed)
    assert checks == 16
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_deterministic_classification():
    started = time.perf_counter()
    reports = {oracle_id: run(oracle_id) for oracle_id in ORACLE_IDS}
    ok = True
    for oracle_id, report in reports.items():
        if oracle_class(oracle_id) == CONSTANT:
            ok &= abs(report.p_d2 - 1.0) <= 1e-12 and report.verdict == CONSTANT
        else:
            ok &= abs(report.p_d1 - 1.0) <= 1e-12 and report.verdict == BALANCED
    elapsed = time.perf_counter() - started
    verdicts = {k: v.verdict for k, v in reports.items()}
    _report(2, f"deterministic classification {verdicts}, {elapsed * 1000:.0f} ms",
            ok and elapsed < 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_03_output_state_fidelity():
    fidelities = {}
    for oracle_id in ORACLE_IDS:
        output = apply_chain(build_oracle(SPACE, oracle_id).elements, prepare_input(SPACE))
        fidelities[oracle_id] = fidelity_up_to_phase(output, expected_output(SPACE, oracle_id))
    not_output = apply_chain(build_oracle(SPACE, "not").elements, prepare_input(SPACE))
    negation_error = float(
        np.abs(not_output.amplitudes + prepare_input(SPACE).amplitudes).max()
    )
    passed = all(f >= 1.0 - 1e-12 for f in fidelities.values()) and negation_error <= 1e-12
    _report(3, f"output fidelities {min(fidelities.values()):.15f}, "
               f"NOT negation error {negation_error:.2e}", passed)
    assert all(f >= 1.0 - 1e-12 for f in fidelities.values())
    assert negation_error <= 1e-12


def test_criterion_04_efficiency_model():
    ideal = {oracle_id: run(oracle_id) for oracle_id in ORACLE_IDS}
    passed = True
    survivals = {}
    for oracle_id in ORACLE_IDS:
        report = run(oracle_id, eta=0.97)
        survivals[oracle_id] = report.survival
        passed &= abs(report.survival - 0.9409) <= 1e-12
        passed &= abs(report.p_d1 - ideal[oracle_id].p_d1) <= 1e-12
        passed &= abs(report.p_d2 - ideal[oracle_id].p_d2) <= 1e-12
    _report(4, f"survival at eta=0.97 per plate: {survivals}", passed)
    assert passed


def test_criterion_05_cross_validation():
    agreements = {
        oracle_id: (run(oracle_id).verdict, classify_abstract(oracle_id))
        for oracle_id in ORACLE_IDS
    }
    passed = all(physical == abstract for physical, abstract in agreements.values())
    _report(5, f"physical vs abstract verdicts: {agreements}", passed)
    assert passed


def test_criterion_06_operator_hygiene():
    identity = np.eye(SPACE.dimension)
    factory_grid = [
        qplate(SPACE, QPlateSpec(1)),
        qplate(SPACE, QPlateSpec(1, 0.97)),
        qplate(SPACE, QPlateSpec(-1)),
        qplate(SPACE, QPlateSpec(0.5)),
        hwp(SPACE, WaveplateSpec(0.0, APERTURE_FULL)),
        hwp(SPACE, WaveplateSpec(0.31, APERTURE_FULL)),
        hwp(SPACE, WaveplateSpec(0.0, APERTURE_L0, 0.0)),
        hwp(SPACE, WaveplateSpec(0.0, APERTURE_L0, 0.7)),
        dove_prism(SPACE, DovePrismSpec()),
        lens(SPACE),
    ]
    unitarity = max(
        float(np.abs(matrix.conj().T @ matrix - identity).max())
        for matrix in map(dense, factory_grid)
    )

    qp = qplate(SPACE, QPlateSpec(1))
    double_error = 0.0
    from spinorbit import basis_state

    for pol in (LEFT, RIGHT):
        for l in range(-SPACE.l_max + 2, SPACE.l_max - 1):
            out = apply_chain([qp, qp], basis_state(SPACE, pol, l))
            double_error = max(double_error, abs(out.amplitude(pol, l) - 1.0))

    dove = dense(dove_prism(SPACE))
    full = dense(hwp(SPACE, WaveplateSpec(0.0)))
    involution_error = max(
        float(np.abs(dove @ dove - identity).max()),
        float(np.abs(full @ full - identity).max()),
    )

    spin = {LEFT: 1, RIGHT: -1}
    conservation_ok = True
    qp_matrix = dense(qp)
    for j in range(SPACE.dimension):
        column = qp_matrix[:, j]
        i = int(np.argmax(np.abs(column)))
        pol_in, l_in = SPACE.basis_label(j)
        pol_out, l_out = SPACE.basis_label(i)
        conservation_ok &= spin[pol_out] + l_out == spin[pol_in] + l_in

    passed = (
        unitarity <= 1e-12
        and double_error <= 1e-12
        and involution_error <= 1e-12
        and conservation_ok
    )
    _report(6, f"unitarity {unitarity:.2e}, double q-plate {double_error:.2e}, "
               f"involutions {involution_error:.2e}, angular momentum "
               f"{'conserved' if conservation_ok else 'violated'}", passed)
    assert passed


def test_criterion_07_measurement_consistency():
    agreements = {}
    for oracle_id in ORACLE_IDS:
        pbs_verdict = run(oracle_id, measurement=PBS).verdict
        oam_verdict = run(oracle_id, measurement=OAM_SORTER).verdict
        agreements[oracle_id] = (pbs_verdict, oam_verdict)
    passed = all(a == b for a, b in agreements.values())
    _report(7, f"PBS vs OAM-sorter verdicts: {agreements}", passed)
    assert passed


def test_criterion_08_seeded_sampling():
    started = time.perf_counter()
    shots = 100_000
    first = run("cnot", eta=0.97, shots=shots, seed=20260810)
    second = run("cnot", eta=0.97, shots=shots, seed=20260810)
    tally = first.shots
    sigma = math.sqrt(0.9409 * (1 - 0.9409) / shots)
    d1_ok = abs(tally.n_d1 / shots - 0.9409) <= 3 * sigma
    d2_ok = tally.n_d2 == 0
    lost_ok = abs(tally.n_lost / shots - 0.0591) <= 3 * sigma
    reproducible = first.shots == second.shots
    elapsed = time.perf_counter() - started
    passed = d1_ok and d2_ok and lost_ok and reproducible and elapsed < 10.0
    _report(8, f"tallies D1={tally.n_d1} D2={tally.n_d2} lost={tally.n_lost} "
               f"of {shots}, reproducible={reproducible}, {elapsed:.2f} s", passed)
    assert passed


def test_criterion_09_dsl_corpus_and_random_files():
    corpus_dir = resources.files("spinorbit") / "benches"
    names = ["identity.bench", "not.bench", "cnot.bench", "zcnot.bench",
             "fig2_cnot_gate.bench"]
    corpus_ok = True
    for name in names:
        text = (corpus_dir / name).read_text(encoding="utf-8")
        bench = parse(text)
        corpus_ok &= parse(render(bench)) == bench
        compile_bench(bench)

    rng = random.Random(20260810)
    random_ok = True
    for _ in range(200):
        bench = valid_bench(rng)
        round_tripped = parse(render(bench))
        random_ok &= round_tripped == bench
        compile_bench(round_tripped)

    fig2 = (corpus_dir / "fig2_cnot_gate.bench").read_text(encoding="utf-8")
    try:
        compile_bench(parse(fig2.replace("lmax=4", "lmax=3")))
        diagnostic_ok = False
        message = "no error raised"
    except CompileError as exc:
        message = str(exc)
        diagnostic_ok = "qplate" in message and "truncation overflow" in message

    passed = corpus_ok and random_ok and diagnostic_ok
    _report(9, f"corpus round-trip={corpus_ok}, 200 random files={random_ok}, "
               f"lmax=3 diagnostic: {message!r}", passed)
    assert passed


def test_criterion_10_crosstalk_continuity():
    epsilons = [round(0.1 * i, 1) for i in range(11)]
    reports = [run("cnot", crosstalk=eps) for eps in epsilons]
    p_values = [r.p_d1 for r in reports]
    verdicts = [r.verdict for r in reports]
    starts_at_one = abs(p_values[0] - 1.0) <= 1e-12
    continuous = all(
        abs(b - a) < 0.5 for a, b in zip(p_values, p_values[1:])
    ) and all(math.isfinite(p) for p in p_values)
    first_change = next((i for i, v in enumerate(verdicts) if v != BALANCED), None)
    degrades_gracefully = first_change is None or (
        verdicts[first_change] == INCONCLUSIVE
        and CONSTANT not in verdicts[:first_change]
    )
    passed = starts_at_one and continuous and degrades_gracefully
    _report(10, f"p_D1 sweep {[round(p, 4) for p in p_values]}, verdicts "
                f"{verdicts}", passed)
    assert passed
