"""The four workloads: one round of operations each, the timed call, and the checks.

A workload object holds one round of operations drawn from the seed.  A run
repeats that round a whole number of times, so every run attempts the same
operations in the same proportions.  ``execute`` is the timed call; it goes
through module attributes (``deutsch.run``, ``dsl.parse_with_errors``) so
the tracer's wrappers see it.  ``check`` runs after the clock stops and
returns a description of what is wrong, or None.  ``failed`` marks
operations that did not complete (only the three ``cli`` faults do today).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import benchtext
import propagator as prop

from spinorbit import cli, deutsch, dsl, logic, reference, state
from spinorbit.errors import CompileError

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "spinorbit" / "benches"
ORACLES = tuple(prop.ORACLE_CHAINS)
TOL = 1e-12
#: ``run``/``truth_table`` truncation of ``wide``: element construction is
#: over nine tenths of ``run()`` here, and a round still fits in about a second
WIDE_L_MAX = 64


def corpus_texts() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS_DIR.glob("*.bench"))}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _state_vector_error(amplitudes, l_max: int, want: dict) -> float:
    """Largest |program - propagator| amplitude, in the README's basis order."""
    n_oam = 2 * l_max + 1
    worst = 0.0
    for index, amp in enumerate(amplitudes):
        pol, offset = divmod(index, n_oam)
        key = ("LR"[pol], offset - l_max)
        worst = max(worst, abs(complex(amp) - want.get(key, 0j)))
    return worst


class Workload:
    """Defaults shared by the workloads; ``ops`` is one round."""

    ops: list

    def warm_up(self) -> None:
        for op in self.ops:
            self.execute(op)

    def failed(self, op, result) -> bool:
        return isinstance(result, Exception)

    def fingerprint(self, result):
        """What must repeat exactly when the same operation runs again."""
        return result


# --- oracles and wide -------------------------------------------------------


@dataclass(frozen=True)
class RunCall:
    oracle: str
    eta: float
    crosstalk: float
    measurement: str
    shots: int | None
    seed: int
    l_max: int


@dataclass(frozen=True)
class TableCall:
    oracle: str
    eta: float
    l_max: int


def _check_report(call: RunCall, report, cache: dict) -> str | None:
    key = (call.oracle, call.eta, call.crosstalk, call.measurement)
    if key not in cache:
        cache[key] = prop.oracle_expectation(*key)
    want = cache[key]
    if not _close(report.p_d1 + report.p_d2, 1.0):
        return f"{call}: p_D1 + p_D2 = {report.p_d1 + report.p_d2!r}"
    if not _close(report.survival, call.eta ** 2):
        return f"{call}: survival {report.survival!r} != eta^2"
    for field in ("p_d1", "p_d2", "p_plus", "p_minus", "residual", "survival",
                  "output_fidelity"):
        if not _close(getattr(report, field), want[field]):
            return f"{call}: {field} {getattr(report, field)!r} != {want[field]!r}"
    if report.verdict != want["verdict"]:
        return f"{call}: verdict {report.verdict} != {want['verdict']} (0.99 rule)"
    if call.crosstalk == 0.0 and report.verdict != reference.classify_abstract(call.oracle):
        return f"{call}: verdict disagrees with reference.classify_abstract"
    tally = report.shots
    if call.shots is None:
        return None if tally is None else f"{call}: unexpected shot tally"
    total = tally.n_d1 + tally.n_d2 + tally.n_lost + tally.n_residual
    if tally.shots != call.shots or total != call.shots:
        return f"{call}: tallies sum to {total}, not {call.shots}"
    if call.eta == 1.0 and tally.n_lost:
        return f"{call}: {tally.n_lost} photons lost at eta = 1"
    return None


def _run(call: RunCall):
    return deutsch.run(
        call.oracle, eta=call.eta, crosstalk=call.crosstalk, shots=call.shots,
        seed=call.seed, l_max=call.l_max, measurement=call.measurement,
    )


def _table(call: TableCall):
    return logic.truth_table(
        logic.build_oracle(state.make_space(call.l_max), call.oracle, eta=call.eta)
    )


class Oracles(Workload):
    """``deutsch.run`` at the default ``l_max=6``.

    48 calls a round: 4 oracles x {pbs, oam} x {ideal, eta=0.97, crosstalk in
    (0, 1)} x 2.  Half of the identity and cnot calls sample shots (a quarter
    of all calls).  Sorted by cost, in steps of about one element build:
    identity (6 calls), cnot (6), identity with shots (6), not (12), cnot
    with shots (6), zcnot (12).  So p50 falls inside the ``not`` step and p90
    inside the ``zcnot`` step.
    """

    name = "oracles"
    nominal_round_s = 0.040
    trace_rounds = 40

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        for oracle in ORACLES:
            for measurement in deutsch.MEASUREMENTS:
                for imperfection in ("ideal", "lossy", "crosstalk"):
                    for copy in range(2):
                        sampled = oracle in ("identity", "cnot") and copy == 0
                        self.ops.append(RunCall(
                            oracle,
                            0.97 if imperfection == "lossy" else 1.0,
                            rng.uniform(0.01, 0.99) if imperfection == "crosstalk" else 0.0,
                            measurement,
                            rng.randint(1_000, 1_000_000) if sampled else None,
                            rng.randrange(2 ** 32),
                            deutsch.DEFAULT_L_MAX,
                        ))
        rng.shuffle(self.ops)
        self._expected: dict = {}

    def execute(self, call):
        return _run(call)

    def check(self, call, result) -> str | None:
        return _check_report(call, result, self._expected)


class Wide(Workload):
    """``run`` and ``truth_table`` at ``l_max`` 64, three runs to each table.

    20 calls a round.  Runs: identity, cnot and not four times each, zcnot
    three times (4 to 7 elements).  Tables: identity, cnot and zcnot once,
    not twice; a table costs about twice a run of the same oracle.  Sorted by
    cost, p50 falls in the middle of the ``not`` runs and p90 in the middle
    of the ``not`` tables.
    """

    name = "wide"
    nominal_round_s = 1.0
    trace_rounds = 1

    RUNS = {"identity": 4, "cnot": 4, "not": 4, "zcnot": 3}
    TABLES = {"identity": 1, "cnot": 1, "not": 2, "zcnot": 1}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        imperfections = ("ideal", "lossy", "crosstalk")
        for oracle, count in self.RUNS.items():
            for i in range(count):
                imperfection = imperfections[(i + rng.randrange(3)) % 3]
                self.ops.append(RunCall(
                    oracle,
                    0.97 if imperfection == "lossy" else 1.0,
                    rng.uniform(0.01, 0.99) if imperfection == "crosstalk" else 0.0,
                    rng.choice(deutsch.MEASUREMENTS),
                    None,
                    0,
                    WIDE_L_MAX,
                ))
        for oracle, count in self.TABLES.items():
            for _ in range(count):
                self.ops.append(TableCall(oracle, rng.choice((1.0, 0.97)), WIDE_L_MAX))
        rng.shuffle(self.ops)
        self._expected: dict = {}
        self._small: dict = {}

    def warm_up(self) -> None:
        seen = set()
        for call in self.ops:
            kind = (type(call), call.oracle)
            if kind not in seen:
                seen.add(kind)
                self.execute(call)

    def execute(self, call):
        return _run(call) if isinstance(call, RunCall) else _table(call)

    def _at_l_max_6(self, call):
        small = type(call)(**{**call.__dict__, "l_max": 6})
        if small not in self._small:
            self._small[small] = self.execute(small)
        return self._small[small]

    def check(self, call, result) -> str | None:
        small = self._at_l_max_6(call)
        if isinstance(call, RunCall):
            problem = _check_report(call, result, self._expected)
            if problem:
                return problem
            for field in ("p_d1", "p_d2", "p_plus", "p_minus", "residual",
                          "survival", "output_fidelity"):
                if not _close(getattr(result, field), getattr(small, field)):
                    return f"{call}: {field} differs from l_max=6"
            return None if result.verdict == small.verdict else f"{call}: verdict differs from l_max=6"
        for (x, y), (bits, phase) in result.items():
            out = reference.apply_uf(reference.computational_state(x, y), call.oracle)
            index = max(range(4), key=lambda i: abs(out.amplitudes[i]))
            if bits != divmod(index, 2) or abs(phase - 1.0) > TOL:
                return f"{call}: row {(x, y)} -> {bits} phase {phase}, want {divmod(index, 2)} phase 1"
            small_bits, small_phase = small[(x, y)]
            if small_bits != bits or abs(small_phase - phase) > TOL:
                return f"{call}: row {(x, y)} differs from l_max=6"
        return None


# --- benchfiles -------------------------------------------------------------


class Benchfiles(Workload):
    """The text pipeline as ``cli.cmd_bench_run`` calls it, through the library.

    40 texts a round (see ``benchtext.SLOTS``): 25 seeded valid benches, the 5
    corpus files, 5 texts with planted syntax errors and 5 that overflow the
    truncation at a planted q-plate.
    """

    name = "benchfiles"
    nominal_round_s = 0.060
    trace_rounds = 25

    def __init__(self, seed: int):
        self.ops = benchtext.round_texts(seed, list(corpus_texts().values()))

    def execute(self, text):
        bench, errors = dsl.parse_with_errors(text.text)
        if errors:
            return ("syntax", errors)
        try:
            compiled = dsl.compile_bench(bench)
        except CompileError as exc:
            return ("overflow", str(exc))
        output = state.apply_chain(
            compiled.elements, compiled.preparation.initial_state(compiled.space)
        )
        if compiled.measure == dsl.MEASURE_PBS:
            measured = deutsch.measure_pbs(output)
        else:
            measured = tuple(deutsch.measure_oam_superposition(output))
        return ("ok", output, measured, dsl.render(bench))

    def fingerprint(self, result):
        if result[0] != "ok":
            return result
        _, output, measured, rendered = result
        return (output.amplitudes.tobytes(), output.survival, measured, rendered)

    def check(self, text, result) -> str | None:
        kind = result[0]
        if text.role == "syntax":
            lines = tuple(sorted({e.line for e in result[1]})) if kind == "syntax" else ()
            if lines != text.bad_lines:
                return f"syntax errors at {lines}, planted at {text.bad_lines}"
            return None
        if text.role == "overflow":
            index, line = text.overflow_at
            if kind != "overflow" or "truncation overflow" not in result[1] or \
                    f"element {index} 'qplate' (line {line})" not in result[1]:
                return f"expected overflow at element {index} (line {line}), got {result[:2]!r}"
            return None
        if kind != "ok":
            return f"{text.role} bench rejected: {result[1]}"
        _, output, measured, rendered = result
        want, survival = prop.propagate(prop.prepare(text.axis, text.oams), text.chain, text.l_max)
        error = _state_vector_error(output.amplitudes, text.l_max, want)
        if error > TOL:
            return f"output amplitudes differ from the propagator by {error:.3e}"
        if not _close(output.survival, survival):
            return f"survival {output.survival!r} != prod(eta) {survival!r}"
        expect = prop.pbs(want) if text.measure == "pbs" else prop.oam_sorter(want)
        if any(not _close(a, b) for a, b in zip(measured, expect)):
            return f"measurement {measured} != propagator {expect}"
        if dsl.render(dsl.parse(rendered)) != rendered:
            return "render(parse(render(b))) != render(b)"
        return None


# --- cli --------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected_exit: int = 0


#: faults in cli.py: each prints a traceback and exits 1 only because the
#: exception escapes.  Fixed inputs, so they fail in every round of every seed.
FAULTY_COMMANDS = (
    Command(("deutsch", "--shots", "-5"), 1),  # ValueError from sample_counts
    Command(("deutsch", "--seed", "-1", "--shots", "10"), 1),  # from SeedSequence
    Command(("bench", "run", "src/spinorbit/benches"), 1),  # IsADirectoryError
)


def _abstract(oracle: str) -> str:
    return reference.classify_abstract(oracle)


class Cli(Workload):
    """One fresh ``python -m spinorbit.cli`` per command, one at a time.

    19 commands a round: ``deutsch --oracle all`` plain, ``--json``,
    ``--realistic`` and with ``--shots``; ``bench run``/``bench check`` on
    corpus files; ``verify`` for each suite; the three faulty commands; and
    four ``deutsch --oracle all --lmax 64`` variants.  Start-up makes most
    commands cost about the same; the ``--lmax 64`` ones cost about half as
    much again and are a fifth of the round, so p90 falls in their middle
    rather than among whichever cheap commands a burst of load slowed.
    """

    name = "cli"
    nominal_round_s = 6.5
    trace_rounds = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        files = sorted(corpus_texts())
        picks = [rng.choice(files) for _ in range(4)]

        def shots() -> list[str]:
            return ["--shots", str(rng.randint(1_000, 1_000_000)), "--seed", str(rng.randrange(2 ** 31))]

        self.ops = [
            Command(("deutsch", "--oracle", "all")),
            Command(("deutsch", "--oracle", "all", "--json")),
            Command(("deutsch", "--oracle", "all", "--realistic")),
            Command(("deutsch", "--oracle", "all", "--json", "--realistic", *shots())),
            Command(("deutsch", "--oracle", "all", *shots(), "--measure", "oam")),
            Command(("deutsch", "--oracle", "all", "--lmax", str(WIDE_L_MAX))),
            Command(("deutsch", "--oracle", "all", "--lmax", str(WIDE_L_MAX), "--json")),
            Command(("deutsch", "--oracle", "all", "--lmax", str(WIDE_L_MAX), "--realistic")),
            Command(("deutsch", "--oracle", "all", "--lmax", str(WIDE_L_MAX), *shots(),
                     "--measure", "oam", "--json")),
            Command(("bench", "run", picks[0])),
            Command(("bench", "run", picks[1], "--json")),
            Command(("bench", "check", picks[2])),
            Command(("bench", "check", picks[3], "--json")),
            Command(("verify", "truth-tables")),
            Command(("verify", "unitarity")),
            Command(("verify", "cross-check")),
            *FAULTY_COMMANDS,
        ]
        rng.shuffle(self.ops)
        self.corpus = corpus_texts()

    def warm_up(self) -> None:
        self.execute(self.ops[0])

    def execute(self, command):
        proc = subprocess.run(
            [sys.executable, "-m", "spinorbit.cli", *command.argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def execute_in_process(self, command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(command.argv))
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def failed(self, command, result) -> bool:
        code, _, err = result
        return code != command.expected_exit or "Traceback" in err

    def check(self, command, result) -> str | None:
        code, out, err = result
        argv = command.argv
        if command.expected_exit:
            return None
        try:
            if argv[0] == "deutsch":
                return self._check_deutsch(argv, out)
            if argv[0] == "bench":
                return self._check_bench(argv, out)
            return self._check_verify(out)
        except (ValueError, KeyError, IndexError) as exc:
            return f"{' '.join(argv)}: output not understood ({exc})"

    def _check_deutsch(self, argv, out: str) -> str | None:
        eta = 0.97 if "--realistic" in argv else 1.0
        measurement = "oam" if "oam" in argv else "pbs"
        shots = int(argv[argv.index("--shots") + 1]) if "--shots" in argv else None
        if "--json" in argv:
            results = json.loads(out)["results"]
        else:
            results = []
            for line in out.splitlines():
                if line.startswith("oracle="):
                    results.append(dict(w.split("=", 1) for w in line.split()))
                elif line.startswith("  shots="):
                    results[-1]["shots"] = {k: int(v) for k, v in (w.split("=", 1) for w in line.split())}
        if [r["oracle"] for r in results] != list(ORACLES):
            return f"{' '.join(argv)}: reports for {[r['oracle'] for r in results]}"
        for r in results:
            if r["verdict"] != _abstract(r["oracle"]):
                return f"{' '.join(argv)}: {r['oracle']} verdict {r['verdict']}"
            if "p_D1" in r:
                want = prop.oracle_expectation(r["oracle"], eta, 0.0, measurement)
                got = (r["p_D1"], r["p_D2"], r["survival"], r["output_fidelity"])
                if any(not _close(a, b) for a, b in zip(got, (want["p_d1"], want["p_d2"], want["survival"], want["output_fidelity"]))):
                    return f"{' '.join(argv)}: {r['oracle']} figures differ from the propagator"
            if shots is not None:
                tally = r["shots"]
                total = sum(tally.get(k, 0) for k in ("n_D1", "n_D2", "n_lost", "n_residual"))
                if total != shots or (eta == 1.0 and tally["n_lost"]):
                    return f"{' '.join(argv)}: {r['oracle']} tallies {tally}"
        return None

    def _check_bench(self, argv, out: str) -> str | None:
        l_max, axis, oams, chain, measure = benchtext.read_bench(self.corpus[argv[2]])
        want, survival = prop.propagate(prop.prepare(axis, oams), chain, l_max)
        if argv[1] == "check":
            if "--json" in argv:
                doc = json.loads(out)
                ok = doc["ok"] and doc["elements"] == len(chain) and doc["l_max"] == l_max
            else:
                ok = out.startswith("ok: ") and f"l_max={l_max}, {len(chain)} elements" in out
            return None if ok else f"{' '.join(argv)}: {out.strip()!r}"
        if "--json" in argv:
            doc = json.loads(out)["output"]
            got = {(a["pol"], a["l"]): complex(a["re"], a["im"]) for a in doc["amplitudes"]}
            got_survival = doc["survival"]
        else:
            got = {}
            for line in out.splitlines():
                if line.startswith("  |"):
                    ket, re_part, im_part = line.split()
                    pol, l = ket[1:-1].split(",")
                    got[(pol, int(l))] = complex(float(re_part), float(im_part[:-1]))
            got_survival = float(out.split("survival=", 1)[1].split()[0])
        keys = set(got) | {k for k, a in want.items() if abs(a) > TOL}
        if any(abs(got.get(k, 0j) - want.get(k, 0j)) > TOL for k in keys):
            return f"{' '.join(argv)}: amplitudes differ from the propagator"
        if not _close(got_survival, survival):
            return f"{' '.join(argv)}: survival {got_survival} != {survival}"
        return None

    def _check_verify(self, out: str) -> str | None:
        lines = out.strip().splitlines()
        passed, total = lines[-1].split()[0].split("/")
        if passed != total or any(line.startswith("FAIL") for line in lines):
            return f"verify: {lines[-1]}"
        return None


WORKLOADS = {w.name: w for w in (Oracles, Wide, Benchfiles, Cli)}


def rounds_for(workload, seconds: float) -> int:
    """Whole rounds for a run of about ``seconds`` and at least 100 operations."""
    return max(math.ceil(100 / len(workload.ops)), round(seconds / workload.nominal_round_s))
