"""Command-line front end.

Subcommands:
    deutsch  - run one or all oracle benches and classify constant vs balanced
    bench    - run or check a .bench description file
    verify   - run the built-in assertion suites

Exit codes: 0 success; 1 invalid flags or bench syntax errors; 2 physics or
compile errors (e.g. truncation); 3 a verification assertion failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from . import deutsch, dsl
from .errors import BenchParseError, SpinOrbitError
from .logic import ORACLE_IDS
from .state import PhotonState, apply_chain, basis_state, fidelity_up_to_phase
from .verify import SUITES

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_VERIFY = 3


def _fmt(value: float) -> str:
    return format(value, ".17g")


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit status 2 on bad flags; the contract wants 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spinorbit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_deutsch = sub.add_parser("deutsch", help="run oracle benches and classify")
    p_deutsch.add_argument(
        "--oracle", choices=ORACLE_IDS + ("all",), default="all",
        help="which oracle bench to run (default: all)",
    )
    p_deutsch.add_argument("--eta", type=float, default=None,
                           help="q-plate conversion efficiency in (0, 1]")
    p_deutsch.add_argument("--crosstalk", type=float, default=0.0,
                           help="residual retardance of the OAM-selective waveplate, in [0, 1]")
    p_deutsch.add_argument("--realistic", action="store_true",
                           help="use the measured q-plate efficiency 0.97")
    p_deutsch.add_argument("--shots", type=int, default=None,
                           help="sample this many detector clicks")
    p_deutsch.add_argument("--seed", type=int, default=0, help="shot-sampling seed")
    p_deutsch.add_argument("--measure", choices=deutsch.MEASUREMENTS,
                           default=deutsch.PBS,
                           help="verdict from the polarization splitter or the OAM sorter")
    p_deutsch.add_argument("--lmax", type=int, default=deutsch.DEFAULT_L_MAX,
                           help="OAM truncation (4 to 1000)")
    p_deutsch.add_argument("--json", action="store_true", help="emit a JSON report")
    p_deutsch.add_argument("--verify", action="store_true",
                           help="also assert report consistency; exit 3 on failure")
    p_deutsch.set_defaults(func=cmd_deutsch)

    p_bench = sub.add_parser("bench", help="run or check a .bench file")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    for name, func in (("run", cmd_bench_run), ("check", cmd_bench_check)):
        p = bench_sub.add_parser(name)
        p.add_argument("file", help=".bench file (looked up in --corpus if not found)")
        p.add_argument("--corpus", default=None,
                       help="bench corpus directory (default: ./benches, else the packaged corpus)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name == "run":
            p.add_argument("--input", default=None, metavar="POL,L",
                           help='basis-state input such as "R,+2" (overrides the prepare directives)')
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run built-in assertion suites")
    p_verify.add_argument("suite", choices=sorted(SUITES))
    p_verify.add_argument("--lmax", type=int, default=deutsch.DEFAULT_L_MAX)
    p_verify.set_defaults(func=cmd_verify)
    return parser


# --- deutsch ----------------------------------------------------------------


def _resolve_eta(args) -> float:
    if args.eta is not None:
        return args.eta
    return 0.97 if args.realistic else 1.0


def _verify_report(report: deutsch.RunReport) -> list[str]:
    """Consistency assertions for one report; returns failure descriptions."""
    from .reference import classify_abstract

    failures = []
    if abs(report.p_d1 + report.p_d2 - 1.0) > 1e-12:
        failures.append(f"{report.oracle_id}: p_D1 + p_D2 != 1")
    expected_verdict = deutsch.classify(
        *( (report.p_d1, report.p_d2) if report.measurement == deutsch.PBS
           else (report.p_minus, report.p_plus) ),
        report.threshold,
    )
    if report.verdict != expected_verdict:
        failures.append(f"{report.oracle_id}: verdict inconsistent with probabilities")
    if report.verdict != deutsch.INCONCLUSIVE:
        if report.verdict != classify_abstract(report.oracle_id):
            failures.append(
                f"{report.oracle_id}: verdict disagrees with the abstract classifier"
            )
    return failures


def _report_text(report: deutsch.RunReport) -> list[str]:
    lines = [
        f"oracle={report.oracle_id} measurement={report.measurement} "
        f"verdict={report.verdict}",
        f"  p_D1={_fmt(report.p_d1)} p_D2={_fmt(report.p_d2)} "
        f"survival={_fmt(report.survival)}",
        f"  oam_sorter: p_plus={_fmt(report.p_plus)} p_minus={_fmt(report.p_minus)} "
        f"residual={_fmt(report.residual)}",
        f"  output_fidelity={_fmt(report.output_fidelity)}",
    ]
    if report.shots is not None:
        t = report.shots
        extra = f" n_residual={t.n_residual}" if t.n_residual else ""
        lines.append(
            f"  shots={t.shots} seed={t.seed} n_D1={t.n_d1} n_D2={t.n_d2} "
            f"n_lost={t.n_lost}{extra}"
        )
    return lines


def cmd_deutsch(args) -> int:
    eta = _resolve_eta(args)
    if not 0.0 < eta <= 1.0:
        print(f"spinorbit deutsch: --eta must lie in (0, 1], got {eta}", file=sys.stderr)
        return EXIT_USAGE
    if not 0.0 <= args.crosstalk <= 1.0:
        print(
            f"spinorbit deutsch: --crosstalk must lie in [0, 1], got {args.crosstalk}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shots is not None and args.shots < 0:
        print(f"spinorbit deutsch: --shots must be >= 0, got {args.shots}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"spinorbit deutsch: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    oracle_ids = ORACLE_IDS if args.oracle == "all" else (args.oracle,)
    reports = [
        deutsch.run(
            oracle_id,
            eta=eta,
            crosstalk=args.crosstalk,
            shots=args.shots,
            seed=args.seed,
            l_max=args.lmax,
            measurement=args.measure,
        )
        for oracle_id in oracle_ids
    ]
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "deutsch",
        "parameters": {
            "oracle": args.oracle,
            "eta": eta,
            "crosstalk": args.crosstalk,
            "shots": args.shots,
            "seed": args.seed,
            "measure": args.measure,
            "l_max": args.lmax,
        },
        "results": [r.to_dict() for r in reports],
    }
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        for report in reports:
            print("\n".join(_report_text(report)))
    if args.verify:
        failures = [f for r in reports for f in _verify_report(r)]
        for failure in failures:
            print(f"verify: FAIL {failure}", file=sys.stderr)
        if failures:
            return EXIT_VERIFY
        print(f"verify: {len(reports)} report(s) consistent", file=sys.stderr)
    return EXIT_OK


# --- bench ------------------------------------------------------------------


def _corpus_dir(flag: str | None) -> Path:
    if flag is not None:
        return Path(flag)
    local = Path("benches")
    if local.is_dir():
        return local
    return Path(str(resources.files("spinorbit") / "benches"))


def _resolve_bench_file(args) -> Path:
    # only regular files: a directory of that name is not a bench
    for path in (Path(args.file), _corpus_dir(args.corpus) / args.file):
        if path.is_file():
            return path
    raise FileNotFoundError(f"bench file not found: {args.file}")


def _print_parse_errors(errors) -> None:
    for error in errors:
        print(f"error: {error}", file=sys.stderr)


class _BadInputSpec(ValueError):
    pass


def _parse_input_ket(spec: str, space) -> PhotonState:
    parts = spec.split(",")
    if len(parts) != 2 or parts[0].strip() not in ("L", "R"):
        raise _BadInputSpec(f'--input must look like "R,+2", got {spec!r}')
    try:
        l = int(parts[1].strip())
    except ValueError:
        raise _BadInputSpec(f"--input OAM index is not an integer: {spec!r}") from None
    return basis_state(space, parts[0].strip(), l)


def cmd_bench_run(args) -> int:
    try:
        path = _resolve_bench_file(args)
    except FileNotFoundError as exc:
        print(f"spinorbit bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bench, errors = dsl.parse_with_errors(path.read_text(encoding="utf-8"))
    if errors:
        _print_parse_errors(errors)
        return EXIT_USAGE
    compiled = dsl.compile_bench(bench)
    if args.input is not None:
        try:
            initial = _parse_input_ket(args.input, compiled.space)
        except _BadInputSpec as exc:
            print(f"spinorbit bench: {exc}", file=sys.stderr)
            return EXIT_USAGE
        input_desc = args.input
    else:
        initial = compiled.preparation.initial_state(compiled.space)
        input_desc = (
            f"prepare polarizer {compiled.preparation.axis}, "
            f"hologram oam={','.join(f'{l:+d}' for l in compiled.preparation.oams)}"
        )
    output = apply_chain(compiled.elements, initial)
    amplitudes = [
        {"pol": pol, "l": l, "re": amp.real, "im": amp.imag}
        for pol, l, amp in output.components(tol=1e-12)
    ]
    dominant = max(amplitudes, key=lambda a: a["re"] ** 2 + a["im"] ** 2, default=None)
    measurement = None
    if compiled.measure == dsl.MEASURE_PBS:
        p_d1, p_d2 = deutsch.measure_pbs(output)
        measurement = {"kind": "pbs", "p_D1": p_d1, "p_D2": p_d2}
    elif compiled.measure == dsl.MEASURE_OAM_SORTER:
        probs = deutsch.measure_oam_superposition(output)
        measurement = {
            "kind": "oam_sorter",
            "p_plus": probs.p_plus,
            "p_minus": probs.p_minus,
            "residual": probs.residual,
        }
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "bench run",
        "file": str(path),
        "input": input_desc,
        "output": {
            "amplitudes": amplitudes,
            "dominant": None if dominant is None else f"{dominant['pol']},{dominant['l']:+d}",
            "survival": output.survival,
            "fidelity_vs_input": fidelity_up_to_phase(output, initial),
        },
        "measurement": measurement,
    }
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(f"file: {path}")
        print(f"input: {input_desc}")
        print("output amplitudes:")
        for amp in amplitudes:
            print(f"  |{amp['pol']},{amp['l']:+d}>  {_fmt(amp['re'])} {_fmt(amp['im'])}j")
        print(f"survival={_fmt(output.survival)}")
        print(f"fidelity_vs_input={_fmt(document['output']['fidelity_vs_input'])}")
        if measurement is not None:
            pairs = " ".join(
                f"{k}={_fmt(v)}" for k, v in measurement.items() if k != "kind"
            )
            print(f"measurement[{measurement['kind']}]: {pairs}")
    return EXIT_OK


def cmd_bench_check(args) -> int:
    try:
        path = _resolve_bench_file(args)
    except FileNotFoundError as exc:
        print(f"spinorbit bench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    bench, errors = dsl.parse_with_errors(path.read_text(encoding="utf-8"))
    if errors:
        if args.json:
            print(json.dumps({
                "schema_version": SCHEMA_VERSION,
                "command": "bench check",
                "file": str(path),
                "ok": False,
                "errors": [
                    {"line": e.line, "column": e.column, "message": e.message,
                     "token": e.token}
                    for e in errors
                ],
            }, indent=2))
        else:
            _print_parse_errors(errors)
        return EXIT_USAGE
    compiled = dsl.compile_bench(bench)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "bench check",
        "file": str(path),
        "ok": True,
        "l_max": compiled.space.l_max,
        "elements": len(compiled.elements),
        "measure": compiled.measure,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"ok: {path} (l_max={summary['l_max']}, {summary['elements']} elements, "
            f"measure={summary['measure']})"
        )
    return EXIT_OK


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    results = SUITES[args.suite](l_max=args.lmax)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        detail = f" ({result.detail})" if result.detail else ""
        print(f"{status} {result.name}{detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} assertions passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BenchParseError as exc:
        _print_parse_errors(exc.errors)
        return EXIT_USAGE
    except SpinOrbitError as exc:
        print(f"spinorbit: {exc}", file=sys.stderr)
        return EXIT_PHYSICS


if __name__ == "__main__":
    raise SystemExit(main())
