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
from dataclasses import asdict
from importlib import resources
from pathlib import Path

from . import deutsch, dsl
from .dsl import _fmt
from .errors import BenchParseError, CompileError, SpinOrbitError
from .logic import ORACLE_IDS
from .state import PhotonState, apply_chain, basis_state, fidelity_up_to_phase
from .verify import SUITES

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PHYSICS = 2
EXIT_VERIFY = 3


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


def _verify_report(report: deutsch.RunReport) -> list[str]:
    """Consistency assertions for one report; returns failure descriptions."""
    from .reference import classify_abstract

    failures = []
    if abs(report.p_d1 + report.p_d2 - 1.0) > 1e-12:
        failures.append(f"{report.oracle_id}: p_D1 + p_D2 != 1")
    expected_verdict = deutsch.classify(
        *( (report.p_d1, report.p_d2) if report.measurement == deutsch.PBS
           else (report.p_minus, report.p_plus) )
    )
    if report.verdict != expected_verdict:
        failures.append(f"{report.oracle_id}: verdict inconsistent with probabilities")
    if report.verdict != deutsch.INCONCLUSIVE:
        if report.verdict != classify_abstract(report.oracle_id):
            failures.append(
                f"{report.oracle_id}: verdict disagrees with the abstract classifier"
            )
    return failures


def _pairs(fields: dict, *keys: str) -> str:
    """``key=value`` words for `keys` (default: all) of `fields`, in the order of `fields`."""
    return " ".join(
        f"{k}={_fmt(v) if isinstance(v, float) else v}"
        for k, v in fields.items() if k in (keys or fields)
    )


def _emit(args, document: dict, text) -> None:
    """Print `document` as JSON under --json, else the lines `text` renders from it."""
    print(json.dumps(document, indent=2) if args.json else "\n".join(text(document)))


def _report_text(fields: dict) -> list[str]:
    """One `RunReport.to_dict()` under its JSON names and order; the threshold is not shown."""
    lines = [
        _pairs(fields, "oracle", "measurement", "verdict"),
        "  " + _pairs(fields, "p_D1", "p_D2", "survival"),
        "  oam_sorter: " + _pairs(fields["oam_sorter"]),
        "  " + _pairs(fields, "output_fidelity"),
    ]
    if fields["shots"] is not None:
        lines.append("  " + _pairs(fields["shots"]))
    return lines


def cmd_deutsch(args) -> int:
    eta = args.eta if args.eta is not None else 0.97 if args.realistic else 1.0
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
    _emit(args, document, lambda doc: [line for r in doc["results"] for line in _report_text(r)])
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


class _UnreadableBench(Exception):
    pass


def _read_bench_file(args) -> tuple[Path, str]:
    """The bench file's path (as given, else in the corpus) and its UTF-8 text.

    Raises _UnreadableBench with a one-line message naming the file, and
    CompileError for a file above `dsl.MAX_BENCH_BYTES`, of which at most one
    byte more than the limit is read (the file's reported size is not trusted).
    """
    candidates = (Path(args.file), _corpus_dir(args.corpus) / args.file)
    try:
        # only regular files: a directory of that name is not a bench
        path = next((p for p in candidates if p.is_file()), None)
        if path is None:
            folders = [p for p in candidates if p.is_dir()]
            problem = f"{folders[0]} is a directory" if folders else f"not found: {args.file}"
            raise _UnreadableBench(f"bench file {problem}")
        with path.open("rb") as handle:
            data = handle.read(dsl.MAX_BENCH_BYTES + 1)
        if len(data) > dsl.MAX_BENCH_BYTES:
            raise CompileError(
                f"bench file {path} is larger than the limit of "
                f"{dsl.MAX_BENCH_BYTES} bytes"
            )
        # no newline translation is needed: the parser splits with splitlines
        return path, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _UnreadableBench(
            f"bench file {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    except OSError as exc:
        # the file the error names: a name too long fails in the lookup already
        raise _UnreadableBench(
            f"cannot read bench file {exc.filename or args.file}: {exc.strerror or exc}"
        ) from None


def _parse_input_ket(spec: str, space) -> PhotonState:
    parts = spec.split(",")
    if len(parts) != 2 or parts[0].strip() not in ("L", "R"):
        raise ValueError(f'--input must look like "R,+2", got {spec!r}')
    try:
        l = int(parts[1].strip())
    except ValueError:
        raise ValueError(f"--input OAM index is not an integer: {spec!r}") from None
    return basis_state(space, parts[0].strip(), l)


def _parse_bench_file(args) -> tuple[Path, dsl.BenchFile | None]:
    """The bench file's path and parsed bench; an unreadable or unparsable file raises
    _UnreadableBench or BenchParseError or, under --json, prints the errors document."""
    try:
        path, text = _read_bench_file(args)
        bench, errors = dsl.parse_with_errors(text)
        if errors and not args.json:
            raise BenchParseError(errors)
        errors = [asdict(e) for e in errors]
    except _UnreadableBench as exc:
        if not args.json:
            raise
        path, bench, errors = Path(args.file), None, [{"message": str(exc)}]
    if not errors:
        return path, bench
    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "command": f"bench {args.bench_command}",
        "file": str(path),
        "ok": False,
        "errors": errors,
    }, indent=2))
    return path, None


def cmd_bench_run(args) -> int:
    path, bench = _parse_bench_file(args)
    if bench is None:
        return EXIT_USAGE
    compiled = dsl.compile_bench(bench)
    if args.input is not None:
        initial = _parse_input_ket(args.input, compiled.space)
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
        for pol, l, amp in output.components()
    ]
    dominant = max(amplitudes, key=lambda a: a["re"] ** 2 + a["im"] ** 2, default=None)
    measurement = None
    if compiled.measure == dsl.MEASURE_PBS:
        p_d1, p_d2 = deutsch.measure_pbs(output)
        measurement = {"kind": "pbs", "p_D1": p_d1, "p_D2": p_d2}
    elif compiled.measure == dsl.MEASURE_OAM_SORTER:
        probs = deutsch.measure_oam_superposition(output)
        measurement = {"kind": "oam_sorter", **probs._asdict()}
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
    _emit(args, document, _bench_run_text)
    return EXIT_OK


def _bench_run_text(document: dict) -> list[str]:
    """The `bench run` document as text: one line per amplitude, the rest as `key=value`."""
    output, measurement = document["output"], document["measurement"]
    lines = [f"file: {document['file']}", f"input: {document['input']}", "output amplitudes:"]
    lines += [f"  |{a['pol']},{a['l']:+d}>  {_fmt(a['re'])} {_fmt(a['im'])}j"
              for a in output["amplitudes"]]
    lines += [_pairs(output, "survival"), _pairs(output, "fidelity_vs_input")]
    if measurement is not None:
        ports = [key for key in measurement if key != "kind"]
        lines.append(f"measurement[{measurement['kind']}]: {_pairs(measurement, *ports)}")
    return lines


def cmd_bench_check(args) -> int:
    path, bench = _parse_bench_file(args)
    if bench is None:
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
    _emit(args, summary, lambda doc: [
        f"ok: {doc['file']} (l_max={doc['l_max']}, {doc['elements']} elements, "
        f"measure={doc['measure']})"
    ])
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
        for error in exc.errors:
            print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except SpinOrbitError as exc:
        print(f"spinorbit: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    except (_UnreadableBench, ValueError) as exc:
        print(f"spinorbit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
