"""The CLI's exit-code contract and its memory bound, run in-process.

`cli.main` must return 0, 1 (usage or bench syntax), 2 (physics or compile
error) or 3 (failed verification) for any argv, and never let an exception
or a traceback out.  Which of them each argv gets is worked out beside it
with the library.  At the largest truncation no subcommand may hold a dense
dim x dim array.
"""

import contextlib
import io
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spinorbit import SpinOrbitError, cli, compile_bench, deutsch, parse_with_errors
from spinorbit.logic import ORACLE_IDS
from spinorbit.state import MAX_L_MAX, MIN_L_MAX, apply_chain, basis_state
from spinorbit.verify import SUITES
from test_dsl import _grammar_texts

#: numbers at and past every bound: nan, the infinities, huge and negative
_WILD_NUMBERS = (
    "nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "-5", "0.5", "1", "2.5",
    str(2**63 - 1), str(2**63), str(10**30), str(-(2**63)), "1e30", "x", "",
)
#: mostly cheap truncations, plus the boundary cases around both limits
_LMAX = st.one_of(st.integers(0, 64), st.sampled_from((-1, 1000, 1001, 10**30)))


def _value(numbers):
    return st.one_of(numbers.map(str), st.sampled_from(_WILD_NUMBERS))


@st.composite
def _deutsch_argv(draw):
    argv = ["deutsch"]
    flags = {
        "--oracle": st.sampled_from(ORACLE_IDS + ("all", "parity")),
        "--eta": _value(st.floats(0.0, 1.0)),
        "--crosstalk": _value(st.floats(-0.5, 1.5)),
        "--shots": _value(st.integers(-10, 10**6)),
        "--seed": _value(st.integers(-10, 2**64)),
        "--measure": st.sampled_from(("pbs", "oam", "both")),
        "--lmax": _value(_LMAX),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        argv += [flag, draw(flags[flag])]
    switches = ("--realistic", "--json", "--verify")
    return argv + draw(st.lists(st.sampled_from(switches), unique=True))


@st.composite
def _bench_argv(draw, paths):
    argv = ["bench", draw(st.sampled_from(("run", "check", "lint")))]
    argv.append(draw(st.sampled_from((*paths, "identity.bench", "fig2_cnot_gate.bench",
                                      "missing.bench"))))
    if argv[1] == "run" and draw(st.booleans()):
        pol = draw(st.sampled_from(("L", "R", "H", "")))
        argv += ["--input", f"{pol},{draw(_value(_LMAX))}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@st.composite
def _verify_argv(draw):
    argv = ["verify", draw(st.sampled_from(sorted(SUITES) + ["everything"]))]
    if draw(st.booleans()):
        argv += ["--lmax", draw(_value(_LMAX))]
    return argv


def _expected_bench_code(args) -> int:
    """1 for an unreadable file, a syntax error or a bad --input, 2 for a bench
    that does not compile or (for run) whose chain fails, else 0."""
    corpus = Path("benches")
    if not corpus.is_dir():
        corpus = Path(str(resources.files("spinorbit") / "benches"))
    path = next((p for p in (Path(args.file), corpus / args.file) if p.is_file()), None)
    if path is None:
        return 1
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        return 1
    bench, errors = parse_with_errors(text)
    if errors:
        return 1
    try:
        compiled = compile_bench(bench)
        if args.bench_command == "check":
            return 0
        if args.input is None:
            initial = compiled.preparation.initial_state(compiled.space)
        else:
            parts = args.input.split(",")
            if len(parts) != 2 or parts[0] not in ("L", "R"):
                return 1
            try:
                l = int(parts[1])
            except ValueError:
                return 1
            initial = basis_state(compiled.space, parts[0], l)
        apply_chain(compiled.elements, initial)
    except SpinOrbitError:
        return 2
    return 0


def _expected_code(argv) -> int:
    """The exit code `cli.main(argv)` must give, worked out without running it."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli._build_parser().parse_args(argv)
    except SystemExit:
        return 1
    if args.command == "bench":
        return _expected_bench_code(args)
    if args.command == "deutsch":
        eta = args.eta if args.eta is not None else (0.97 if args.realistic else 1.0)
        if not (0.0 < eta <= 1.0 and 0.0 <= args.crosstalk <= 1.0 and args.seed >= 0
                and (args.shots is None or 0 <= args.shots <= deutsch.MAX_SHOTS)):
            return 1
    return 0 if MIN_L_MAX <= args.lmax <= MAX_L_MAX else 2


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    # an exception escaping main fails the test with it
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@given(data=st.data())
@example(data=None)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_keeps_its_exit_code_contract(tmp_path, data):
    path = tmp_path / "fuzz.bench"
    # neither a directory nor a file that is not UTF-8 is a bench
    (tmp_path / "dir.bench").mkdir(exist_ok=True)
    (tmp_path / "latin1.bench").write_bytes(b"lens # \xe9\n")
    paths = [str(tmp_path / name) for name in ("fuzz.bench", "dir.bench", "latin1.bench")]
    if data is None:
        # numpy's int64 multinomial cannot draw this many shots
        path.write_text("lens\n")
        argv = ["deutsch", "--oracle", "identity", "--shots", str(2**63)]
    else:
        path.write_text(data.draw(_grammar_texts(), label="bench text"))
        argv = data.draw(st.one_of(_deutsch_argv(), _bench_argv(paths), _verify_argv()),
                         label="argv")
    code, _, err = run_main(argv)
    assert code == _expected_code(argv), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


_CONTRACT_FILES = {
    "ok.bench": b"space lmax=6\nqplate q=1\nmeasure pbs\n",
    "syntax.bench": b"space lmax=6\nqplate\n",
    "overflow.bench": b"space lmax=4\nprepare hologram oam=+4\nqplate q=1\n",
    "latin1.bench": b"lens # \xe9\n",
}


@pytest.mark.parametrize(
    "argv,code",
    [
        (["bench", "run", "ok.bench"], 0),
        (["bench", "check", "ok.bench", "--json"], 0),
        (["bench", "run", "syntax.bench"], 1),
        (["bench", "check", "syntax.bench", "--json"], 1),
        (["bench", "run", "missing.bench"], 1),
        (["bench", "check", "."], 1),
        (["bench", "run", "latin1.bench"], 1),
        (["bench", "run", "ok.bench", "--input", "H,0"], 1),
        (["bench", "run", "ok.bench", "--input", "R,x"], 1),
        (["bench", "check", "overflow.bench"], 2),
        (["bench", "run", "overflow.bench", "--input", "H,0"], 2),
        (["bench", "run", "ok.bench", "--input", "R,+99"], 2),
        # the q-plate cannot shift the edge mode, so the chain fails on it
        (["bench", "run", "ok.bench", "--input", "L,+6"], 2),
        (["deutsch", "--eta", "1.5"], 1),
        (["deutsch", "--crosstalk", "-0.1"], 1),
        (["deutsch", "--shots", "-1"], 1),
        (["deutsch", "--seed", "-1"], 1),
        (["deutsch", "--eta", "0", "--lmax", "3"], 1),
        (["deutsch", "--lmax", "3"], 2),
        (["deutsch", "--lmax", "1001"], 2),
        (["deutsch", "--oracle", "zcnot", "--lmax", "4"], 0),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else f"exit {value}",
)
def test_each_failure_gets_its_exit_code(tmp_path, monkeypatch, argv, code):
    for name, content in _CONTRACT_FILES.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    assert _expected_code(argv) == code
    got, _, err = run_main(argv)
    assert got == code, err


_WIDE_BENCH = (
    "space lmax=1000\nprepare hologram oam=+2,-2\nhwp theta=0.3\nqplate q=1\nlens\n"
    "hwp theta=0 aperture=l0 crosstalk=0.3\nlens\nqplate q=1\ndove\nmeasure pbs\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["deutsch", "--lmax", "1000", "--shots", "100", "--crosstalk", "0.3"],
        ["bench", "run", "{path}"],
        ["bench", "check", "{path}"],
        *(["verify", suite, "--lmax", "1000"] for suite in sorted(SUITES)),
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_subcommands_at_the_largest_truncation_hold_no_dense_matrix(tmp_path, argv):
    path = tmp_path / "wide.bench"
    path.write_text(_WIDE_BENCH)
    argv = [arg.format(path=path) for arg in argv]
    dim = 2 * (2 * 1000 + 1)
    tracemalloc.start()
    try:
        code, _, err = run_main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    # a dense complex matrix would take 16 * dim**2 bytes
    assert peak < dim * dim, peak
