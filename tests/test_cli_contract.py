"""The CLI's exit-code contract and its memory bound, run in-process.

`cli.main` must return 0, 1 (usage or bench syntax), 2 (physics or compile
error) or 3 (failed verification) for any argv, and never let an exception
or a traceback out.  At the largest truncation no subcommand may hold a
dense dim x dim array.
"""

import contextlib
import io
import tracemalloc

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spinorbit import cli
from spinorbit.logic import ORACLE_IDS
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
def _bench_argv(draw, path):
    argv = ["bench", draw(st.sampled_from(("run", "check", "lint")))]
    argv.append(draw(st.sampled_from((path, "identity.bench", "fig2_cnot_gate.bench",
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
    if data is None:
        # numpy's int64 multinomial cannot draw this many shots
        path.write_text("lens\n")
        argv = ["deutsch", "--oracle", "identity", "--shots", str(2**63)]
    else:
        path.write_text(data.draw(_grammar_texts(), label="bench text"))
        argv = data.draw(st.one_of(_deutsch_argv(), _bench_argv(str(path)), _verify_argv()),
                         label="argv")
    code, _, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)


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
