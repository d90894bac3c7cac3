import dataclasses
import inspect
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from dense import dense
from hypothesis import given, settings, strategies as st

from spinorbit import (
    BenchFile,
    BenchParseError,
    CompileError,
    SpinOrbitError,
    apply_chain,
    compile_bench,
    fidelity_up_to_phase,
    make_space,
    measure_oam_superposition,
    measure_pbs,
    parse,
    parse_with_errors,
    prepare_input,
    render,
)
from spinorbit import dsl, elements as el
from spinorbit.dsl import DoveStmt, HwpStmt, LensStmt, Preparation, QPlateStmt
from spinorbit.state import DEFAULT_L_MAX

CORPUS = ["identity.bench", "not.bench", "cnot.bench", "zcnot.bench", "fig2_cnot_gate.bench"]


def corpus_text(name):
    return (resources.files("spinorbit") / "benches" / name).read_text(encoding="utf-8")


# --- parsing ---------------------------------------------------------------


def test_fig2_file_has_five_elements():
    bench = parse(corpus_text("fig2_cnot_gate.bench"))
    assert len(bench.elements) == 5
    kinds = [stmt.keyword for stmt in bench.elements]
    assert kinds == ["qplate", "lens", "hwp", "lens", "qplate"]
    assert bench.l_max == 4
    assert bench.measure == "pbs"


def test_rational_charge_decimal_form():
    bench = parse("qplate q=0.5\n")
    assert bench.elements[0].q == Fraction(1, 2)


def test_rational_charge_fraction_form():
    bench = parse("qplate q=-3/2 eta=0.9\n")
    assert bench.elements[0].q == Fraction(-3, 2)
    assert bench.elements[0].eta == 0.9


def test_malformed_float_reports_line_and_column():
    with pytest.raises(BenchParseError) as excinfo:
        parse("space lmax=6\nhwp theta=abc\n")
    (error,) = excinfo.value.errors
    assert error.line == 2
    assert error.column == 5
    assert error.token == "theta=abc"


def test_empty_value_is_an_error():
    _, errors = parse_with_errors("hwp theta=\n")
    assert len(errors) == 1
    assert "theta" in errors[0].message


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("warp factor=9", "unknown statement"),
        ("qplate", "missing required key 'q'"),
        ("qplate q=1 q=1", "duplicate key"),
        ("qplate q=1 spin=up", "unknown key"),
        ("qplate q=one", "invalid rational"),
        ("space lmax=6.5", "invalid int"),
        ("hwp theta=0 aperture=medium", "invalid aperture"),
        ("hwp theta=inf", "invalid float"),
        ("lens lens", "no parameters"),
        ("measure both", "expected measurement"),
        ("prepare polarizer D", "polarizer axis"),
        ("prepare hologram oam=2,,3", "invalid int list"),
        ("prepare lens", "expected 'polarizer' or 'hologram'"),
        ("prepare", "expected 'polarizer' or 'hologram'"),
    ],
)
def test_single_line_errors(line, fragment):
    _, errors = parse_with_errors(line + "\n")
    assert len(errors) == 1
    assert fragment in errors[0].message


def test_every_invalid_line_yields_exactly_one_error():
    text = "space lmax=abc\nhwp theta=x aperture=bogus\nqplate q=1 q=2 q=3\n"
    _, errors = parse_with_errors(text)
    assert [e.line for e in errors] == [1, 2, 3]


def test_valid_lines_after_invalid_are_still_parsed():
    text = "space lmax=oops\nqplate q=1\nmeasure pbs\n"
    bench, errors = parse_with_errors(text)
    assert len(errors) == 1 and errors[0].line == 1
    assert len(bench.elements) == 1
    assert bench.measure == "pbs"


def test_duplicate_directives_rejected():
    text = (
        "space lmax=6\nspace lmax=7\nmeasure pbs\n  measure oam_sorter\n"
        "prepare polarizer H\nprepare polarizer V\nprepare hologram oam=1\n"
        "prepare hologram oam=2\n"
    )
    bench, errors = parse_with_errors(text)
    assert [(e.line, e.column, e.message, e.token) for e in errors] == [
        (2, 1, "duplicate 'space' directive", "space"),
        (4, 3, "duplicate 'measure' directive", "measure"),
        (6, 1, "duplicate 'prepare polarizer' directive", "prepare"),
        (8, 1, "duplicate 'prepare hologram' directive", "prepare"),
    ]
    # the first of each directive holds
    assert (bench.l_max, bench.measure, bench.polarizer, bench.hologram) == (6, "pbs", "H", (1,))


def test_comments_and_blank_lines_skipped():
    bench = parse("# a comment\n\nlens  # trailing comment\n")
    assert len(bench.elements) == 1
    assert bench.l_max is None


def test_parse_raises_with_all_errors_attached():
    with pytest.raises(BenchParseError) as excinfo:
        parse("bogus\nalso bogus\n")
    assert len(excinfo.value.errors) == 2


# --- render / round-trip ------------------------------------------------------


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_round_trip(name):
    bench = parse(corpus_text(name))
    assert parse(render(bench)) == bench


def test_render_canonical_order():
    bench = parse("measure pbs\nlens\nspace lmax=6\nprepare polarizer V\n")
    text = render(bench)
    lines = text.strip().splitlines()
    assert lines == ["space lmax=6", "prepare polarizer V", "lens", "measure pbs"]


def test_render_float_precision_survives():
    stmt = HwpStmt(theta=math.pi / 3, crosstalk=0.0)
    bench = BenchFile(elements=(stmt,))
    again = parse(render(bench))
    assert again.elements[0].theta == math.pi / 3


_elements = st.one_of(
    st.builds(
        QPlateStmt,
        q=st.integers(min_value=-6, max_value=6).filter(bool).map(lambda n: Fraction(n, 2)),
        eta=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    ),
    st.builds(
        HwpStmt,
        theta=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        aperture=st.sampled_from(["full", "l0_only"]),
        crosstalk=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    st.builds(DoveStmt, angle=st.floats(allow_nan=False, allow_infinity=False)),
    st.builds(LensStmt),
)

_bench_files = st.builds(
    BenchFile,
    l_max=st.one_of(st.none(), st.integers(min_value=4, max_value=12)),
    polarizer=st.sampled_from([None, "H", "V"]),
    hologram=st.one_of(
        st.none(),
        st.lists(st.integers(min_value=-12, max_value=12), min_size=1, max_size=4,
                 unique=True).map(tuple),
    ),
    elements=st.lists(_elements, max_size=8).map(tuple),
    measure=st.sampled_from([None, "pbs", "oam_sorter"]),
)


@given(_bench_files)
@settings(max_examples=200)
def test_round_trip_generated_bench_files(bench):
    assert parse(render(bench)) == bench


# --- compile -------------------------------------------------------------------


def test_compile_fig2_at_lmax4():
    compiled = compile_bench(parse(corpus_text("fig2_cnot_gate.bench")))
    assert compiled.space.l_max == 4
    assert len(compiled.elements) == 5
    assert compiled.measure == "pbs"


def test_compile_fig2_at_lmax3_names_offending_element():
    # hand trace at lmax=3: the first q-plate takes the prepared |L,+2>
    # component to l=+4, which is already outside the truncation
    text = corpus_text("fig2_cnot_gate.bench").replace("lmax=4", "lmax=3")
    with pytest.raises(CompileError) as excinfo:
        compile_bench(parse(text))
    message = str(excinfo.value)
    assert "truncation overflow" in message
    assert "qplate" in message
    assert "l| <= 3" in message


def test_compile_empty_chain_is_identity_bench():
    compiled = compile_bench(parse("prepare polarizer V\nmeasure pbs\n"))
    assert compiled.elements == ()
    state = compiled.preparation.initial_state(compiled.space)
    out = apply_chain(compiled.elements, state)
    assert fidelity_up_to_phase(out, state) == 1.0


def test_compile_defaults_lmax6_and_l0_preparation():
    compiled = compile_bench(parse("lens\n"))
    assert compiled.space.l_max == 6
    assert compiled.preparation.axis == "V"
    assert compiled.preparation.oams == (0,)


_SHIFT_RULE = "2q must be an integer so the OAM shift stays on the integer lattice"


@pytest.mark.parametrize("bench,message", [
    pytest.param("qplate q=1/3\n", f"element 1 'qplate' (line 1): {_SHIFT_RULE}; got q=1/3",
                 id="2q"),
    pytest.param(BenchFile(elements=(QPlateStmt(Fraction(1, 3)),)),
                 f"element 1 'qplate': {_SHIFT_RULE}; got q=1/3", id="2q-no-line"),
    pytest.param("lens\nqplate q=1 eta=0\n",
                 "element 2 'qplate' (line 2): conversion efficiency eta must lie in (0, 1], got 0.0",
                 id="eta"),
    pytest.param("dove angle=0.3\n",
                 "element 1 'dove' (line 1): only a Dove prism at angle 0 is supported, got 0.3",
                 id="angle"),
    pytest.param("hwp theta=1e308\n",
                 "element 1 'hwp' (line 1): theta must be finite, and so must 2*theta; got 1e+308",
                 id="theta-non-finite"),
    pytest.param("hwp theta=0 aperture=l0 crosstalk=1.5\n",
                 "element 1 'hwp' (line 1): crosstalk must lie in [0, 1], got 1.5", id="crosstalk"),
    pytest.param("lens\nhwp theta=0 aperture=l0 crosstalk=-0.1\n",
                 "element 2 'hwp' (line 2): crosstalk must lie in [0, 1], got -0.1",
                 id="crosstalk-negative"),
    # the parser rejects a NaN; a BenchFile made in code can hold one
    pytest.param(BenchFile(elements=(HwpStmt(0.0, el.APERTURE_L0, math.nan),)),
                 "element 1 'hwp': crosstalk must lie in [0, 1], got nan", id="crosstalk-nan"),
    pytest.param("space lmax=4\nprepare hologram oam=+5\n",
                 "prepared OAM l=+5 exceeds the truncation |l| <= 4", id="hologram"),
    pytest.param("space lmax=1\nprepare hologram oam=+2\n",
                 "prepared OAM l=+2 exceeds the truncation |l| <= 1", id="hologram-below-floor"),
    pytest.param(BenchFile(elements=(LensStmt(),) * (dsl.MAX_ELEMENTS + 1)),
                 f"bench has {dsl.MAX_ELEMENTS + 1} elements; the limit is {dsl.MAX_ELEMENTS}",
                 id="length"),
])
def test_compile_errors_read_in_full(bench, message):
    with pytest.raises(CompileError) as excinfo:
        compile_bench(parse(bench) if isinstance(bench, str) else bench)
    assert type(excinfo.value) is CompileError
    assert str(excinfo.value) == message


def test_compile_names_a_code_built_field_of_the_wrong_type():
    # the parser never builds these fields; a BenchFile made in code can hold them
    with pytest.raises(CompileError, match=r"^oams must be integers, got \(2\.5,\)$"):
        compile_bench(BenchFile(hologram=(2.5,)))
    with pytest.raises(CompileError, match="^element 1 'hwp': theta must be a number, not a bool$"):
        compile_bench(BenchFile(elements=(HwpStmt(True),)))
    with pytest.raises(CompileError, match="^l_max must be an integer, got '6'$"):
        compile_bench(BenchFile(l_max="6"))


def test_compile_rejects_duplicate_hologram_values():
    with pytest.raises(CompileError, match="duplicate"):
        compile_bench(parse("prepare hologram oam=2,2\n"))


@pytest.mark.parametrize(
    "axis,oams,message",
    [
        ("X", (0,), "axis must be 'H' or 'V', got 'X'"),
        ("V", (2, 2), "hologram lists duplicate OAM values: (2, 2)"),
        ("V", (), "hologram needs at least one OAM value"),
    ],
)
def test_preparation_rejects_invalid_fields(axis, oams, message):
    with pytest.raises(ValueError) as excinfo:
        Preparation(axis, oams)
    assert str(excinfo.value) == message
    assert not isinstance(excinfo.value, SpinOrbitError)
    # compile_bench reports the same text as a compile error
    with pytest.raises(CompileError) as excinfo:
        compile_bench(BenchFile(polarizer=axis, hologram=oams))
    assert str(excinfo.value) == message


@pytest.mark.parametrize("oams", [(2.5,), (True,), (2, 2.0)])
def test_preparation_rejects_a_non_integer_oam(oams):
    with pytest.raises(TypeError, match="^oams must be integers"):
        Preparation("V", oams)


def test_preparation_stores_its_oams_as_a_tuple():
    assert Preparation("V", [2, -2]).oams == (2, -2)


# --- the element key tables -------------------------------------------------------

#: each statement class, what makes its spec (the spec class, or the Dove prism's rule,
#: which makes none), and one line that sets every key off its default (the Dove
#: prism's one angle is its default)
_ELEMENT_CASES = [
    pytest.param(QPlateStmt, el.QPlateSpec, "qplate q=-1/2 eta=0.5", id="qplate"),
    pytest.param(HwpStmt, el.WaveplateSpec, "hwp theta=0.25 aperture=l0 crosstalk=0.5", id="hwp"),
    pytest.param(DoveStmt, el._check_dove_angle, "dove", id="dove"),
    pytest.param(LensStmt, None, "lens", id="lens"),
]


@pytest.mark.parametrize("stmt,spec,line", _ELEMENT_CASES)
def test_key_table_matches_the_statement_and_its_spec(stmt, spec, line):
    fields = [f.name for f in dataclasses.fields(stmt)]
    assert fields == [*stmt.keys, "line"]
    assert list(stmt.keys) == (list(inspect.signature(spec).parameters) if spec else [])
    # the required keys are the fields without a default
    assert list(stmt.required) == [
        f.name for f in dataclasses.fields(stmt) if f.default is dataclasses.MISSING
    ]
    assert dsl._FACTORIES[stmt.keyword][1] is spec
    assert dsl._ELEMENT_STMTS[stmt.keyword] is stmt


def test_factories_are_called_through_the_elements_module(monkeypatch):
    # benchmarks/tracer.py times each factory by rebinding it in `elements`
    calls = []
    for name in ("qplate", "hwp", "dove_prism", "lens"):
        factory = getattr(el, name)
        monkeypatch.setattr(el, name, lambda *a, _f=factory, **k: calls.append(_f) or _f(*a, **k))
    compile_bench(parse("qplate q=1\nhwp theta=0\ndove\nlens\n"))
    assert [f.__name__ for f in calls] == ["qplate", "hwp", "dove_prism", "lens"]


@pytest.mark.parametrize("stmt,spec,line", _ELEMENT_CASES)
def test_each_element_keyword_parses_renders_and_builds(stmt, spec, line):
    bench = parse(f"space lmax=6\n{line}\n")
    (parsed,) = bench.elements
    assert type(parsed) is stmt and parsed.line == 2
    assert parsed.render() == line
    assert render(bench) == f"space lmax=6\n{line}\n"
    # the spec gets each key by position; by name it must be the same spec
    name, built = dsl._element_spec(parsed)
    expected = spec(**{key: getattr(parsed, key) for key in stmt.keys}) if spec else None
    assert (name, built) == (dsl._FACTORIES[stmt.keyword][0], expected)
    (op,) = compile_bench(bench).elements
    assert op.label == f"{stmt.keyword}[1]"


def test_compile_selective_hwp_crosstalk_widens_support():
    # at eps in (0,1) both polarizations survive on l != 0, so the second
    # q-plate sees |L,+4> and needs l_max >= 6
    text = (
        "space lmax=5\nprepare hologram oam=+2,-2\n"
        "qplate q=1\nhwp theta=0 aperture=l0 crosstalk=0.5\nqplate q=1\n"
    )
    with pytest.raises(CompileError, match="truncation overflow"):
        compile_bench(parse(text))
    assert compile_bench(parse(text.replace("lmax=5", "lmax=6"))) is not None


def test_compile_determinism():
    text = corpus_text("zcnot.bench")
    a = compile_bench(parse(text))
    b = compile_bench(parse(text))
    for op_a, op_b in zip(a.elements, b.elements):
        assert np.array_equal(dense(op_a), dense(op_b))


def test_prepared_state_matches_runner_input():
    compiled = compile_bench(parse(corpus_text("cnot.bench")))
    state = compiled.preparation.initial_state(compiled.space)
    expected = prepare_input(compiled.space)
    assert np.abs(state.amplitudes - expected.amplitudes).max() <= 1e-15


def test_preparation_uniform_hologram_weights(space):
    prep = Preparation(axis="H", oams=(0, 1, 2, 3))
    state = prep.initial_state(space)
    weight = 1.0 / math.sqrt(2.0) / 2.0  # pol component / sqrt(4 OAM values)
    for l in (0, 1, 2, 3):
        assert abs(abs(state.amplitude("L", l)) - weight) <= 1e-15


def test_compile_honours_explicit_space():
    # the bench's own `space` line sets the truncation; without one it is the default
    for l_max in (4, 6, 64):
        compiled = compile_bench(parse(f"space lmax={l_max}\nlens\n"))
        assert compiled.space is make_space(l_max)
    assert compile_bench(parse("lens\n")).space is make_space(DEFAULT_L_MAX)


# --- fuzzing the text pipeline ---------------------------------------------------

#: each statement's keys, the first required, with valid values and then values
#: at a bound or malformed; key "" is a bare word
_FUZZ_GRAMMAR = {
    "space": {"lmax": (("4", "6", "12"), ("1000", "1001", "3", "-1", "1e23", "9" * 20))},
    "prepare hologram": {"oam": (("0", "+2,-2", "-6,6", "1,2,3"), ("2,2", "7", "10000", ","))},
    "qplate": {
        "q": (("1", "-1", "1/2", "-3/2", "2", "0.5"), ("0", "1/3", "1e400", "1/0", "x")),
        "eta": (("1", "0.97", "0.5"), ("0", "1.5", "nan", "inf", "1e-320")),
    },
    "hwp": {
        "theta": (("0", "0.3", "-3.14159"), ("1e308", "nan", "-inf")),
        "aperture": (("all", "l0"), ("x",)),
        "crosstalk": (("0", "0.3", "1"), ("1.5", "-0.1", "nan")),
    },
    "dove": {"angle": (("0",), ("0.1", "inf"))},
    "lens": {},
    "prepare polarizer": {"": (("H", "V"), ("D",))},
    "measure": {"": (("pbs", "oam_sorter"), ("x",))},
}
_FUZZ_DIRECTIVES = ("space", "prepare hologram", "prepare polarizer", "measure")


@st.composite
def _grammar_line(draw, keyword):
    """One statement line, mostly well formed: about one draw in sixteen goes wrong."""
    spec = _FUZZ_GRAMMAR[keyword]
    required = next(iter(spec), None)
    tokens = []
    for key in draw(st.permutations(list(spec))):
        if draw(st.integers(0, 15 if key == required else 1)) == 0:
            continue
        valid, edge = spec[key]
        value = draw(st.sampled_from(edge if draw(st.integers(0, 15)) == 0 else valid))
        tokens.append(f"{key}={value}" if key else value)
    if draw(st.integers(0, 15)) == 0:
        tokens.append(draw(st.sampled_from(("=", "q=", "=1", "#", "lens"))))
    return " ".join((keyword, *tokens))


@st.composite
def _grammar_texts(draw):
    """Each directive at most once plus up to six elements, in any order."""
    keywords = draw(st.lists(st.sampled_from(_FUZZ_DIRECTIVES), unique=True))
    keywords += draw(
        st.lists(st.sampled_from([k for k in _FUZZ_GRAMMAR if k not in _FUZZ_DIRECTIVES]),
                 max_size=6)
    )
    lines = [draw(_grammar_line(keyword)) for keyword in keywords]
    return "\n".join(draw(st.permutations(lines)))


@given(st.one_of(st.text(), _grammar_texts()))
@settings(max_examples=300, deadline=None)
def test_text_pipeline_raises_only_bench_errors(text):
    """Any text, run as `bench run` runs it, fails only with a bench error."""
    try:
        bench, errors = parse_with_errors(text)
        if errors:
            raise BenchParseError(errors)
        compiled = compile_bench(bench)
        output = apply_chain(
            compiled.elements, compiled.preparation.initial_state(compiled.space)
        )
        p_d1, p_d2 = measure_pbs(output)
        sorter = measure_oam_superposition(output)
    except (BenchParseError, SpinOrbitError):
        return
    assert abs(p_d1 + p_d2 - 1.0) <= 1e-9
    assert 0.0 <= sorter.residual <= 1.0
