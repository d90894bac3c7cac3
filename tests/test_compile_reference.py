"""`compile_bench` against the independent propagator of the benchmark harness.

`benchmarks/propagator.py` restates each element from the README's
conventions on a dict of (pol, l) amplitudes and shares no code with
`spinorbit`.  It keeps every mode that some path reaches, so it decides
truncation overflow as well as amplitudes.  Two differential tests run the
text pipeline (parse, compile, apply) against it:

* every chain of at most three statements over a fixed alphabet of ten, under
  two preparations, at l_max 3 and 4 (the small-scope hypothesis: Jackson,
  "Software Abstractions", MIT Press, 2006);
* seeded benches of up to 20 elements from `benchmarks/benchtext.py`, which
  asks the propagator, never the compiler, which benches stay inside the
  truncation and at which element the others overflow.

An overflow must name the propagator's element, its file line and the first
mode that leaves (L before R, l ascending).  Below the l_max floor a chain
that does not overflow must fail on the floor.  Any other bench must compile,
with amplitudes within 1e-12 of the propagator's (so no weight above 1e-12
outside its modes) and the same survival.  Two deliberate differences are
pinned by their own tests below:

(a) an `l0` waveplate whose crossed (or diagonal) entry is at most GUARD_TOL
    adds no mode, as the runtime guard ignores such amplitudes too, while the
    propagator follows every path whose coefficient is not exactly zero;
(b) an l_max above the cap fails on the cap before any overflow analysis.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import benchtext
import numpy as np
import propagator as prop
import pytest

from spinorbit import CompileError, TruncationError, apply_chain, compile_bench, parse
from spinorbit.state import MIN_L_MAX

# --- the comparison -------------------------------------------------------------


def _overflow_text(support, element, index, line, l_max):
    """The compiler's overflow message for the first mode of `support` that the
    q-plate `element` moves beyond l_max."""
    shift = int(2 * element[1])
    for pol, l in sorted(support):
        target = l + shift if pol == "L" else l - shift
        if abs(target) > l_max:
            return (
                f"truncation overflow at element {index} 'qplate' (line {line}): "
                f"|{pol},{l:+d}> -> |{prop.FLIP[pol]},{target:+d}> leaves |l| <= {l_max}"
            )
    raise AssertionError("the propagator overflowed, yet no mode leaves")


def _floor_text(l_max):
    return (
        f"l_max={l_max} is below the minimum {MIN_L_MAX}; the composite CNOT bench "
        f"reaches intermediate OAM +/-4"
    )


def assert_agrees(text, l_max, axis, oams, chain, first_line):
    """Run `text` through the pipeline and check it against the propagator, which
    runs `chain` from (axis, oams) at l_max; element 1 is on file line `first_line`.

    Returns what both made of it: ("overflow", element index, line), "floor" or
    "state".
    """
    start = prop.prepare(axis, oams)
    try:
        want, survival = prop.propagate(start, chain, l_max)
    except prop.Overflow as exc:
        support, _ = prop.propagate(start, chain[: exc.index - 1], l_max)
        line = first_line + exc.index - 1
        expected = (CompileError, _overflow_text(support, chain[exc.index - 1], exc.index,
                                                 line, l_max))
        kind = ("overflow", exc.index, line)
    else:
        expected = (TruncationError, _floor_text(l_max)) if l_max < MIN_L_MAX else None
        kind = "floor" if expected else "state"
    try:
        compiled = compile_bench(parse(text))
    except Exception as exc:  # the type is part of what is compared
        assert (type(exc), str(exc)) == expected, text
        return kind
    assert expected is None, text
    out = apply_chain(compiled.elements, compiled.preparation.initial_state(compiled.space))
    # the documented basis order: index(pol, l) = pol_index * (2 l_max + 1) + l + l_max
    n_oam = 2 * l_max + 1
    reference = np.zeros_like(out.amplitudes)
    for (pol, l), amp in want.items():
        reference["LR".index(pol) * n_oam + l + l_max] = amp
    # the reference is 0 off the propagator's modes, so this bounds any weight there too
    assert np.abs(out.amplitudes - reference).max() <= 1e-12, text
    assert out.survival == survival, text
    return kind


# --- every chain of up to three statements ----------------------------------------

#: (statement, the propagator's element): each q-plate shift, each waveplate kind,
#: the retarder at both ends of its crosstalk range and inside it, the Dove prism
ALPHABET = (
    ("qplate q=1", ("qplate", Fraction(1), 1.0)),
    ("qplate q=-1 eta=0.9", ("qplate", Fraction(-1), 0.9)),
    ("qplate q=1/2", ("qplate", Fraction(1, 2), 1.0)),
    ("qplate q=3/2 eta=0.97", ("qplate", Fraction(3, 2), 0.97)),
    ("hwp theta=0.3", ("hwp", 0.3)),
    ("hwp theta=0 aperture=l0", ("hwp_l0", 0.0, 0.0)),
    ("hwp theta=0.7 aperture=l0 crosstalk=0.3", ("hwp_l0", 0.7, 0.3)),
    ("hwp theta=-0.2 aperture=l0 crosstalk=1", ("hwp_l0", -0.2, 1.0)),
    ("dove", ("dove",)),
    ("lens", ("lens",)),
)
#: the paper's probe, and an H preparation off the q-plates' symmetric lattice
PREPARATIONS = (("V", (2, -2)), ("H", (0, 1)))


@pytest.mark.parametrize("l_max", [MIN_L_MAX - 1, MIN_L_MAX])
def test_every_chain_of_up_to_three_statements_matches_the_propagator(l_max):
    outcomes = Counter()
    for axis, oams in PREPARATIONS:
        header = [f"space lmax={l_max}", f"prepare polarizer {axis}",
                  "prepare hologram oam=" + ",".join(f"{l:+d}" for l in oams)]
        for n in range(4):
            for statements in itertools.product(ALPHABET, repeat=n):
                text = "\n".join(header + [line for line, _ in statements]) + "\n"
                chain = [element for _, element in statements]
                kind = assert_agrees(text, l_max, axis, oams, chain, len(header) + 1)
                outcomes[kind if isinstance(kind, str) else kind[0]] += 1
    assert sum(outcomes.values()) == 2 * (1 + 10 + 100 + 1000)
    assert set(outcomes) == {"overflow", "floor" if l_max < MIN_L_MAX else "state"}, outcomes


# --- seeded benches of up to 20 elements -------------------------------------------


def test_seeded_benches_match_the_propagator():
    rng = random.Random(20261020)
    roles = Counter()
    # 600 draws at l_max 4-12, then 100 below the floor, where the compiler's
    # `beyond` mask decides what leaves
    for draw in range(700):
        role = rng.choice(("valid", "valid", "overflow"))
        l_max = rng.randint(4, 12) if draw < 600 else MIN_L_MAX - 1
        bench = benchtext.generate(role, l_max, rng.randint(2, 20), rng)
        # the last line is `measure`, and the elements are the lines before it
        first_line = len(bench.text.splitlines()) - len(bench.chain)
        kind = assert_agrees(bench.text, l_max, bench.axis, bench.oams, bench.chain, first_line)
        if role == "overflow":
            assert kind == ("overflow", *bench.overflow_at), bench.text
        else:
            assert kind == ("state" if l_max >= MIN_L_MAX else "floor"), bench.text
        roles[role] += 1
    assert roles["valid"] > 400 and roles["overflow"] > 150, roles


# benchtext writes every directive, and the seeded test above draws no empty chain
@pytest.mark.parametrize("text, l_max, axis, oams, chain", [
    pytest.param("qplate q=1\nhwp theta=0.3 aperture=l0 crosstalk=0.5\nqplate q=-1\n",
                 6, "V", (0,),
                 [("qplate", Fraction(1), 1.0), ("hwp_l0", 0.3, 0.5),
                  ("qplate", Fraction(-1), 1.0)], id="no-directives"),
    pytest.param("space lmax=5\nprepare polarizer H\nprepare hologram oam=+1,-3\nmeasure pbs\n",
                 5, "H", (1, -3), [], id="empty-chain"),
])
def test_defaults_and_an_empty_chain_match_the_propagator(text, l_max, axis, oams, chain):
    assert assert_agrees(text, l_max, axis, oams, chain, 1) == "state"


def test_the_propagator_gives_the_papers_four_outputs():
    prop.self_test()


# --- the two differences, pinned -------------------------------------------------

_CROSSTALK_TEXT = (
    "space lmax=5\nprepare hologram oam=+2,-2\n"
    "qplate q=1\nhwp theta=0 aperture=l0 crosstalk={eps}\nqplate q={q}\n"
)


def _crosstalk_chain(eps, q):
    return [("qplate", Fraction(1), 1.0), ("hwp_l0", 0.0, float(eps)),
            ("qplate", Fraction(q), 1.0)]


@pytest.mark.parametrize("eps,q", [("1e-13", "1"), ("0.99999999999990008", "-1")])
def test_difference_a_crossed_entry_below_guard_tol_adds_no_mode(eps, q):
    # the propagator follows the ~1e-13 path to |L,+-4>, which the q-plate moves out
    with pytest.raises(prop.Overflow) as excinfo:
        prop.propagate(prop.prepare("V", (2, -2)), _crosstalk_chain(eps, q), 5)
    assert excinfo.value.index == 3
    compiled = compile_bench(parse(_CROSSTALK_TEXT.format(eps=eps, q=q)))
    # the runtime guard lets the ~1e-13 leaked amplitude through as well
    apply_chain(compiled.elements, compiled.preparation.initial_state(compiled.space))


@pytest.mark.parametrize("eps,q", [("1e-11", "1"), ("0.99999999999", "-1")])
def test_crossed_entry_above_guard_tol_still_widens(eps, q):
    text = _CROSSTALK_TEXT.format(eps=eps, q=q)
    kind = assert_agrees(text, 5, "V", (2, -2), _crosstalk_chain(eps, q), 3)
    assert kind == ("overflow", 3, 5)


def test_difference_b_lmax_above_the_cap_fails_on_the_cap():
    with pytest.raises(prop.Overflow):
        prop.propagate(prop.prepare("V", (0,)), [("qplate", Fraction(1000), 1.0)], 1001)
    with pytest.raises(TruncationError) as excinfo:
        compile_bench(parse("space lmax=1001\nprepare hologram oam=0\nqplate q=1000\n"))
    assert str(excinfo.value) == "l_max=1001 is above the maximum 1000"


# --- texts that keep the earlier wording exactly --------------------------------------


def _compile_error(text):
    with pytest.raises(CompileError) as excinfo:
        compile_bench(parse(text))
    return str(excinfo.value)


def test_fig2_below_the_lmax_floor_names_the_first_qplate():
    text = (resources.files("spinorbit") / "benches" / "fig2_cnot_gate.bench").read_text()
    assert _compile_error(text.replace("lmax=4", "lmax=3")) == (
        "truncation overflow at element 1 'qplate' (line 5): |L,+2> -> |R,+4> "
        "leaves |l| <= 3"
    )


def test_lmax_floor_error_follows_a_clean_trace():
    with pytest.raises(TruncationError) as excinfo:
        compile_bench(parse("space lmax=2\nprepare hologram oam=-1\nhwp theta=0\ndove\n"))
    assert str(excinfo.value) == _floor_text(2)


def test_qplate_shift_beyond_twice_lmax_is_an_overflow():
    text = "space lmax=4\nprepare hologram oam=0\nlens\nqplate q=1\nqplate q=7\n"
    assert _compile_error(text) == (
        "truncation overflow at element 3 'qplate' (line 5): |L,-2> -> |R,+12> "
        "leaves |l| <= 4"
    )


def test_overflow_names_element_index_and_file_line():
    # comments and blank lines make the file line differ from the element index;
    # the q-plate after the overflow would not even build
    text = (
        "# overflow\nspace lmax=5\nprepare polarizer H\n\nprepare hologram oam=-1,2\n"
        "hwp theta=0.5\ndove\n# next: the overflow\nqplate q=5/2\nlens\nqplate q=9\n"
        "measure pbs\n"
    )
    message = _compile_error(text)
    assert "element 3 'qplate' (line 9)" in message
    assert message == (
        "truncation overflow at element 3 'qplate' (line 9): |L,+1> -> |R,+6> "
        "leaves |l| <= 5"
    )
