"""`compile_bench`'s truncation check against the symbolic trace it replaced.

The compiler builds each element and pushes a boolean occupancy vector
through the built op.  The reference below is the earlier compiler: the same
checks, then a symbolic trace that restates each element's action on Python
sets of (pol, l) modes, then the build.  Both must give the same exception
type and text, or byte-equal ops, on every seeded bench, apart from two
deliberate differences, each pinned by its own test below:

(a) an `l0` waveplate whose crossed entry is at most GUARD_TOL no longer adds
    the flipped mode, as the runtime guard ignores such amplitudes too;
(b) an l_max above the cap fails on the cap before any overflow analysis.
"""

import cmath
import dataclasses
import math
import random
from fractions import Fraction
from importlib import resources

import pytest

from spinorbit import CompileError, TruncationError, apply_chain, compile_bench, parse
from spinorbit import elements as el
from spinorbit.dsl import (
    MAX_ELEMENTS,
    BenchFile,
    DoveStmt,
    HwpStmt,
    LensStmt,
    Preparation,
    QPlateStmt,
)
from spinorbit.state import DEFAULT_L_MAX, GUARD_TOL, LEFT, MAX_L_MAX, RIGHT, make_space

# --- the reference -------------------------------------------------------------


def _name(index, stmt):
    where = f" (line {stmt.line})" if stmt.line else ""
    return f"element {index} '{stmt.keyword}'{where}"


def reference_trace_support(bench, prep, l_max):
    """Symbolically propagate the set of occupiable |pol, l> modes through the chain.

    Raises CompileError naming the first element whose action would move an
    occupiable mode outside |l| <= l_max.
    """
    support = {(pol, l) for pol in (LEFT, RIGHT) for l in prep.oams}
    for index, stmt in enumerate(bench.elements, start=1):
        if isinstance(stmt, QPlateStmt):
            shift = int(2 * stmt.q)
            new_support = set()
            for pol, l in sorted(support):
                target = l + shift if pol == LEFT else l - shift
                flipped = RIGHT if pol == LEFT else LEFT
                if abs(target) > l_max:
                    raise CompileError(
                        f"truncation overflow at {_name(index, stmt)}: "
                        f"|{pol},{l:+d}> -> |{flipped},{target:+d}> leaves "
                        f"|l| <= {l_max}"
                    )
                new_support.add((flipped, target))
            support = new_support
        elif isinstance(stmt, HwpStmt):
            new_support = set()
            for pol, l in support:
                flipped = RIGHT if pol == LEFT else LEFT
                if stmt.aperture == el.APERTURE_FULL or l == 0:
                    new_support.add((flipped, l))
                elif stmt.crosstalk == 0.0:
                    new_support.add((pol, l))
                elif stmt.crosstalk == 1.0:
                    new_support.add((flipped, l))
                else:
                    new_support.add((pol, l))
                    new_support.add((flipped, l))
            support = new_support
        elif isinstance(stmt, DoveStmt):
            support = {(pol, -l) for pol, l in support}
        # lens: no effect on mode content


def reference_compile(bench, traced=None):
    """The earlier compile_bench's ops; the trace runs on `traced` if given."""
    if len(bench.elements) > MAX_ELEMENTS:
        raise CompileError(
            f"bench has {len(bench.elements)} elements; the limit is {MAX_ELEMENTS}"
        )
    l_max = bench.l_max if bench.l_max is not None else DEFAULT_L_MAX
    # checked here, before Preparation, which rejects the same holograms itself
    oams = bench.hologram if bench.hologram is not None else (0,)
    if not oams:
        raise CompileError("hologram needs at least one OAM value")
    if len(set(oams)) != len(oams):
        raise CompileError(f"hologram lists duplicate OAM values: {oams}")
    prep = Preparation(axis=bench.polarizer if bench.polarizer is not None else "V", oams=oams)
    for l in prep.oams:
        if abs(l) > l_max:
            raise CompileError(
                f"prepared OAM l={l:+d} exceeds the truncation |l| <= {l_max}"
            )
    specs = []
    for index, stmt in enumerate(bench.elements, start=1):
        try:
            if isinstance(stmt, QPlateStmt):
                specs.append(el.QPlateSpec(stmt.q, stmt.eta))
            elif isinstance(stmt, HwpStmt):
                specs.append(el.WaveplateSpec(stmt.theta, stmt.aperture, stmt.crosstalk))
            elif isinstance(stmt, DoveStmt):
                specs.append(el.DovePrismSpec(stmt.angle))
            else:
                specs.append(None)
        except ValueError as exc:
            raise CompileError(f"{_name(index, stmt)}: {exc}") from exc
    reference_trace_support(traced or bench, prep, l_max)
    space = make_space(l_max)
    factories = {QPlateStmt: el.qplate, HwpStmt: el.hwp, DoveStmt: el.dove_prism}
    ops = []
    for index, (stmt, spec) in enumerate(zip(bench.elements, specs), start=1):
        label = f"{stmt.keyword}[{index}]"
        if spec is None:
            ops.append(el.lens(space, label=label))
        else:
            ops.append(factories[type(stmt)](space, spec, label=label))
    return tuple(ops)


def _bytes(array):
    return None if array is None else array.tobytes()


def outcome(compile_ops, bench):
    """(exception type, text), or each op's label, loss, survival and arrays."""
    try:
        ops = compile_ops(bench)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return tuple(
        (op.label, op.survival_factor < 1, op.survival_factor, _bytes(op.source),
         _bytes(op.blocks), _bytes(op.input_mask))
        for op in ops
    )


def compiled_ops(bench):
    return compile_bench(bench).elements


def guard_aware(bench):
    """The bench with each l0 waveplate whose crossed (or diagonal) retarder
    entry is at most GUARD_TOL traced as crosstalk 0 (or 1): difference (a)."""
    elements = []
    for stmt in bench.elements:
        if isinstance(stmt, HwpStmt) and stmt.aperture == el.APERTURE_L0:
            p = cmath.exp(1j * math.pi * stmt.crosstalk)
            if abs((1 - p) / 2) <= GUARD_TOL:
                stmt = dataclasses.replace(stmt, crosstalk=0.0)
            elif abs((1 + p) / 2) <= GUARD_TOL:
                stmt = dataclasses.replace(stmt, crosstalk=1.0)
        elements.append(stmt)
    return dataclasses.replace(bench, elements=tuple(elements))


# --- seeded benches ---------------------------------------------------------------

#: crosstalk values, including some within GUARD_TOL of 0 and 1 (difference a)
_CROSSTALKS = (0.0, 1.0, 0.3, 0.5, 1e-13, 1 - 1e-13, 5e-13, 2e-12)


def _pick(rng, common, rare, p_rare=0.03):
    return rng.choice(rare if rng.random() < p_rare else common)


def _random_element(rng):
    kind = rng.choice(("qplate", "qplate", "hwp", "hwp", "dove", "lens"))
    line = rng.choice((0, rng.randint(1, 40)))
    if kind == "qplate":
        # shifts up to 20, now and then one beyond any truncation, rarely 2q not integral
        n = rng.randint(-20, 20) if rng.random() < 0.93 else rng.randint(-2400, 2400)
        q = _pick(rng, (Fraction(n, 2),), (Fraction(1, 3),))
        return QPlateStmt(q, _pick(rng, (1.0, 1.0, 0.9, 0.5), (0.0, 1.5)), line=line)
    if kind == "hwp":
        aperture = rng.choice((el.APERTURE_FULL, el.APERTURE_L0, el.APERTURE_L0))
        crosstalk = _pick(rng, _CROSSTALKS + (rng.random(),), (1.5, -0.1, math.nan))
        return HwpStmt(rng.uniform(-4.0, 4.0), aperture, crosstalk, line=line)
    if kind == "dove":
        return DoveStmt(_pick(rng, (0.0,), (0.5,)), line=line)
    return LensStmt(line=line)


def random_bench(rng):
    l_max = rng.choice((None, 0, 1, 2, 3, *range(4, 13), 1001))
    span = min(DEFAULT_L_MAX if l_max is None else l_max, 12) + _pick(rng, (0,), (1,), 0.1)
    hologram = None
    if rng.random() < 0.8:
        hologram = tuple(rng.sample(range(-span, span + 1), min(rng.randint(1, 3), span + 1)))
        # rarely empty or with a repeated value
        hologram = _pick(rng, (hologram,), ((), hologram[:1] * 2))
    count = rng.randint(0, 8) if rng.random() < 0.995 else MAX_ELEMENTS + 1
    return BenchFile(
        l_max=l_max,
        polarizer=rng.choice((None, "H", "V")),
        hologram=hologram,
        elements=tuple(_random_element(rng) for _ in range(count)),
        measure=rng.choice((None, "pbs", "oam_sorter")),
    )


def test_compile_matches_the_symbolic_trace_on_seeded_benches():
    rng = random.Random(20261018)
    kinds = {"same": 0, "a": 0, "b": 0}
    for _ in range(2400):
        bench = random_bench(rng)
        got = outcome(compiled_ops, bench)
        want = outcome(reference_compile, bench)
        if got == want:
            kinds["same"] += 1
        elif bench.l_max is not None and bench.l_max > MAX_L_MAX:
            assert want[0] is CompileError and "truncation overflow" in want[1], bench
            assert got == (TruncationError, f"l_max={bench.l_max} is above the maximum 1000")
            kinds["b"] += 1
        else:
            traced = guard_aware(bench)
            assert traced != bench, bench
            assert got == outcome(lambda b: reference_compile(b, traced), bench), bench
            kinds["a"] += 1
    # the seeded set reaches both differences and mostly agrees outright
    assert kinds["a"] and kinds["b"] and kinds["same"] > 2000, kinds


# --- the two differences, pinned -------------------------------------------------

_CROSSTALK_TEXT = (
    "space lmax=5\nprepare hologram oam=+2,-2\n"
    "qplate q=1\nhwp theta=0 aperture=l0 crosstalk={eps}\nqplate q={q}\n"
)


@pytest.mark.parametrize("eps,q", [("1e-13", "1"), ("0.99999999999990008", "-1")])
def test_difference_a_crossed_entry_below_guard_tol_adds_no_mode(eps, q):
    bench = parse(_CROSSTALK_TEXT.format(eps=eps, q=q))
    with pytest.raises(CompileError, match="truncation overflow at element 3"):
        reference_compile(bench)
    compiled = compile_bench(bench)
    # the runtime guard lets the ~1e-13 leaked amplitude through as well
    apply_chain(compiled.elements, compiled.preparation.initial_state(compiled.space))


@pytest.mark.parametrize(
    "eps,q,ket",
    [("1e-11", "1", "|L,+4> -> |R,+6>"), ("0.99999999999", "-1", "|L,-4> -> |R,-6>")],
)
def test_crossed_entry_above_guard_tol_still_widens(eps, q, ket):
    bench = parse(_CROSSTALK_TEXT.format(eps=eps, q=q))
    with pytest.raises(CompileError) as excinfo:
        compile_bench(bench)
    assert str(excinfo.value) == (
        f"truncation overflow at element 3 'qplate' (line 5): {ket} leaves |l| <= 5"
    )
    assert outcome(compiled_ops, bench) == outcome(reference_compile, bench)


def test_difference_b_lmax_above_the_cap_fails_on_the_cap():
    bench = parse("space lmax=1001\nprepare hologram oam=0\nqplate q=1000\n")
    with pytest.raises(CompileError, match=r"\|L,\+0> -> \|R,\+2000> leaves \|l\| <= 1001"):
        reference_compile(bench)
    with pytest.raises(TruncationError) as excinfo:
        compile_bench(bench)
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
    with pytest.raises(TruncationError, match="l_max=2 is below the minimum 4"):
        compile_bench(parse("space lmax=2\nprepare hologram oam=-1\nhwp theta=0\ndove\n"))


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
