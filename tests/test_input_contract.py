"""The library's input contract, driven by one pinned table.

Every number-taking parameter of what `spinorbit` exports from `state`,
`elements`, `dsl`, `logic` and `deutsch` is listed in `TABLE` with the kind of
value it takes.  Hypothesis (MacIver, Hatfield-Dodds et al., JOSS 4(43), 1891,
2019) feeds each one the values its kind forbids: bools, NaN, +-inf, 1e308,
negatives, strings, None and complex numbers.  Each must raise a TypeError or
ValueError that names the parameter, or the SpinOrbitError its rule defines.
numpy copies of valid values must give the result the Python values give.
`reference` is left out: it is the independent cross-check.
"""

import dataclasses
import inspect
import math
import re
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest
from dense import dense
from hypothesis import assume, given, settings, strategies as st

import spinorbit
from spinorbit import (
    BenchFile,
    CompileError,
    DovePrismSpec,
    ElementOp,
    EncodingError,
    ModeSpace,
    PhotonState,
    Preparation,
    QPlateSpec,
    TruncationError,
    WaveplateSpec,
    apply,
    basis_state,
    build_oracle,
    classify,
    compile_bench,
    dove_prism,
    encode,
    expected_output,
    hwp,
    lens,
    logical_matrix,
    make_space,
    oracle_class,
    prepare_input,
    qplate,
    run,
    sample_counts,
)
from spinorbit.elements import APERTURE_L0

SPACE = make_space(6)
_AMPLITUDES = basis_state(SPACE, "L", 0).amplitudes

#: (exported callable, parameter, kind) for every parameter that takes a number
TABLE = (
    ("ModeSpace", "l_max", "l_max"),
    ("make_space", "l_max", "l_max"),
    ("PhotonState", "survival", "unit"),
    ("ElementOp", "survival_factor", "efficiency"),
    ("basis_state", "l", "oam"),
    ("QPlateSpec", "q", "charge"),
    ("QPlateSpec", "eta", "efficiency"),
    ("WaveplateSpec", "theta", "angle"),
    ("WaveplateSpec", "crosstalk", "unit"),
    ("DovePrismSpec", "angle", "zero"),
    ("BenchFile", "l_max", "l_max"),
    ("BenchFile", "hologram", "oams"),
    ("Preparation", "oams", "oams"),
    ("build_oracle", "eta", "efficiency"),
    ("build_oracle", "crosstalk", "unit"),
    ("encode", "bits", "bits"),
    ("classify", "p_balanced_port", "unit"),
    ("classify", "p_constant_port", "unit"),
    ("run", "eta", "efficiency"),
    ("run", "crosstalk", "unit"),
    ("run", "shots", "shots"),
    ("run", "seed", "seed"),
    ("run", "l_max", "l_max"),
    ("sample_counts", "probabilities", "weights"),
    ("sample_counts", "shots", "shots"),
    ("sample_counts", "seed", "seed"),
    ("ModeSpace.contains", "l", "oam"),
    ("ModeSpace.index", "l", "oam"),
    ("ModeSpace.basis_label", "index", "index"),
    ("PhotonState.amplitude", "l", "oam"),
)

#: exported result records: their number fields are outputs, never checked as input
RESULTS = {"OamSorterProbs", "ParseError", "RunReport", "ShotTally"}

#: each callable with one keyword set, and the SpinOrbitError its rule may raise
#: in place of naming the parameter (a BenchFile is checked by compile_bench)
CALLS = {
    "ModeSpace": (ModeSpace, None),
    "make_space": (make_space, None),
    "PhotonState": (lambda **kw: PhotonState(SPACE, _AMPLITUDES, **kw), None),
    "ElementOp": (lambda **kw: ElementOp(SPACE, **kw), None),
    "basis_state": (lambda **kw: basis_state(SPACE, "L", **kw), None),
    "QPlateSpec": (lambda **kw: QPlateSpec(**{"q": 1, **kw}), None),
    "WaveplateSpec": (lambda **kw: WaveplateSpec(**{"theta": 0.3, **kw}), None),
    "DovePrismSpec": (DovePrismSpec, None),
    "BenchFile": (lambda **kw: compile_bench(BenchFile(**kw)), CompileError),
    "Preparation": (Preparation, None),
    "build_oracle": (lambda **kw: build_oracle(SPACE, "cnot", **kw), None),
    "encode": (lambda **kw: encode(SPACE, **kw), EncodingError),
    "classify": (lambda **kw: classify(**{"p_balanced_port": 0.2, "p_constant_port": 0.8, **kw}),
                 None),
    "run": (lambda **kw: run("cnot", **kw), None),
    "sample_counts": (lambda **kw: sample_counts(**{"probabilities": [0.5, 0.5], "shots": 10,
                                                     "seed": 0, **kw}), None),
    "ModeSpace.contains": (SPACE.contains, None),
    "ModeSpace.index": (lambda **kw: SPACE.index("L", **kw), None),
    "ModeSpace.basis_label": (SPACE.basis_label, None),
    "PhotonState.amplitude": (lambda **kw: PhotonState(SPACE, _AMPLITUDES).amplitude("R", **kw),
                              None),
}


class Bad(NamedTuple):
    """The values a kind forbids: each listed one, and what the strategies draw."""

    values: tuple
    more: tuple = ()

    def strategy(self) -> st.SearchStrategy:
        return st.one_of(st.sampled_from(self.values), *self.more)


class Kind(NamedTuple):
    valid: st.SearchStrategy
    bad: Bad
    #: the SpinOrbitError the kind's own rule raises for a value out of range
    error: type | None = None
    #: how one value is placed in the argument (an entry of a sequence, or itself)
    wrap: Callable = lambda value: value


@dataclasses.dataclass(frozen=True)
class Whole:
    """A bad value passed as the whole argument of a sequence kind, not as an entry."""

    value: object


def _entry(place):
    """A `Kind.wrap` that passes a `Whole` as the argument and places any other value."""
    return lambda value: value.value if isinstance(value, Whole) else place(value)


_NOT_NUMBERS = (True, False, "x", "0.5", None, 1j, complex(0.5, 0.0), [0.5])
_NON_FINITE = (math.nan, math.inf, -math.inf)
_NEGATIVE = st.one_of(st.integers(max_value=-1),
                      st.floats(max_value=-1e-300, allow_infinity=False))
_ABOVE_1 = st.floats(min_value=1.000001, allow_nan=False, allow_infinity=False)
#: ints beyond the float range: a float rule must name its parameter, not overflow
_BEYOND_FLOAT = (10**400, -(10**400))
#: two weights, each valid, whose float sum overflows to inf
_OVERFLOWING_SUM = Whole([1e308, 1e308])


def _bad(*values, more=()):
    return Bad(values, more)


KINDS = {
    # in [0, 1]
    "unit": Kind(st.floats(0.0, 1.0),
                 _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, *_BEYOND_FLOAT,
                      more=(_NEGATIVE, _ABOVE_1))),
    # in (0, 1]
    "efficiency": Kind(st.floats(0.0, 1.0, exclude_min=True),
                       _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, *_BEYOND_FLOAT, 0.0,
                            more=(_NEGATIVE, _ABOVE_1))),
    # any finite angle whose double is finite: a negative angle is valid
    "angle": Kind(st.floats(-10.0, 10.0),
                  _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, *_BEYOND_FLOAT)),
    # the Dove prism's one orientation
    "zero": Kind(st.sampled_from((0, 0.0)),
                 _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, *_BEYOND_FLOAT, 0.5,
                      more=(_NEGATIVE,))),
    # a rational with 2q integral, from a number or a string: 1e308 and negatives are
    # valid charges (`qplate` checks the shift against the space)
    "charge": Kind(st.one_of(st.integers(-4, 4), st.integers(-8, 8).map(lambda n: n / 2)),
                   _bad(True, False, "x", "1/3", None, 1j, [1], *_NON_FINITE, 0.3)),
    # numpy's multinomial counts in int64
    "shots": Kind(st.integers(0, 10**6),
                  _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 2.0, 2**63, more=(_NEGATIVE,))),
    # any non-negative integer seeds a SeedSequence
    "seed": Kind(st.integers(0, 2**62), _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 2.0,
                                             more=(_NEGATIVE,))),
    "l_max": Kind(st.integers(4, 12), _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 6.0,
                                           more=(_NEGATIVE,)), TruncationError),
    # an OAM index: a negative one is valid
    "oam": Kind(st.integers(-4, 4), _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 2.0, 2.5)),
    # a basis index of SPACE; one out of range is an IndexError (test_state)
    "index": Kind(st.integers(0, SPACE.dimension - 1),
                  _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 2.0, 2.5)),
    "oams": Kind(st.integers(-4, 4),
                 _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 2.0, 2.5, Whole(5)),
                 wrap=_entry(lambda value: (value,))),
    "bits": Kind(st.sampled_from((0, 1)),
                 _bad(*_NOT_NUMBERS, *_NON_FINITE, 1e308, 1.0, 2, more=(_NEGATIVE,)),
                 EncodingError, wrap=lambda value: (value, 0)),
    # relative weights, divided by their sum: 1e308 is a valid weight, and one above
    # -1e-12 is a rounding error, taken as 0
    "weights": Kind(st.floats(0.0, 10.0),
                    _bad(*_NOT_NUMBERS, *_NON_FINITE, *_BEYOND_FLOAT, _OVERFLOWING_SUM,
                         Whole(0.5),
                         more=(st.integers(max_value=-1), st.floats(max_value=-1e-11))),
                    wrap=_entry(lambda value: [value, 0.5])),
}

_NUMBER = re.compile(r"\b(int|float)\b")


def _exported():
    """{name: callable} of what `spinorbit` exports from the five contract modules,
    with each public method of an exported class that is no result record as
    "Class.method"."""
    modules = {f"spinorbit.{name}" for name in ("state", "elements", "dsl", "logic", "deutsch")}
    exported = {name: obj for name, obj in vars(spinorbit).items()
                if callable(obj) and getattr(obj, "__module__", None) in modules}
    for name, obj in list(exported.items()):
        if inspect.isclass(obj) and name not in RESULTS:
            exported.update({f"{name}.{method}": fn for method, fn in vars(obj).items()
                             if callable(fn) and not method.startswith("_")})
    return exported


def test_the_table_covers_every_number_parameter():
    exported = _exported()
    listed = {(name, parameter) for name, parameter, _ in TABLE}
    annotated = set()
    for name, obj in exported.items():
        for parameter in inspect.signature(obj).parameters.values():
            # under `from __future__ import annotations` an annotation is a string
            if name not in RESULTS and _NUMBER.search(str(parameter.annotation)):
                annotated.add((name, parameter.name))
    assert annotated - listed == set()
    # and every row names a real parameter of an exported callable
    assert all(parameter in inspect.signature(exported[name]).parameters
               for name, parameter in listed)
    assert RESULTS <= set(exported) and set(CALLS) == {name for name, _, _ in TABLE}
    assert {kind for _, _, kind in TABLE} == set(KINDS)


def _optional(name: str, parameter: str) -> bool:
    return "None" in str(inspect.signature(_exported()[name]).parameters[parameter].annotation)


def _has_numpy_copy(value) -> bool:
    return type(value) is float or type(value) is int and -(2**63) <= value < 2**63


def _numpy_copy(value):
    return np.int64(value) if type(value) is int else np.float64(value)


def _assert_rejected(name: str, parameter: str, kind: Kind, value) -> None:
    argument = kind.wrap(value)
    call, call_error = CALLS[name]
    # a numpy warning on the way (an overflow, say) is no rejection
    with warnings.catch_warnings(), pytest.raises((TypeError, ValueError)) as info:
        warnings.simplefilter("error")
        call(**{parameter: argument})
    rule_errors = tuple(e for e in (kind.error, call_error) if e is not None)
    assert parameter in str(info.value) or isinstance(info.value, rule_errors), info.value


def _selects_a_default(name: str, parameter: str, kind: Kind, value) -> bool:
    # None selects the default of an optional parameter
    return kind.wrap(value) is None and _optional(name, parameter)


@given(row=st.sampled_from(TABLE), data=st.data())
@settings(max_examples=600, deadline=None)
def test_every_number_parameter_rejects_what_its_kind_forbids(row, data):
    name, parameter, kind_name = row
    kind = KINDS[kind_name]
    value = data.draw(kind.bad.strategy(), label=f"{name}({parameter}=...)")
    # numpy's copy of a bad number is as bad
    if _has_numpy_copy(value) and data.draw(st.booleans(), label="as a numpy scalar"):
        value = _numpy_copy(value)
    assume(not _selects_a_default(name, parameter, kind, value))
    _assert_rejected(name, parameter, kind, value)


@pytest.mark.parametrize("name, parameter, kind_name", TABLE)
def test_every_listed_bad_value_is_rejected(name, parameter, kind_name):
    # each listed value once, and its numpy copy, whatever the draws above hit
    kind = KINDS[kind_name]
    for value in kind.bad.values:
        copies = (value, _numpy_copy(value)) if _has_numpy_copy(value) else (value,)
        for copy in copies:
            if not _selects_a_default(name, parameter, kind, copy):
                _assert_rejected(name, parameter, kind, copy)


def _canonical(value):
    """A value comparable with ==: floats and arrays by bytes, ops by their dense view,
    records field by field."""
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ElementOp):
        lossy = value.survival_factor < 1
        return value.label, lossy, value.survival_factor, _canonical(dense(value))
    if isinstance(value, (tuple, list)):
        return tuple(map(_canonical, value))
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            _canonical(getattr(value, field.name)) for field in dataclasses.fields(value))
    return value


@given(row=st.sampled_from(TABLE), data=st.data())
@settings(max_examples=300, deadline=None)
def test_numpy_scalars_give_the_result_python_numbers_give(row, data):
    name, parameter, kind_name = row
    kind = KINDS[kind_name]
    value = data.draw(kind.valid, label=f"{name}({parameter}=...)")
    call, _ = CALLS[name]
    want = call(**{parameter: kind.wrap(value)})
    got = call(**{parameter: kind.wrap(_numpy_copy(value))})
    assert _canonical(got) == _canonical(want)


#: a few valid values of each kind that takes a float
FLOAT_VALUES = {
    "unit": (0.0, 0.3, 0.77, 1.0),
    "efficiency": (0.5, 0.97, 1.0),
    "angle": (0.0, 0.4, -1.3, 3.0),
    "zero": (0.0,),
    "charge": (0.5, -1.5, 2.0),
    "weights": (0.3, 2.5),
}
#: `CALLS`, where a value reaches bits only through a further call: a spec through its
#: factory (the waveplate's crosstalk through an l0 plate), a survival through `apply`
BIT_CALLS = {
    **{name: call for name, (call, _) in CALLS.items()},
    "PhotonState": lambda **kw: apply(ElementOp(SPACE, survival_factor=0.97),
                                      PhotonState(SPACE, _AMPLITUDES, **kw)),
    "ElementOp": lambda **kw: apply(ElementOp(SPACE, **kw),
                                    PhotonState(SPACE, _AMPLITUDES, survival=0.3)),
    "QPlateSpec": lambda **kw: qplate(SPACE, QPlateSpec(**{"q": 1, **kw})),
    "WaveplateSpec": lambda **kw: hwp(SPACE, WaveplateSpec(**{"theta": 0.3,
                                                              "aperture": APERTURE_L0, **kw})),
    "DovePrismSpec": lambda **kw: dove_prism(SPACE, DovePrismSpec(**kw)),
}


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
@pytest.mark.parametrize("name, parameter, kind_name",
                         [row for row in TABLE if row[2] in FLOAT_VALUES])
def test_numpy_floats_give_the_bits_of_the_python_float(name, parameter, kind_name, dtype):
    # a float16 or float32 is taken as the float of its value, never computed with in
    # its own precision (numpy 2 makes a Python complex times a float32 a complex64)
    kind, call = KINDS[kind_name], BIT_CALLS[name]
    for value in map(dtype, FLOAT_VALUES[kind_name]):
        want = call(**{parameter: kind.wrap(float(value))})
        got = call(**{parameter: kind.wrap(value)})
        assert _canonical(got) == _canonical(want), value


def test_each_input_has_one_rule():
    assert run("zcnot", l_max=np.int64(6)).to_dict() == run("zcnot", l_max=6).to_dict()
    assert QPlateSpec(np.int64(1)) == QPlateSpec(1)
    with pytest.raises(TypeError, match="^q must be a number, got NoneType$"):
        QPlateSpec(None)
    # run checks every argument before it builds, the seed also without shots
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        run("identity", seed=-1)
    with pytest.raises(ValueError, match="^conversion efficiency eta"):
        run("identity", eta=0.0, l_max=3)
    for lookup in (oracle_class, logical_matrix):
        with pytest.raises(ValueError, match="^unknown oracle 'bogus'"):
            lookup("bogus")


def test_a_basis_label_is_made_of_python_ints():
    # a bool is no index (it was taken as 1), and a numpy index gives a Python l
    label = SPACE.basis_label(np.int64(3))
    assert label == ("L", -3) and type(label[1]) is int
    with pytest.raises(TypeError, match="^index must be an integer, got True$"):
        SPACE.basis_label(True)
    with pytest.raises(TypeError, match="^l must be an integer, got True$"):
        SPACE.contains(True)


def test_a_non_sequence_names_its_parameter():
    # each is iterated; the error names the parameter, not `'int' object is not iterable`
    with pytest.raises(TypeError, match="^oams .*must be a sequence of integers, got int$"):
        Preparation("V", 5)
    with pytest.raises(CompileError, match="hologram"):
        compile_bench(BenchFile(hologram=5))
    with pytest.raises(TypeError, match="^probabilities must be a sequence of numbers, got float$"):
        sample_counts(0.5, 10, 0)


#: every exported callable or public method that takes a space, the space its one variable
SPACE_CALLS = {
    "PhotonState": lambda space: PhotonState(space, _AMPLITUDES),
    "ElementOp": lambda space: ElementOp(space, survival_factor=0.97),
    "basis_state": lambda space: basis_state(space, "R", -2),
    "qplate": lambda space: qplate(space, QPlateSpec(1)),
    "hwp": lambda space: hwp(space, WaveplateSpec(0.3, APERTURE_L0, 0.2)),
    "dove_prism": lambda space: dove_prism(space),
    "lens": lambda space: lens(space),
    "Preparation.initial_state": lambda space: Preparation("H", (1, -3)).initial_state(space),
    "prepare_input": lambda space: prepare_input(space),
    "expected_output": lambda space: expected_output(space, "zcnot"),
    "build_oracle": lambda space: build_oracle(space, "zcnot", eta=0.97, crosstalk=0.2),
    "encode": lambda space: encode(space, (1, 0)),
}
#: what a caller may pass by mistake for a space
_NOT_SPACES = (6, 6.0, None, "6", [6])


def test_the_space_table_covers_every_space_parameter():
    # a record that holds a space is an output, built from a checked one
    taking = set()
    for name, obj in _exported().items():
        methods = vars(obj).items() if inspect.isclass(obj) else ()
        for label, fn in [(name, obj)] + [(f"{name}.{m}", f) for m, f in methods
                                          if callable(f) and not m.startswith("_")]:
            if "space" in inspect.signature(fn).parameters:
                taking.add(label)
    assert taking - {"CompiledBench"} == set(SPACE_CALLS)


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{value!r}") for name in SPACE_CALLS
    for value in _NOT_SPACES])
def test_a_wrong_space_raises_a_type_error_naming_it(name, value):
    for _ in range(2):  # and again: nothing was cached
        with pytest.raises(TypeError, match=r"^space must be a ModeSpace, got \w+$"):
            SPACE_CALLS[name](value)


@pytest.mark.parametrize("name", SPACE_CALLS)
def test_a_space_built_directly_gives_the_memo_spaces_result(name):
    built = SPACE_CALLS[name](ModeSpace(6))
    assert _canonical(built) == _canonical(SPACE_CALLS[name](make_space(6)))
    assert _canonical(SPACE_CALLS[name](ModeSpace(6))) == _canonical(built)
