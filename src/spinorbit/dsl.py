"""Line-oriented text format describing an optical bench.

One statement per line; `#` starts a comment; blank lines are ignored.

    space lmax=<int>
    prepare polarizer <H|V>
    prepare hologram oam=<int>[,<int>...]
    qplate q=<rational> [eta=<float>]
    hwp theta=<float> [aperture=<all|l0>] [crosstalk=<float>]
    dove [angle=<float>]
    lens
    measure <pbs|oam_sorter>

`space`, the two `prepare` forms and `measure` may each appear at most once;
element statements may repeat and their order is the application order.
Rationals accept `p/q` or decimal form; 2q-integrality is checked on the
exact rational at compile time.  Floats are rendered with 17 significant
digits so render/parse round-trips are lossless.

An element's keys live in one place, its statement class: the class names its
`keyword`, its `keys` table {key: value-kind} in the order of its spec's
fields, and its `required` keys.  The parser, `render` and `_element_spec`
all read that declaration, so adding an element means one statement class
(a member of `ElementStmt`) plus one `_FACTORIES` entry.

Parsing is total: every invalid line yields exactly one positioned error and
parsing continues, so a single pass reports every problem in the file.
Compilation then runs the semantic checks.  The last builds the elements in
order and pushes the |pol, l> modes the light can occupy through each op: a
gather moves them by `source`, a 2x2 block entry above `GUARD_TOL` carries one
from its column to its row, and the first element that would push an occupied
mode outside the truncation is named.  So, as at run time, an `l0` waveplate
with crosstalk within ~6.4e-13 of 0 or 1 adds no mode; and an l_max above the
cap fails on the cap before any element is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import elements as el
from .errors import BenchParseError, CompileError, TruncationError
from .state import (
    DEFAULT_L_MAX,
    GUARD_TOL,
    LEFT,
    MIN_L_MAX,
    RIGHT,
    ElementOp,
    ModeSpace,
    PhotonState,
    _is_int,
    _mix,
    _require_int,
    _require_space,
    make_space,
)

MEASURE_PBS = "pbs"
MEASURE_OAM_SORTER = "oam_sorter"
MEASURE_KINDS = (MEASURE_PBS, MEASURE_OAM_SORTER)

#: most elements a bench may hold; checked before any is built.  At
#: `space lmax=1000` an element holds up to ~68 KB (a q-plate), so this bounds
#: a chain at ~17 MB
MAX_ELEMENTS = 256
#: largest .bench file the CLI reads; it reads at most one byte more
MAX_BENCH_BYTES = 1 << 20

_APERTURE_WORDS = {"all": el.APERTURE_FULL, "l0": el.APERTURE_L0}
_APERTURE_NAMES = {v: k for k, v in _APERTURE_WORDS.items()}


def _fmt(x: float) -> str:
    return format(x, ".17g")


#: how `_Element.render` prints each value-kind of an element key
_RENDERERS = {"rational": format, "float": _fmt, "aperture": _APERTURE_NAMES.__getitem__}


@dataclass(frozen=True)
class ParseError:
    line: int
    column: int
    message: str
    token: str

    def __str__(self) -> str:
        return f"line {self.line}, col {self.column}: {self.message} (got {self.token!r})"


class _Element:
    """Base of the element statements: `keyword`, `keys` and `required` drive parse and render."""

    keys: dict[str, str] = {}
    required: tuple[str, ...] = ()

    def render(self) -> str:
        words = [self.keyword]
        for key, kind in self.keys.items():
            value = getattr(self, key)
            # the dataclass leaves each default behind as a class attribute
            if key in self.required or value != getattr(type(self), key):
                words.append(f"{key}={_RENDERERS[kind](value)}")
        return " ".join(words)


@dataclass(frozen=True)
class QPlateStmt(_Element):
    q: Fraction
    eta: float = 1.0
    line: int = field(default=0, compare=False)

    keyword = "qplate"
    keys = {"q": "rational", "eta": "float"}
    required = ("q",)


@dataclass(frozen=True)
class HwpStmt(_Element):
    theta: float
    aperture: str = el.APERTURE_FULL
    crosstalk: float = 0.0
    line: int = field(default=0, compare=False)

    keyword = "hwp"
    keys = {"theta": "float", "aperture": "aperture", "crosstalk": "float"}
    required = ("theta",)


@dataclass(frozen=True)
class DoveStmt(_Element):
    angle: float = 0.0
    line: int = field(default=0, compare=False)

    keyword = "dove"
    keys = {"angle": "float"}


@dataclass(frozen=True)
class LensStmt(_Element):
    line: int = field(default=0, compare=False)

    keyword = "lens"


ElementStmt = QPlateStmt | HwpStmt | DoveStmt | LensStmt
_ELEMENT_STMTS = {stmt.keyword: stmt for stmt in ElementStmt.__args__}


@dataclass(frozen=True)
class BenchFile:
    """Parsed bench description; fields are None where the file omits a directive."""

    l_max: int | None = None
    polarizer: str | None = None
    hologram: tuple[int, ...] | None = None
    elements: tuple[ElementStmt, ...] = ()
    measure: str | None = None


# --- parsing ---------------------------------------------------------------


def _tokens(code: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", code)]


def _parse_float(value: str) -> float:
    out = float(value)
    if not math.isfinite(out):
        raise ValueError("non-finite")
    return out


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(part) for part in value.split(","))


def _parse_aperture(value: str) -> str:
    if value not in _APERTURE_WORDS:
        raise ValueError("bad aperture")
    return _APERTURE_WORDS[value]


_VALUE_PARSERS = {
    "int": int,
    "float": _parse_float,
    "rational": Fraction,
    "int list": _parse_int_list,
    "aperture": _parse_aperture,
}


class _LineError(Exception):
    def __init__(self, column: int, message: str, token: str):
        self.column = column
        self.message = message
        self.token = token


def _take_kv(
    tokens: list[tuple[str, int]],
    spec: dict[str, str],
    required: tuple[str, ...],
    keyword_col: int = 1,
) -> dict:
    """Parse `key=value` tokens against {key: value-kind}; raise on the first problem."""
    seen: dict = {}
    for token, col in tokens:
        key, sep, raw = token.partition("=")
        if not sep or not key:
            raise _LineError(col, "expected key=value", token)
        if key not in spec:
            raise _LineError(col, f"unknown key {key!r}", token)
        if key in seen:
            raise _LineError(col, f"duplicate key {key!r}", token)
        kind = spec[key]
        try:
            seen[key] = _VALUE_PARSERS[kind](raw)
        except (ValueError, ZeroDivisionError):
            raise _LineError(col, f"invalid {kind} for {key!r}", token) from None
    for key in required:
        if key not in seen:
            col = tokens[0][1] if tokens else keyword_col
            raise _LineError(col, f"missing required key {key!r}", key)
    return seen


def _parse_statement(tokens: list[tuple[str, int]], line: int):
    """(kind, value) of one statement: "element" and its statement, else the directive's name."""
    keyword, col = tokens[0]
    rest = tokens[1:]
    stmt = _ELEMENT_STMTS.get(keyword)
    if stmt is not None:
        if rest and not stmt.keys:
            raise _LineError(rest[0][1], f"{keyword} takes no parameters", rest[0][0])
        return "element", stmt(**_take_kv(rest, stmt.keys, stmt.required, col), line=line)
    if keyword == "space":
        values = _take_kv(rest, {"lmax": "int"}, ("lmax",), col)
        return "space", values["lmax"]
    if keyword == "prepare":
        if not rest:
            raise _LineError(col, "expected 'polarizer' or 'hologram'", keyword)
        sub, sub_col = rest[0]
        if sub == "polarizer":
            if len(rest) != 2 or rest[1][0] not in ("H", "V"):
                bad = rest[1] if len(rest) > 1 else (sub, sub_col)
                raise _LineError(bad[1], "expected polarizer axis 'H' or 'V'", bad[0])
            return "prepare polarizer", rest[1][0]
        if sub == "hologram":
            values = _take_kv(rest[1:], {"oam": "int list"}, ("oam",), sub_col)
            return "prepare hologram", values["oam"]
        raise _LineError(sub_col, "expected 'polarizer' or 'hologram'", sub)
    if keyword == "measure":
        if len(rest) != 1 or rest[0][0] not in MEASURE_KINDS:
            bad = rest[0] if rest else (keyword, col)
            raise _LineError(bad[1], "expected measurement 'pbs' or 'oam_sorter'", bad[0])
        return "measure", rest[0][0]
    raise _LineError(col, "unknown statement", keyword)


def parse_with_errors(text: str) -> tuple[BenchFile, list[ParseError]]:
    """Parse every line, collecting one positioned error per invalid line.

    Returns the bench assembled from the valid lines plus the error list, so
    diagnostics can show everything wrong with a file in one pass.
    """
    errors: list[ParseError] = []
    directives: dict = {}
    chain: list[ElementStmt] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        tokens = _tokens(code)
        if not tokens:
            continue
        try:
            kind, value = _parse_statement(tokens, lineno)
        except _LineError as exc:
            errors.append(ParseError(lineno, exc.column, exc.message, exc.token))
            continue
        if kind == "element":
            chain.append(value)
        elif kind in directives:
            token, col = tokens[0]
            errors.append(ParseError(lineno, col, f"duplicate '{kind}' directive", token))
        else:
            directives[kind] = value
    bench = BenchFile(
        l_max=directives.get("space"),
        polarizer=directives.get("prepare polarizer"),
        hologram=directives.get("prepare hologram"),
        elements=tuple(chain),
        measure=directives.get("measure"),
    )
    return bench, errors


def parse(text: str) -> BenchFile:
    """Parse a bench description; raises BenchParseError carrying every error."""
    bench, errors = parse_with_errors(text)
    if errors:
        raise BenchParseError(errors)
    return bench


def render(bench: BenchFile) -> str:
    """Canonical text form: space, prepare directives, elements, measure."""
    lines = []
    if bench.l_max is not None:
        lines.append(f"space lmax={bench.l_max}")
    if bench.polarizer is not None:
        lines.append(f"prepare polarizer {bench.polarizer}")
    if bench.hologram is not None:
        lines.append("prepare hologram oam=" + ",".join(f"{l:+d}" for l in bench.hologram))
    for stmt in bench.elements:
        lines.append(stmt.render())
    if bench.measure is not None:
        lines.append(f"measure {bench.measure}")
    return "\n".join(lines) + "\n"


# --- compilation -----------------------------------------------------------


@dataclass(frozen=True)
class Preparation:
    """Initial-state recipe: linear polarizer axis plus hologram OAM content."""

    axis: str = "V"
    oams: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "oams", tuple(self.oams))
        except TypeError:  # not a sequence; a bench file's `hologram` becomes oams
            raise TypeError(
                f"oams (the hologram's OAM values) must be a sequence of integers, "
                f"got {type(self.oams).__name__}"
            ) from None
        if self.axis not in ("H", "V"):
            raise ValueError(f"axis must be 'H' or 'V', got {self.axis!r}")
        if not self.oams:
            raise ValueError("hologram needs at least one OAM value")
        if not all(map(_is_int, self.oams)):
            raise TypeError(f"oams must be integers, got {self.oams!r}")
        if len(set(self.oams)) != len(self.oams):
            raise ValueError(f"hologram lists duplicate OAM values: {self.oams}")

    def initial_state(self, space: ModeSpace) -> PhotonState:
        """Polarization vector (in circular coordinates) tensor uniform OAM superposition.

        V preparation uses (|L> - |R>)/sqrt(2), i.e. i|V>, so prepared states
        carry the same overall phase the analytic input/output states use.
        """
        value = 1.0 / math.sqrt(2.0) * (1.0 / math.sqrt(len(self.oams)))
        amps = np.zeros(_require_space(space).dimension, dtype=complex)
        for l in self.oams:
            amps[space.index(LEFT, l)] = value
            amps[space.index(RIGHT, l)] = -value if self.axis == "V" else value
        return PhotonState(space, amps)


@dataclass(frozen=True, eq=False)
class CompiledBench:
    space: ModeSpace
    preparation: Preparation
    elements: tuple[ElementOp, ...]
    measure: str | None


def _element_name(index: int, stmt: ElementStmt) -> str:
    where = f" (line {stmt.line})" if stmt.line else ""
    return f"element {index} '{stmt.keyword}'{where}"


#: each keyword's factory, by its name in `elements` so that a wrapper bound there
#: is called, and what makes its spec from the statement's keys in order: the spec
#: class, or for a Dove prism the rule of its angle, which makes no spec
_FACTORIES = {
    "qplate": ("qplate", el.QPlateSpec),
    "hwp": ("hwp", el.WaveplateSpec),
    "dove": ("dove_prism", el._check_dove_angle),
    "lens": ("lens", None),
}


def _element_spec(stmt: ElementStmt) -> tuple:
    """(factory name, spec) of a statement; the spec is None for a lens or a Dove prism."""
    name, make = _FACTORIES[stmt.keyword]
    return name, make and make(*[getattr(stmt, key) for key in stmt.keys])


def compile_bench(bench: BenchFile) -> CompiledBench:
    """Semantic validation plus construction of the executable chain, on the
    truncation of the bench's `space lmax=` line (`DEFAULT_L_MAX` without one).

    An occupied mode leaves the truncation at an element whose input mask
    excludes it, or that moves it beyond `l_max` (below the space's l_max only
    under the `MIN_L_MAX` floor).  Only a q-plate moves l, by its shift.
    """
    if len(bench.elements) > MAX_ELEMENTS:
        raise CompileError(
            f"bench has {len(bench.elements)} elements; the limit is {MAX_ELEMENTS}"
        )
    l_max = bench.l_max if bench.l_max is not None else DEFAULT_L_MAX
    try:
        l_max = _require_int("l_max", l_max)
        prep = Preparation(
            axis=bench.polarizer if bench.polarizer is not None else "V",
            oams=bench.hologram if bench.hologram is not None else (0,),
        )
    except (TypeError, ValueError) as exc:
        raise CompileError(str(exc)) from exc
    for l in prep.oams:
        if abs(l) > l_max:
            raise CompileError(
                f"prepared OAM l={l:+d} exceeds the truncation |l| <= {l_max}"
            )
    # Validate element parameters before building, so range errors name elements.
    specs = []
    for index, stmt in enumerate(bench.elements, start=1):
        try:
            specs.append(_element_spec(stmt))
        except (TypeError, ValueError) as exc:
            raise CompileError(f"{_element_name(index, stmt)}: {exc}") from exc
    # an l_max above the cap fails here; one below the floor is checked on the
    # smallest space, where images beyond l_max leave too, then fails on the floor
    mode_space = make_space(max(l_max, MIN_L_MAX))
    n = mode_space.n_oam
    occupied = np.zeros((2, n), dtype=bool)
    occupied[:, np.add(prep.oams, mode_space.l_max)] = True
    occupied = occupied.ravel()
    beyond = abs(np.arange(2 * n) % n - mode_space.l_max) > l_max
    ops = []
    for index, (stmt, (name, spec)) in enumerate(zip(bench.elements, specs), start=1):
        try:
            op = el._build(mode_space, name, spec, f"{stmt.keyword}[{index}]")
        except TruncationError:  # a q-plate shift above 2 * l_max: every mode leaves
            leaving = occupied
        else:
            moved = occupied[op.source]
            mask = op.input_mask
            leaving = np.zeros(2 * n, dtype=bool) if mask is None else occupied & ~mask
            if l_max < mode_space.l_max:
                leaving[op.source[moved & beyond]] = True
        if np.count_nonzero(leaving):
            pol, l = mode_space.basis_label(int(leaving.argmax()))
            shift = spec.oam_shift
            target, flipped = (l + shift, RIGHT) if pol == LEFT else (l - shift, LEFT)
            raise CompileError(
                f"truncation overflow at {_element_name(index, stmt)}: "
                f"|{pol},{l:+d}> -> |{flipped},{target:+d}> leaves |l| <= {l_max}"
            )
        if op.blocks is not None:
            moved = _mix(np.abs(op.blocks) > GUARD_TOL, moved.reshape(2, n))
        occupied = moved.ravel()
        ops.append(op)
    if l_max < MIN_L_MAX:
        make_space(l_max)
    return CompiledBench(mode_space, prep, tuple(ops), bench.measure)
