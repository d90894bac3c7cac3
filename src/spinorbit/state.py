"""Core types for a single photon carrying polarization and orbital angular momentum.

The joint Hilbert space is spanned by kets |pol, l> where pol is the circular
polarization (L or R) and l is the integer OAM index, truncated to |l| <= l_max.
Amplitude vectors use the fixed ordering

    index(pol, l) = pol_index * (2*l_max + 1) + (l + l_max)

with pol_index(L) = 0 and pol_index(R) = 1, so serialized vectors are
comparable across runs and implementations.

Linear polarizations are defined relative to the circular basis by

    |L> = (|H> + i|V>) / sqrt(2),    |R> = (|H> - i|V>) / sqrt(2)

which fixes the amplitude identities (|L> - |R>)/sqrt(2) = i|V> and
(|L> + |R>)/sqrt(2) = |H>.

Loss is heralded and scalar: a photon either traverses an element intact or is
lost entirely, so a lossy element keeps a unitary matrix and contributes a
survival factor < 1 instead of attenuating individual modes.

Every operator has one form, a gather of the mode vector followed by one 2x2
polarization block on every OAM index, or a second block in its place at
l = 0 (`ElementOp`; `_mix` applies that rule).  A chain of them is never
multiplied out: `compose` collects its factors and `apply` runs them in turn
in one pass (`apply_chain`), building one state.

`make_space` builds one `ModeSpace` per truncation and hands it to every later
caller (`_space`, memoized with `functools.lru_cache`); the space is frozen,
so a caller cannot tell it from a fresh one.  `_MEMO_SIZE` bounds the memos of
ops and states that `elements`, `deutsch` and `logic` keep.  Each public
function that takes a space checks it first (`_require_space`), so a wrong
type raises a TypeError that names `space`, before any memo lookup.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TruncationError

LEFT = "L"
RIGHT = "R"
POLARIZATIONS = (LEFT, RIGHT)

#: smallest truncation that keeps the composite CNOT bench representable
#: (its intermediate states reach OAM +/-4)
MIN_L_MAX = 4
#: largest truncation: dim is then 4002.  Every op, state and memo entry is
#: O(dim) (an element holds index arrays and at most two 2x2 blocks, a
#: `compose` result only its factors), so the cap bounds each of them
MAX_L_MAX = 1000
#: truncation used when a bench or a run names none
DEFAULT_L_MAX = 6

UNITARITY_TOL = 1e-12
#: amplitude magnitude above which a mode counts as occupied: by the guard of an
#: edge-of-truncation mode, and in `PhotonState.components`
GUARD_TOL = 1e-12

#: entries per memo of ops or states.  At l_max 1000 a state holds 4002
#: amplitudes, 64 KB, so a full memo of states holds 32 * 64 KB, 2 MB, at worst
_MEMO_SIZE = 32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: |H> and |V> written in circular (L, R) coordinates
H_CIRCULAR = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)
V_CIRCULAR = np.array([-1j * _INV_SQRT2, 1j * _INV_SQRT2], dtype=complex)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(name: str, value) -> int:
    if not _is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_numbers(**values) -> None:
    for name, value in values.items():
        if type(value) is float:  # the common case, without the ABC check below
            continue
        if isinstance(value, bool):  # it would pass every range check as 0 or 1
            raise TypeError(f"{name} must be a number, not a bool")
        if not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a number, got {type(value).__name__}")


def _check_l_max(l_max) -> int:
    """`l_max` as an int in [MIN_L_MAX, MAX_L_MAX]: the one rule of a truncation."""
    l_max = _require_int("l_max", l_max)
    if l_max < MIN_L_MAX:
        raise TruncationError(
            f"l_max={l_max} is below the minimum {MIN_L_MAX}; the "
            f"composite CNOT bench reaches intermediate OAM +/-4"
        )
    if l_max > MAX_L_MAX:
        raise TruncationError(f"l_max={l_max} is above the maximum {MAX_L_MAX}")
    return l_max


@dataclass(frozen=True)
class ModeSpace:
    """Truncated polarization (x) OAM space with the documented basis ordering;
    `n_oam` and `dimension` are stored once, and take no part in equality."""

    l_max: int
    n_oam: int = field(init=False, repr=False, compare=False)
    dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "l_max", _check_l_max(self.l_max))
        object.__setattr__(self, "n_oam", 2 * self.l_max + 1)
        object.__setattr__(self, "dimension", 2 * self.n_oam)

    def contains(self, l: int) -> bool:
        return -self.l_max <= _require_int("l", l) <= self.l_max

    def index(self, pol: str, l: int) -> int:
        if pol not in POLARIZATIONS:
            raise ValueError(f"polarization must be 'L' or 'R', got {pol!r}")
        if not _is_int(l):
            raise TypeError(f"l must be an integer, got {l!r}")
        if not -self.l_max <= l <= self.l_max:
            raise TruncationError(
                f"OAM index l={l:+d} outside truncation |l| <= {self.l_max}"
            )
        return POLARIZATIONS.index(pol) * self.n_oam + (l + self.l_max)

    def basis_label(self, index: int) -> tuple[str, int]:
        index = _require_int("index", index)
        if not 0 <= index < self.dimension:
            raise IndexError(f"basis index {index} out of range")
        pol, offset = divmod(index, self.n_oam)
        return POLARIZATIONS[pol], offset - self.l_max


def make_space(l_max: int) -> ModeSpace:
    """The truncated mode space; rejects l_max outside [4, 1000].  One space per
    l_max, built on first use and shared after."""
    return _space(_check_l_max(l_max))


# one entry per valid l_max, so the range bounds it: 997 spaces of under 0.5 KB
@functools.lru_cache(maxsize=MAX_L_MAX - MIN_L_MAX + 1)
def _space(l_max: int) -> ModeSpace:
    return ModeSpace(l_max)


def _require_space(space) -> ModeSpace:
    """`space` itself if it is a ModeSpace; else a TypeError naming it."""
    if not isinstance(space, ModeSpace):
        raise TypeError(f"space must be a ModeSpace, got {type(space).__name__}")
    return space


@dataclass(frozen=True, eq=False)
class PhotonState:
    """Unit amplitude vector over |pol, l> plus a scalar survival probability.

    The amplitude norm is always 1 while survival > 0; loss lives entirely in
    `survival`.  Amplitudes within 1e-9 of norm 1 are divided by their norm here,
    the one place a state is normalized.  Immutable (the array is read-only).
    """

    space: ModeSpace
    amplitudes: np.ndarray
    survival: float = 1.0

    def __post_init__(self) -> None:
        _require_space(self.space)
        # no copy needed: the stored array is the fresh quotient amps / norm
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.space.dimension},)"
            )
        norm = _norm(amps)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"amplitudes are not normalized (norm={norm!r})")
        _require_numbers(survival=self.survival)
        if not 0.0 <= self.survival <= 1.0:
            raise ValueError(f"survival must lie in [0, 1], got {self.survival!r}")
        # float(): a numpy float32 survival would make every later product a float32
        object.__setattr__(self, "survival", float(self.survival))
        object.__setattr__(self, "amplitudes", _frozen(amps / norm))

    def amplitude(self, pol: str, l: int) -> complex:
        return complex(self.amplitudes[self.space.index(pol, l)])

    def components(self) -> Iterator[tuple[str, int, complex]]:
        """Yield (pol, l, amplitude) for every component above `GUARD_TOL`."""
        for i, a in enumerate(self.amplitudes):
            if abs(a) > GUARD_TOL:
                pol, l = self.space.basis_label(i)
                yield pol, l, complex(a)


def _norm(amps: np.ndarray) -> float:
    # np.linalg.norm's arithmetic for a complex vector, without its dispatch
    return math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))


def basis_state(space: ModeSpace, pol: str, l: int) -> PhotonState:
    """Freshly prepared basis ket |pol, l> with survival 1."""
    amps = np.zeros(_require_space(space).dimension, dtype=complex)
    amps[space.index(pol, l)] = 1.0
    return PhotonState(space, amps)


class ElementOp:
    """Operator on the mode space: structured factors, applied in turn, and a
    heralded `survival_factor` in (0, 1].

    A factory builds one factor, ``ElementOp(space, source=..., blocks=...)``:
    U = B P.  The gather P is out[i] = in[source[i]]; `source` (copied) is
    checked to be a permutation of range(dim) by one `bincount`, and is the
    identity, unchecked, when not given.  B, if given, applies 2x2
    circular-basis blocks to the (L, R) pair of each OAM index l: `blocks` has
    shape (1, 2, 2), one block for every l, or (2, 2, 2), where ``blocks[1]``
    replaces ``blocks[0]`` at l = 0 (`_mix`).  Each block is checked unitary.
    `compose` builds an op whose `factors` are its elements' factors; it has no
    `source`, `blocks` or `input_mask` of its own.

    Every factor is unitary; loss is only `survival_factor` < 1.
    `input_mask`, when present, marks the basis states the element is defined
    on: applying it to a state with amplitude on an unmasked
    (edge-of-truncation) mode, listed once at construction, raises
    TruncationError instead of silently corrupting the result.  Immutable.
    """

    def __init__(
        self,
        space: ModeSpace,
        *,
        survival_factor: float = 1.0,
        label: str = "",
        input_mask: np.ndarray | None = None,
        source: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        self._setup(space, survival_factor, label)
        dim = space.dimension
        # a copy, so that the caller's array cannot change the op
        src = np.arange(dim) if source is None else np.asarray(source)
        src = src.astype(np.intp) if src.dtype.kind in "iu" else src
        # viewed unsigned a negative index is huge, so the largest bounds both
        # ends; then dim indices filling dim bins, none empty, are a permutation
        if source is not None and (
            src.shape != (dim,) or src.dtype != np.intp
            or (unsigned := src.view(np.uintp))[unsigned.argmax()] >= dim
            or np.count_nonzero(np.bincount(src, minlength=dim)) < dim
        ):
            raise ValueError(
                f"{label or 'element'} is not unitary (source is "
                f"not a permutation of range({dim}))"
            )
        if blocks is not None:
            blocks = np.array(blocks, dtype=complex)
            if blocks.shape not in ((1, 2, 2), (2, 2, 2)):
                raise ValueError(
                    f"blocks have shape {blocks.shape}, expected (1, 2, 2) or (2, 2, 2)"
                )
            self._require_unitary(_blocks_deviation(blocks.tolist()))
        if input_mask is not None:
            input_mask = np.array(input_mask, dtype=bool)
            if input_mask.shape != (dim,):
                raise ValueError("input_mask length must equal the dimension")
        self._set_arrays(src, blocks, input_mask)

    def _relabel(self, label: str) -> ElementOp:
        """This op under `label`, sharing its checked read-only arrays."""
        op = ElementOp.__new__(ElementOp)
        op.__dict__.update(vars(self), label=label)
        return op

    def _setup(self, space, survival_factor, label, factors=None) -> None:
        _require_space(space)
        _require_numbers(survival_factor=survival_factor)
        # written so that a NaN factor fails too; a composite's product can underflow to 0
        if not (0.0 < survival_factor <= 1.0 or factors and survival_factor == 0.0):
            raise ValueError(f"survival_factor must lie in (0, 1], got {survival_factor!r}")
        init = object.__setattr__
        init(self, "space", space)
        init(self, "survival_factor", float(survival_factor))
        init(self, "label", label)
        init(self, "_factors", factors)

    def _set_arrays(self, source, blocks, input_mask) -> None:
        init = object.__setattr__
        init(self, "source", None if source is None else _frozen(source))
        init(self, "blocks", None if blocks is None else _frozen(blocks))
        init(self, "input_mask", None if input_mask is None else _frozen(input_mask))
        init(self, "_blocked", None if input_mask is None else _frozen((~input_mask).nonzero()[0]))

    def _require_unitary(self, deviation) -> None:
        # written so that a NaN deviation fails too
        if not deviation <= UNITARITY_TOL:
            raise ValueError(
                f"{self.label or 'element'} is not unitary "
                f"(max |U+U - I| = {deviation:.3e})"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"ElementOp is immutable; cannot set {name!r}")

    @property
    def factors(self) -> tuple[ElementOp, ...]:
        """The structured ops applied in turn: a composite's, or this op alone."""
        return self._factors or (self,)


def _blocks_deviation(blocks: list) -> float:
    """max |B+B - I| over 2x2 blocks given as nested lists; NaN if an entry is."""
    terms = []
    for (a, b), (c, d) in blocks:
        # both diagonal entries, and one off-diagonal (the other is its conjugate)
        a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        terms += abs(a_ * a + c_ * c - 1), abs(b_ * b + d_ * d - 1), abs(a_ * b + c_ * d)
    # max() passes over a NaN that is not its first argument
    return math.nan if any(map(math.isnan, terms)) else max(terms)


def _mix(blocks: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """An op's `blocks` on `pairs`, (pol, l + l_max): ``blocks[0]`` mixes every (L, R)
    pair, then ``blocks[1]``, if given, the pair of l = 0.  An `einsum`, so each column
    gets the bits of its block applied alone; a matrix product can round differently."""
    out = np.einsum("pq,qk->pk", blocks[0], pairs)
    if len(blocks) == 2:
        l0 = pairs.shape[1] // 2
        out[:, l0] = np.einsum("pq,q->p", blocks[1], pairs[:, l0])
    return out


def _act(op: ElementOp, vector: np.ndarray) -> np.ndarray:
    """U @ vector, for one amplitude vector: each factor in turn checks its guard,
    gathers, then mixes each (L, R) pair by its blocks (`_mix`)."""
    for factor in op.factors:
        _check_guard(factor, vector)
        vector = vector[factor.source]
        if factor.blocks is not None:
            vector = _mix(factor.blocks, vector.reshape(2, op.space.n_oam)).reshape(vector.shape)
    return vector


def _check_guard(op: ElementOp, amplitudes: np.ndarray) -> None:
    blocked = op._blocked
    if blocked is None or not blocked.size:
        return
    weights = np.abs(amplitudes[blocked])
    worst = int(weights.argmax())
    if weights[worst] > GUARD_TOL:
        pol, l = op.space.basis_label(int(blocked[worst]))
        raise TruncationError(
            f"{op.label or 'element'} cannot act on |{pol},{l:+d}>: the image "
            f"would leave the truncation |l| <= {op.space.l_max}"
        )


def apply(op: ElementOp, state: PhotonState) -> PhotonState:
    """Apply an element or a composite, factor by factor, each checking its guard
    first: one new state, renormalized once by `PhotonState`; survival multiplied."""
    if op.space.dimension != state.space.dimension:
        raise ValueError(
            f"dimension mismatch: operator is {op.space.dimension}, state is "
            f"{state.space.dimension}"
        )
    amps = _act(op, state.amplitudes)
    return PhotonState(state.space, amps, survival=state.survival * op.survival_factor)


def apply_chain(ops: Iterable[ElementOp], state: PhotonState) -> PhotonState:
    """`apply(compose(ops), state)`: one pass, one new state; `state` itself if no ops."""
    ops = tuple(ops)
    return apply(compose(ops), state) if ops else state


def fidelity_up_to_phase(a: PhotonState, b: PhotonState) -> float:
    """|<a|b>|^2, the global-phase-invariant overlap, clamped into [0, 1]."""
    if a.space.dimension != b.space.dimension:
        raise ValueError("states live in different spaces")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def compose(ops: Sequence[ElementOp]) -> ElementOp:
    """Chain elements in application order (last element's operator leftmost).

    Nothing is multiplied out: the result holds the elements' factors, nested
    composites flattened, and `apply` runs them in turn, checking each
    factor's guard before it acts and raising under that factor's label.
    The survival factor is the product of the elements' factors, so it is
    lossy iff some input is.  There is no unitarity check: each factor was
    checked when it was built.
    """
    if not ops:
        raise ValueError("cannot compose an empty element list")
    space = ops[0].space
    for op in ops:
        if op.space.l_max != space.l_max:
            raise ValueError("composed elements must share one mode space")
    composite = ElementOp.__new__(ElementOp)
    composite._setup(
        space,
        math.prod(op.survival_factor for op in ops),
        " -> ".join(op.label or "element" for op in ops),
        tuple(factor for op in ops for factor in op.factors),
    )
    composite._set_arrays(None, None, None)
    return composite
