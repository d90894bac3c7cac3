"""Factories for the optical elements that make up the benches.

Every factory returns a structured `ElementOp` (see `state.ElementOp`): the
q-plate (the identity plus one shifted slice per polarization half) and the
Dove prism are index permutations of the mode vector, a waveplate holds one
2x2 polarization block for every OAM value, or two with the second at l = 0,
and the lens is the identity permutation.  None fills a dim x dim matrix.

Each factory builds and checks its op once per exact input, in a private
builder memoized with `functools.lru_cache` (at most `_MEMO_SIZE` ops each),
and hands every caller the shared op `_relabel`ed to its label: the ops are
immutable and their arrays read-only, so a caller cannot tell the two apart.
The key is what the op's bits are made of, never the spec, because equal specs
can build different bits: `WaveplateSpec(0.0) == WaveplateSpec(-0.0)`.  Eta,
theta and crosstalk are taken as float() before any arithmetic, so a numpy
float builds the bits of the Python float of its value.  The q-plate is keyed
on the space (equal iff l_max is), 2q and float(eta); the waveplate on the
space, the aperture and the bytes of float(theta) and float(crosstalk), so a
hit builds no array; the lens and the Dove prism on the space alone.  A build
that raises caches nothing.

Conventions (pinned so the composed gates come out with +1 row phases):

* A tuned q-plate maps |L, l> -> |R, l+2q> and |R, l> -> |L, l-2q> with
  literal +1 matrix entries.  Edge modes whose image would leave the
  truncation are completed as identity and excluded from the operator's
  input mask, so applying the plate to them raises instead of corrupting.
* A half-wave plate at fast-axis angle theta has the H/V Jones matrix
  [[cos 2t, sin 2t], [sin 2t, -cos 2t]]; in the circular basis this is the
  exact swap [[0, e^{-2it}], [e^{2it}, 0]], so theta=0 exchanges |L> and |R>
  with no extra phase.
* The OAM-selective half-wave plate acts as a full wave plate on the l=0
  block only.  Its imperfection is a residual retardance: on every l != 0
  block it applies diag(1, e^{i*eps*pi}) in H/V, which is the identity at
  eps=0 and a half-wave plate at eps=1 up to rounding: e^{i*pi} rounds to
  -1+1.22e-16j, so each entry that keeps the polarization is 6.1e-17j.
* A Dove prism at 0 degrees inverts the OAM index and leaves polarization
  untouched; other angles are not supported (`_check_dove_angle`).
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TruncationError
from .state import (
    _MEMO_SIZE, ElementOp, ModeSpace, _is_int, _require_label, _require_numbers, _require_space,
)

APERTURE_FULL = "full"
APERTURE_L0 = "l0_only"


def _as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if not isinstance(q, str):  # a number, numpy's included: an integer stays exact
        _require_numbers(q=q)
    try:
        return Fraction(q if isinstance(q, str) else int(q) if _is_int(q) else float(q))
    except (ValueError, OverflowError, ZeroDivisionError):  # NaN, +-inf, "1/0", ...
        raise ValueError(f"q must be a finite rational, got {q!r}") from None


def _check_eta_and_crosstalk(eta: float = 1.0, crosstalk: float = 0.0) -> None:
    """The eta and crosstalk rules: the specs and `deutsch.run` call them."""
    _require_numbers(eta=eta, crosstalk=crosstalk)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"conversion efficiency eta must lie in (0, 1], got {eta!r}")
    if not 0.0 <= crosstalk <= 1.0:
        raise ValueError(f"crosstalk must lie in [0, 1], got {crosstalk!r}")


@dataclass(frozen=True)
class QPlateSpec:
    """Tuned q-plate: topological charge q (2q integral), conversion efficiency eta."""

    q: Fraction
    eta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_fraction(self.q))
        # in lowest terms, 2q is an integer iff q's denominator is 1 or 2
        if self.q.denominator > 2:
            raise ValueError(
                f"2q must be an integer so the OAM shift stays on the integer "
                f"lattice; got q={self.q}"
            )
        _check_eta_and_crosstalk(eta=self.eta)

    @property
    def oam_shift(self) -> int:
        # 2q is an integer, so this is exact; Fraction arithmetic costs more
        return 2 * self.q.numerator // self.q.denominator


@dataclass(frozen=True)
class WaveplateSpec:
    """Half-wave plate: fast-axis angle (radians), aperture, residual cross-talk."""

    theta: float
    aperture: str = APERTURE_FULL
    crosstalk: float = 0.0

    def __post_init__(self) -> None:
        _require_numbers(theta=self.theta)
        # the circular-basis block holds e^{2i theta}, so 2*theta must be finite
        try:
            finite = math.isfinite(2.0 * float(self.theta))
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"theta must be finite, and so must 2*theta; got {self.theta!r}")
        if self.aperture not in (APERTURE_FULL, APERTURE_L0):
            raise ValueError(
                f"aperture must be '{APERTURE_FULL}' or '{APERTURE_L0}', got "
                f"{self.aperture!r}"
            )
        _check_eta_and_crosstalk(crosstalk=self.crosstalk)


def _check_dove_angle(angle: float) -> None:
    """The rule of a Dove prism's angle: only the 0-degree orientation is modeled."""
    _require_numbers(angle=angle)
    if angle != 0.0:
        raise ValueError(f"only a Dove prism at angle 0 is supported, got {angle!r}")


def _require(space, label, spec=None, kind: type = type(None)) -> None:
    """A factory's checks, before its memo lookup: the space, the spec's type (a lens and
    a Dove prism take none) and the label, a str or None."""
    _require_space(space)
    if not isinstance(spec, kind):
        raise TypeError(f"spec must be a {kind.__name__}, got {type(spec).__name__}")
    _require_label(label)


def qplate(space: ModeSpace, spec: QPlateSpec, label: str | None = None) -> ElementOp:
    """Permutation |L,l> -> |R,l+2q>, |R,l> -> |L,l-2q>; eta is the survival factor.

    Basis states within 2|q| of the truncation edge cannot be shifted; they are
    kept as fixed points but excluded from the input mask, so the operator
    stays unitary while apply() rejects states that occupy them.
    """
    _require(space, label, spec, QPlateSpec)
    return _qplate_op(space, spec.oam_shift, float(spec.eta))._relabel(
        label or f"qplate(q={spec.q})"
    )


# at l_max 1000 a q-plate op holds at most 68 KB, and a waveplate (its gather and
# at most 128 B of blocks), a lens or a Dove prism 32 KB, so the four builder
# memos, full of such ops, hold _MEMO_SIZE (32) * 164 KB, about 5.3 MB, at worst
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _qplate_op(space: ModeSpace, shift: int, eta: float) -> ElementOp:
    """The q-plate of `qplate`, keyed on l_max, 2q and float(eta).  The gather is
    the identity with the shifted modes, one slice per polarization, moved."""
    if abs(shift) > 2 * space.l_max:
        raise TruncationError(
            f"q-plate with q={Fraction(shift, 2)} shifts OAM by {shift:+d}, which no state "
            f"in |l| <= {space.l_max} survives"
        )
    n = space.n_oam
    # |L, k> receives |R, k+shift> for k in [lo, n-hi) and |R, k> receives
    # |L, k-shift> for k in [hi, n-lo): one slice of each half; every other
    # mode's partner lies outside the truncation, so it is a fixed point
    lo, hi = max(0, -shift), max(0, shift)
    source = np.arange(2 * n)
    source[lo:n - hi] += n + shift
    source[n + hi:2 * n - lo] -= n + shift
    # the input mask holds the shifted modes, which are all of them for q = 0
    mask = source != np.arange(2 * n) if shift else None
    return ElementOp(space, survival_factor=eta, label="qplate", input_mask=mask, source=source)


def _hwp_block_circular(theta: float) -> list:
    # circular-basis form of [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    return [[0.0, cmath.exp(-2j * theta)], [cmath.exp(2j * theta), 0.0]]


def _retarder_block_circular(crosstalk: float) -> list:
    # circular-basis form of diag(1, e^{i*eps*pi}) in H/V
    p = cmath.exp(1j * math.pi * crosstalk)
    return [[(1 + p) / 2, (1 - p) / 2], [(1 - p) / 2, (1 + p) / 2]]


def hwp(space: ModeSpace, spec: WaveplateSpec, label: str | None = None) -> ElementOp:
    """Half-wave plate, full-aperture or acting on the l=0 component only."""
    _require(space, label, spec, WaveplateSpec)
    name = label or (
        f"hwp(theta={spec.theta:g})"
        if spec.aperture == APERTURE_FULL
        else f"hwp(theta={spec.theta:g}, l0_only, crosstalk={spec.crosstalk:g})"
    )
    # a full-aperture plate has no retarder, so its crosstalk is no part of the key
    crosstalk = float(spec.crosstalk) if spec.aperture == APERTURE_L0 else 0.0
    angles = struct.pack("dd", float(spec.theta), crosstalk)
    return _hwp_op(space, spec.aperture, angles)._relabel(name)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _hwp_op(space: ModeSpace, aperture: str, angles: bytes) -> ElementOp:
    """The waveplate of `hwp`, keyed on l_max, aperture and the bytes of float(theta)
    and float(crosstalk): the active block, after the residual retarder for `l0`."""
    theta, crosstalk = struct.unpack("dd", angles)
    blocks = [_hwp_block_circular(theta)]
    if aperture == APERTURE_L0:  # the residual retarder; the plate replaces it at l = 0
        blocks.insert(0, _retarder_block_circular(crosstalk))
    return ElementOp(space, label="hwp", blocks=blocks)


def dove_prism(space: ModeSpace, label: str | None = None) -> ElementOp:
    """OAM inversion |pol, l> -> |pol, -l>; polarization untouched."""
    _require(space, label)
    return _dove_op(space)._relabel(label or "dove")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _dove_op(space: ModeSpace) -> ElementOp:
    reversed_k = np.arange(space.n_oam)[::-1]
    source = np.concatenate((reversed_k, space.n_oam + reversed_k))
    return ElementOp(space, label="dove", source=source)


def lens(space: ModeSpace, label: str | None = None) -> ElementOp:
    """Identity in the mode-index representation; kept so benches mirror the layout."""
    _require(space, label)
    return _lens_op(space)._relabel(label or "lens")


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _lens_op(space: ModeSpace) -> ElementOp:
    return ElementOp(space, label="lens")


def _build(space: ModeSpace, name: str, spec, label: str) -> ElementOp:
    """The op of factory `name` (looked up when called, so a wrapper bound here in its
    place is called) on `spec`, None for a lens or a Dove prism, under `label`."""
    factory = globals()[name]
    return factory(space, label=label) if spec is None else factory(space, spec, label=label)
