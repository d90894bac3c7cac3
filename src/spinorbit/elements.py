"""Factories for the optical elements that make up the benches.

Every factory returns a structured `ElementOp` (see `state.ElementOp`): the
q-plate and the Dove prism are pure index permutations of the mode vector,
the waveplates are one 2x2 polarization block per OAM value, and the lens is
the identity permutation.  None of them fills a dense dim x dim matrix; the
`matrix` property builds that view only when a caller reads it.

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
  eps=0 and a full half-wave plate at eps=1.
* A Dove prism at 0 degrees inverts the OAM index and leaves polarization
  untouched; other angles are not supported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import TruncationError
from .state import (
    LINEAR_TO_CIRCULAR,
    LOSSY,
    UNITARY,
    ElementOp,
    ModeSpace,
    PhotonState,
    identity_op,
)

APERTURE_FULL = "full"
APERTURE_L0 = "l0_only"

AXIS_H = "H"
AXIS_V = "V"


def _as_fraction(q) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    if isinstance(q, float):
        return Fraction(q)
    if isinstance(q, str):
        return Fraction(q)
    raise TypeError(f"topological charge must be rational, got {type(q).__name__}")


@dataclass(frozen=True)
class QPlateSpec:
    """Tuned q-plate: topological charge q (2q integral), conversion efficiency eta."""

    q: Fraction
    eta: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _as_fraction(self.q))
        if (2 * self.q).denominator != 1:
            raise ValueError(
                f"2q must be an integer so the OAM shift stays on the integer "
                f"lattice; got q={self.q}"
            )
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"conversion efficiency eta must lie in (0, 1], got {self.eta!r}")

    @property
    def oam_shift(self) -> int:
        return int(2 * self.q)


@dataclass(frozen=True)
class WaveplateSpec:
    """Half-wave plate: fast-axis angle (radians), aperture, residual cross-talk."""

    theta: float
    aperture: str = APERTURE_FULL
    crosstalk: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        if self.aperture not in (APERTURE_FULL, APERTURE_L0):
            raise ValueError(
                f"aperture must be '{APERTURE_FULL}' or '{APERTURE_L0}', got "
                f"{self.aperture!r}"
            )
        if not 0.0 <= self.crosstalk <= 1.0:
            raise ValueError(f"crosstalk must lie in [0, 1], got {self.crosstalk!r}")


@dataclass(frozen=True)
class DovePrismSpec:
    """Dove prism; only the 0-degree orientation is modeled."""

    angle: float = 0.0

    def __post_init__(self) -> None:
        if self.angle != 0.0:
            raise ValueError(
                f"only a Dove prism at angle 0 is supported, got {self.angle!r}"
            )


def qplate(space: ModeSpace, spec: QPlateSpec, label: str | None = None) -> ElementOp:
    """Permutation |L,l> -> |R,l+2q>, |R,l> -> |L,l-2q> with a survival factor eta.

    Basis states within 2|q| of the truncation edge cannot be shifted; they are
    kept as fixed points but excluded from the input mask, so the operator
    stays unitary while apply() rejects states that occupy them.
    """
    shift = spec.oam_shift
    if abs(shift) > 2 * space.l_max:
        raise TruncationError(
            f"q-plate with q={spec.q} shifts OAM by {shift:+d}, which no state "
            f"in |l| <= {space.l_max} survives"
        )
    n = space.n_oam
    k = np.arange(n)
    # |L, k> receives |R, k+shift> and |R, k> receives |L, k-shift>; a mode
    # whose partner lies outside the truncation is a fixed point instead
    from_r, from_l = k + shift, k - shift
    r_in = (0 <= from_r) & (from_r < n)
    l_in = (0 <= from_l) & (from_l < n)
    source = np.concatenate((np.where(r_in, n + from_r, k), np.where(l_in, from_l, n + k)))
    # |L, k> is shifted iff its image |R, k+shift> exists, and likewise for R
    mask = np.concatenate((r_in, l_in))
    kind = LOSSY if spec.eta < 1.0 else UNITARY
    return ElementOp(
        space,
        kind=kind,
        survival_factor=spec.eta if spec.eta < 1.0 else 1.0,
        label=label or f"qplate(q={spec.q})",
        input_mask=None if mask.all() else mask,
        source=source,
    )


def _hwp_block_circular(theta: float) -> np.ndarray:
    # circular-basis form of [[cos 2t, sin 2t], [sin 2t, -cos 2t]]
    return np.array(
        [[0.0, cmath.exp(-2j * theta)], [cmath.exp(2j * theta), 0.0]], dtype=complex
    )


def _retarder_block_circular(crosstalk: float) -> np.ndarray:
    # circular-basis form of diag(1, e^{i*eps*pi}) in H/V
    p = cmath.exp(1j * math.pi * crosstalk)
    return np.array(
        [[(1 + p) / 2, (1 - p) / 2], [(1 - p) / 2, (1 + p) / 2]], dtype=complex
    )


def hwp(space: ModeSpace, spec: WaveplateSpec, label: str | None = None) -> ElementOp:
    """Half-wave plate, full-aperture or acting on the l=0 component only."""
    active = _hwp_block_circular(spec.theta)
    if spec.aperture == APERTURE_FULL:
        blocks = np.broadcast_to(active, (space.n_oam, 2, 2))
    else:
        residual = _retarder_block_circular(spec.crosstalk)
        is_l0 = np.arange(space.n_oam) == space.l_max
        blocks = np.where(is_l0[:, None, None], active, residual)
    name = label or (
        f"hwp(theta={spec.theta:g})"
        if spec.aperture == APERTURE_FULL
        else f"hwp(theta={spec.theta:g}, l0_only, crosstalk={spec.crosstalk:g})"
    )
    return ElementOp(
        space, label=name, source=np.arange(space.dimension), blocks=blocks
    )


def dove_prism(
    space: ModeSpace, spec: DovePrismSpec = DovePrismSpec(), label: str | None = None
) -> ElementOp:
    """OAM inversion |pol, l> -> |pol, -l>; polarization untouched."""
    reversed_k = np.arange(space.n_oam)[::-1]
    source = np.concatenate((reversed_k, space.n_oam + reversed_k))
    return ElementOp(space, label=label or "dove", source=source)


def lens(space: ModeSpace, label: str = "lens") -> ElementOp:
    """Identity in the mode-index representation; kept so benches mirror the layout."""
    return identity_op(space, label=label)


def cnot_bench(
    space: ModeSpace, eta: float = 1.0, crosstalk: float = 0.0
) -> list[ElementOp]:
    """Composite CNOT: q-plates around an OAM-selective half-wave plate.

    Chain, in application order: QP1 (q=1), lens, HWP1 (theta=0, l=0 only),
    lens, QP2 (q=1).  With eta=1 and crosstalk=0 the composition restricted to
    the encoded basis is the logical CNOT permutation with +1 entries.
    """
    qspec = QPlateSpec(Fraction(1), eta)
    return [
        qplate(space, qspec, label="QP1"),
        lens(space, label="L1"),
        hwp(space, WaveplateSpec(0.0, APERTURE_L0, crosstalk), label="HWP1"),
        lens(space, label="L2"),
        qplate(space, qspec, label="QP2"),
    ]


@dataclass(frozen=True, eq=False)
class Polarizer:
    """Projector onto a linear polarization axis, acting on every OAM component."""

    space: ModeSpace
    axis: str
    matrix: np.ndarray

    def project(self, state: PhotonState) -> tuple[PhotonState | None, float]:
        """Project a state; returns (renormalized state, success probability).

        An orthogonal input yields (None, 0.0).
        """
        amps = self.matrix @ state.amplitudes
        probability = float(np.linalg.norm(amps) ** 2)
        if probability <= 1e-24:
            return None, 0.0
        return (
            PhotonState(state.space, amps / math.sqrt(probability), state.survival),
            probability,
        )


def polarizer(space: ModeSpace, axis: str) -> Polarizer:
    if axis not in (AXIS_H, AXIS_V):
        raise ValueError(f"polarizer axis must be 'H' or 'V', got {axis!r}")
    column = LINEAR_TO_CIRCULAR[:, 0 if axis == AXIS_H else 1]
    block = np.outer(column, column.conj())
    matrix = np.kron(block, np.eye(space.n_oam))
    matrix.setflags(write=False)
    return Polarizer(space, axis, matrix)
