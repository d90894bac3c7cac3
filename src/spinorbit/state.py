"""Core types for a single photon carrying polarization and orbital angular momentum.

The joint Hilbert space is spanned by kets |pol, l> where pol is the circular
polarization (L or R) and l is the integer OAM index, truncated to |l| <= l_max.
Amplitude vectors use the fixed ordering

    index(pol, l) = pol_index * (2*l_max + 1) + (l + l_max)

with pol_index(L) = 0 and pol_index(R) = 1, so serialized vectors are
comparable across runs and implementations.

Linear polarizations are defined relative to the circular basis by

    |L> = (|H> + i|V|>) / sqrt(2),    |R> = (|H> - i|V>) / sqrt(2)

which fixes the amplitude identities (|L> - |R>)/sqrt(2) = i|V> and
(|L> + |R>)/sqrt(2) = |H>.

Loss is heralded and scalar: a photon either traverses an element intact or is
lost entirely, so a lossy element keeps a unitary matrix and contributes a
survival factor < 1 instead of attenuating individual modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import TruncationError

LEFT = "L"
RIGHT = "R"
POLARIZATIONS = (LEFT, RIGHT)

#: smallest truncation that keeps the composite CNOT bench representable
#: (its intermediate states reach OAM +/-4)
MIN_L_MAX = 4
#: largest truncation: dim is then 4002, and the biggest dense matrix that
#: `compose` or `ElementOp.matrix` can build takes 16 * 4002**2 B, about 256 MB
MAX_L_MAX = 1000

UNITARITY_TOL = 1e-12
#: amplitude magnitude above which a guarded (edge-of-truncation) mode counts
#: as occupied
GUARD_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: |H> and |V> written in circular (L, R) coordinates
H_CIRCULAR = np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex)
V_CIRCULAR = np.array([-1j * _INV_SQRT2, 1j * _INV_SQRT2], dtype=complex)

#: change of basis taking (H, V) coordinates to (L, R) coordinates
LINEAR_TO_CIRCULAR = np.column_stack((H_CIRCULAR, V_CIRCULAR))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ModeSpace:
    """Truncated polarization (x) OAM space with the documented basis ordering."""

    l_max: int

    def __post_init__(self) -> None:
        if not isinstance(self.l_max, int) or isinstance(self.l_max, bool):
            raise TypeError(f"l_max must be an integer, got {self.l_max!r}")
        if self.l_max < MIN_L_MAX:
            raise TruncationError(
                f"l_max={self.l_max} is below the minimum {MIN_L_MAX}; the "
                f"composite CNOT bench reaches intermediate OAM +/-4"
            )
        if self.l_max > MAX_L_MAX:
            raise TruncationError(
                f"l_max={self.l_max} is above the maximum {MAX_L_MAX}"
            )

    @property
    def n_oam(self) -> int:
        return 2 * self.l_max + 1

    @property
    def dimension(self) -> int:
        return 2 * self.n_oam

    def oam_values(self) -> range:
        return range(-self.l_max, self.l_max + 1)

    def contains(self, l: int) -> bool:
        return -self.l_max <= l <= self.l_max

    def index(self, pol: str, l: int) -> int:
        if pol not in POLARIZATIONS:
            raise ValueError(f"polarization must be 'L' or 'R', got {pol!r}")
        if not self.contains(l):
            raise TruncationError(
                f"OAM index l={l:+d} outside truncation |l| <= {self.l_max}"
            )
        return POLARIZATIONS.index(pol) * self.n_oam + (l + self.l_max)

    def basis_label(self, index: int) -> tuple[str, int]:
        if not 0 <= index < self.dimension:
            raise IndexError(f"basis index {index} out of range")
        pol, offset = divmod(index, self.n_oam)
        return POLARIZATIONS[pol], offset - self.l_max


def make_space(l_max: int) -> ModeSpace:
    """Build the truncated mode space; rejects l_max outside [4, 1000]."""
    return ModeSpace(l_max)


@dataclass(frozen=True, eq=False)
class PhotonState:
    """Unit amplitude vector over |pol, l> plus a scalar survival probability.

    The amplitude norm is always 1 while survival > 0; loss lives entirely in
    `survival`.  Instances are immutable (the array is marked read-only).
    """

    space: ModeSpace
    amplitudes: np.ndarray
    survival: float = 1.0

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dimension,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected "
                f"({self.space.dimension},)"
            )
        norm = float(np.linalg.norm(amps))
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"amplitudes are not normalized (norm={norm!r})")
        if not 0.0 <= self.survival <= 1.0:
            raise ValueError(f"survival must lie in [0, 1], got {self.survival!r}")
        object.__setattr__(self, "amplitudes", _frozen(amps / norm))

    def amplitude(self, pol: str, l: int) -> complex:
        return complex(self.amplitudes[self.space.index(pol, l)])

    def components(self, tol: float = 1e-12) -> Iterator[tuple[str, int, complex]]:
        """Yield (pol, l, amplitude) for every component above `tol`."""
        for i, a in enumerate(self.amplitudes):
            if abs(a) > tol:
                pol, l = self.space.basis_label(i)
                yield pol, l, complex(a)


def basis_state(space: ModeSpace, pol: str, l: int) -> PhotonState:
    """Freshly prepared basis ket |pol, l> with survival 1."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(pol, l)] = 1.0
    return PhotonState(space, amps)


UNITARY = "unitary"
LOSSY = "lossy"


class ElementOp:
    """Operator on the mode space, tagged unitary or lossy, in one of two forms.

    * Dense, ``ElementOp(space, matrix)``: a dim x dim matrix, checked for
      U+U = I by `_unitarity_deviation`, whose cost follows the nonzero
      pattern: O(dim^2) for the near-permutations the benches produce, O(dim^3)
      only for a matrix with many nonzeros per row.  `compose` returns this form.
    * Structured, ``ElementOp(space, source=..., blocks=...)``: U = B P.  The
      gather P is out[i] = in[source[i]] with `source` a permutation of
      range(dim).  B, when `blocks` is given, applies the 2x2 circular-basis
      block ``blocks[k]`` to the (L, R) pair of OAM index l = k - l_max, so
      `blocks` has shape (2*l_max + 1, 2, 2).  Each block is checked unitary,
      in O(n_oam).  Every element factory builds this form, and `matrix` is
      then a read-only dense view built on first use.

    The matrix is unitary in both cases; a lossy element additionally carries
    survival_factor < 1.  `input_mask`, when present, marks the basis states
    the element is defined on: applying it to a state with amplitude on an
    unmasked (edge-of-truncation) mode raises TruncationError instead of
    silently corrupting the result.  Instances are immutable.
    """

    def __init__(
        self,
        space: ModeSpace,
        matrix: np.ndarray | None = None,
        kind: str = UNITARY,
        survival_factor: float = 1.0,
        label: str = "",
        input_mask: np.ndarray | None = None,
        *,
        source: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        init = object.__setattr__
        init(self, "space", space)
        init(self, "kind", kind)
        init(self, "survival_factor", survival_factor)
        init(self, "label", label)
        dim = space.dimension
        if (matrix is None) == (source is None):
            raise ValueError("give either a dense matrix or a gather source")
        if matrix is not None:
            if blocks is not None:
                raise ValueError("blocks belong to the structured form, not to a matrix")
            mat = np.array(matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
            self._require_unitary(_unitarity_deviation(mat))
            init(self, "source", None)
            init(self, "blocks", None)
            init(self, "_matrix", _frozen(mat))
        else:
            src = np.array(source)
            if src.shape != (dim,) or src.dtype.kind not in "iu" or not np.array_equal(
                np.sort(src), np.arange(dim)
            ):
                raise ValueError(
                    f"matrix for {label or 'element'} is not unitary (source is "
                    f"not a permutation of range({dim}))"
                )
            init(self, "source", _frozen(src.astype(np.intp, copy=False)))
            if blocks is not None:
                blk = np.array(blocks, dtype=complex)
                if blk.shape != (space.n_oam, 2, 2):
                    raise ValueError(
                        f"blocks have shape {blk.shape}, expected ({space.n_oam}, 2, 2)"
                    )
                gram = np.matmul(blk.conj().transpose(0, 2, 1), blk)
                self._require_unitary(np.abs(gram - np.eye(2)).max())
                blk = _frozen(blk)
            else:
                blk = None
            init(self, "blocks", blk)
            init(self, "_matrix", None)
        if kind == UNITARY:
            if survival_factor != 1.0:
                raise ValueError("unitary elements must have survival_factor 1")
        elif kind == LOSSY:
            if not 0.0 < survival_factor < 1.0:
                raise ValueError(
                    f"lossy elements need survival_factor in (0, 1), got "
                    f"{survival_factor!r}"
                )
        else:
            raise ValueError(f"kind must be 'unitary' or 'lossy', got {kind!r}")
        if input_mask is not None:
            mask = np.array(input_mask, dtype=bool)
            if mask.shape != (dim,):
                raise ValueError("input_mask length must equal the dimension")
            input_mask = _frozen(mask)
        init(self, "input_mask", input_mask)

    def _require_unitary(self, deviation) -> None:
        # written so that a NaN deviation fails too
        if not deviation <= UNITARITY_TOL:
            raise ValueError(
                f"matrix for {self.label or 'element'} is not unitary "
                f"(max |U+U - I| = {deviation:.3e})"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"ElementOp is immutable; cannot set {name!r}")

    @property
    def matrix(self) -> np.ndarray:
        """Dense dim x dim matrix (read-only; built on first use for structured ops)."""
        if self._matrix is None:
            dense = _act(self, np.eye(self.space.dimension, dtype=complex))
            object.__setattr__(self, "_matrix", _frozen(dense))
        return self._matrix

    @property
    def is_lossy(self) -> bool:
        return self.kind == LOSSY


def _unitarity_deviation(mat: np.ndarray) -> float:
    """max |U+U - I| of a square matrix, computed from its nonzero pattern.

    (U+U)[j, k] sums conj(U[i, j]) U[i, k] over the rows i, so only pairs of
    nonzero entries that share a row contribute: the row-wise sparse product
    of Gustavson (ACM TOMS 4(3), 1978).  The diagonal is each column's
    squared norm, 0 for a column with no nonzero entry.  Off the diagonal
    only rows with two or more nonzeros contribute, and (U+U)[k, j] is the
    conjugate of (U+U)[j, k], so each unordered pair is summed once.  Besides
    a boolean nonzero mask this allocates O(pairs); when the pairs outnumber
    dim^2 entries, the dense product is used instead.  NaN counts as nonzero,
    so it makes the deviation NaN.
    """
    dim = mat.shape[0]
    flat = np.flatnonzero(mat != 0)
    rows, cols = np.divmod(flat, dim)
    row_len = np.bincount(rows, minlength=dim)
    n_pairs = int(row_len @ row_len)
    if n_pairs > dim * dim:
        return float(np.abs(mat.conj().T @ mat - np.eye(dim)).max())
    values = mat[rows, cols]
    norms = np.bincount(cols, values.real ** 2 + values.imag ** 2, dim)
    deviation = np.abs(norms - 1.0).max()
    n_cross = (n_pairs - flat.size) // 2
    if n_cross:
        # entry e of flat pairs with the `later[e]` entries after it in its
        # row, so every pair has j < k; pair p of e's run is e + 1 + p - run_start[e]
        later = np.cumsum(row_len)[rows] - np.arange(1, flat.size + 1)
        run_start = np.cumsum(later) - later
        first = np.repeat(np.arange(flat.size), later)
        second = first + 1 + np.arange(n_cross) - np.repeat(run_start, later)
        slots, slot_of_pair = np.unique(cols[first] * dim + cols[second], return_inverse=True)
        terms = values[first].conj() * values[second]
        gram = np.bincount(slot_of_pair, terms.real, slots.size) + 1j * np.bincount(
            slot_of_pair, terms.imag, slots.size
        )
        # np.maximum, unlike max(), keeps a NaN from either side
        deviation = np.maximum(deviation, np.abs(gram).max())
    return float(deviation)


def identity_op(space: ModeSpace, label: str = "identity") -> ElementOp:
    return ElementOp(space, source=np.arange(space.dimension), label=label)


def _act(op: ElementOp, array: np.ndarray) -> np.ndarray:
    """U @ array for a vector, or a matrix whose first axis is the mode index.

    A structured op gathers, then mixes each (L, R) pair with its 2x2 block:
    the mode axis reshaped to (2, n_oam) is (pol, l + l_max), the README order.
    """
    if op.source is None:
        return op.matrix @ array
    out = array[op.source]
    if op.blocks is not None:
        rest = array.shape[1:]
        pairs = out.reshape(2, op.space.n_oam, *rest)
        out = np.einsum("kpq,qk...->pk...", op.blocks, pairs).reshape(array.shape)
    return out


def _check_guard(op: ElementOp, amplitudes: np.ndarray) -> None:
    if op.input_mask is None:
        return
    blocked = ~op.input_mask
    if not blocked.any():
        return
    weights = np.abs(amplitudes[blocked])
    worst = int(np.argmax(weights))
    if weights[worst] > GUARD_TOL:
        index = int(np.flatnonzero(blocked)[worst])
        pol, l = op.space.basis_label(index)
        raise TruncationError(
            f"{op.label or 'element'} cannot act on |{pol},{l:+d}>: the image "
            f"would leave the truncation |l| <= {op.space.l_max}"
        )


def apply(op: ElementOp, state: PhotonState) -> PhotonState:
    """Apply an element: new amplitudes, renormalized; survival multiplied."""
    if op.space.dimension != state.space.dimension:
        raise ValueError(
            f"dimension mismatch: operator is {op.space.dimension}, state is "
            f"{state.space.dimension}"
        )
    _check_guard(op, state.amplitudes)
    amps = _act(op, state.amplitudes)
    amps = amps / np.linalg.norm(amps)
    return PhotonState(state.space, amps, survival=state.survival * op.survival_factor)


def apply_chain(ops: Iterable[ElementOp], state: PhotonState) -> PhotonState:
    for op in ops:
        state = apply(op, state)
    return state


def fidelity_up_to_phase(a: PhotonState, b: PhotonState) -> float:
    """|<a|b>|^2, the global-phase-invariant overlap, clamped into [0, 1]."""
    if a.space.dimension != b.space.dimension:
        raise ValueError("states live in different spaces")
    return min(1.0, float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2))


def compose(ops: Sequence[ElementOp]) -> ElementOp:
    """Compose elements in application order (last element's matrix leftmost).

    The product is built by applying each element to the columns of the
    running matrix, so a structured element costs O(dim^2), not a matmul,
    and the result is a dense ElementOp.  The composite survival factor is
    the product of the factors, the kind is lossy iff any input is lossy, and
    the input mask excludes every basis state whose trajectory would touch a
    guarded mode of any stage.
    """
    if not ops:
        raise ValueError("cannot compose an empty element list")
    space = ops[0].space
    dim = space.dimension
    for op in ops:
        if op.space.dimension != dim:
            raise ValueError("composed elements must share one mode space")
    total = np.eye(dim, dtype=complex)
    mask = np.ones(dim, dtype=bool)
    for op in ops:
        if op.input_mask is not None:
            blocked = ~op.input_mask
            leakage = np.abs(total[blocked, :]).sum(axis=0)
            mask &= leakage <= GUARD_TOL
        total = _act(op, total)
    survival = 1.0
    for op in ops:
        survival *= op.survival_factor
    kind = LOSSY if any(op.is_lossy for op in ops) else UNITARY
    label = " -> ".join(op.label or "element" for op in ops)
    return ElementOp(
        space,
        total,
        kind=kind,
        survival_factor=survival,
        label=label,
        input_mask=None if mask.all() else mask,
    )
