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
#: largest truncation: dim is then 4002.  Elements and `compose` products hold
#: O(dim) entries; only reading `ElementOp.matrix` (or passing a dense matrix)
#: takes a dense dim x dim array, 16 * 4002**2 B, about 256 MB
MAX_L_MAX = 1000
#: truncation used when a bench or a run names none
DEFAULT_L_MAX = 6

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
    """Truncated polarization (x) OAM space with the documented basis ordering;
    `n_oam` and `dimension` are stored once, and take no part in equality."""

    l_max: int
    n_oam: int = field(init=False, repr=False, compare=False)
    dimension: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "n_oam", 2 * self.l_max + 1)
        object.__setattr__(self, "dimension", 2 * self.n_oam)

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
    `survival`.  Amplitudes within 1e-9 of norm 1 are divided by their norm here,
    the one place a state is normalized.  Immutable (the array is read-only).
    """

    space: ModeSpace
    amplitudes: np.ndarray
    survival: float = 1.0

    def __post_init__(self) -> None:
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


def _norm(amps: np.ndarray) -> float:
    # np.linalg.norm's arithmetic for a complex vector, without its dispatch
    return math.sqrt(amps.real.dot(amps.real) + amps.imag.dot(amps.imag))


def basis_state(space: ModeSpace, pol: str, l: int) -> PhotonState:
    """Freshly prepared basis ket |pol, l> with survival 1."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(pol, l)] = 1.0
    return PhotonState(space, amps)


UNITARY = "unitary"
LOSSY = "lossy"


class ElementOp:
    """Operator on the mode space, lossy iff `survival_factor` < 1, in one of two forms.

    * Entries, ``ElementOp(space, matrix)``: the nonzero entries of a dim x dim
      matrix, checked for U+U = I on those entries by `_unitarity_deviation`.  The benches' products are near
      permutations, about dim entries, so this form is O(dim), not O(dim^2).
      `compose` builds it straight from the product's entries, with no dense
      matrix; `apply` sums vals * amplitude over the entries.
    * Structured, ``ElementOp(space, source=..., blocks=...)``: U = B P.  The
      gather P is out[i] = in[source[i]]; `source` (copied) is checked to be a
      permutation of range(dim) by one `bincount`.  B, if given, applies the 2x2
      circular-basis block ``blocks[k]`` to the (L, R) pair of OAM index
      l = k - l_max, so `blocks` has shape (2*l_max + 1, 2, 2).  Each block is
      checked unitary; `hwp` passes only its distinct blocks (`_from_blocks`).
      Every element factory builds this form.

    In both forms `matrix` is a read-only dense view, built on first use.
    The matrix is unitary; a lossy element additionally carries
    survival_factor < 1.  `input_mask`, when present, marks the basis states
    the element is defined on: applying it to a state with amplitude on an
    unmasked (edge-of-truncation) mode, listed once at construction, raises
    TruncationError instead of silently corrupting the result.  Immutable.
    """

    def __init__(
        self,
        space: ModeSpace,
        matrix: np.ndarray | None = None,
        survival_factor: float = 1.0,
        label: str = "",
        input_mask: np.ndarray | None = None,
        *,
        source: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        if (matrix is None) == (source is None):
            raise ValueError("give either a dense matrix or a gather source")
        entries = None
        if matrix is not None:
            if blocks is not None:
                raise ValueError("blocks belong to the structured form, not to a matrix")
            dim = space.dimension
            mat = np.array(matrix, dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
            rows, cols = np.divmod(np.flatnonzero(mat), dim)
            entries = rows, cols, mat[rows, cols]
        self._setup(space, survival_factor, label, input_mask, entries, source, blocks)

    @classmethod
    def _from_entries(cls, space: ModeSpace, entries, **tags) -> ElementOp:
        """Entries form from nonzero (rows, cols, vals), with no dense matrix."""
        op = cls.__new__(cls)
        op._setup(space, entries=entries, source=None, blocks=None, **tags)
        return op

    @classmethod
    def _from_blocks(cls, space: ModeSpace, distinct, index, label: str) -> ElementOp:
        """Identity gather, ``blocks = distinct[index]``; checks only `distinct`."""
        op = cls.__new__(cls)
        op._setup(space, 1.0, label, None, None, None, None)
        op._require_unitary(_blocks_deviation(distinct.tolist()))
        object.__setattr__(op, "blocks", _frozen(distinct.take(index, axis=0)))
        return op

    def _relabel(self, label: str) -> ElementOp:
        """This op under `label`, sharing its checked read-only arrays."""
        op = ElementOp.__new__(ElementOp)
        op.__dict__.update(vars(self), label=label)
        return op

    def _setup(self, space, survival_factor, label, input_mask, entries, source, blocks):
        # written so that a NaN factor fails too
        if not 0.0 < survival_factor <= 1.0:
            raise ValueError(f"survival_factor must lie in (0, 1], got {survival_factor!r}")
        init = object.__setattr__
        init(self, "space", space)
        init(self, "kind", LOSSY if survival_factor < 1.0 else UNITARY)
        init(self, "survival_factor", survival_factor)
        init(self, "label", label)
        init(self, "_matrix", None)
        dim = space.dimension
        if entries is not None:
            self._require_unitary(_unitarity_deviation(*entries, dim))
            rows, cols, vals = entries
            init(self, "_entries", (_frozen(rows), _frozen(cols), _frozen(vals)))
            init(self, "source", None)
            init(self, "blocks", None)
        else:
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
                    f"matrix for {label or 'element'} is not unitary (source is "
                    f"not a permutation of range({dim}))"
                )
            init(self, "_entries", None)
            init(self, "source", _frozen(src))
            if blocks is not None:
                blk = np.array(blocks, dtype=complex)
                if blk.shape != (space.n_oam, 2, 2):
                    raise ValueError(
                        f"blocks have shape {blk.shape}, expected ({space.n_oam}, 2, 2)"
                    )
                self._require_unitary(_blocks_deviation(blk.tolist()))
                blk = _frozen(blk)
            else:
                blk = None
            init(self, "blocks", blk)
        if input_mask is not None:
            mask = np.array(input_mask, dtype=bool)
            if mask.shape != (dim,):
                raise ValueError("input_mask length must equal the dimension")
            input_mask = _frozen(mask)
        init(self, "input_mask", input_mask)
        init(self, "_blocked", None if input_mask is None else _frozen((~input_mask).nonzero()[0]))

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
        """Dense dim x dim matrix (read-only; built on first use).

        It is scattered from the nonzero entries; a structured op's entries
        are its own action on the identity, by `_step`.
        """
        if self._matrix is None:
            dim = self.space.dimension
            rows, cols, vals = self._entries or _step(self, *_identity_entries(dim))
            dense = np.zeros((dim, dim), dtype=complex)
            dense[rows, cols] = vals
            object.__setattr__(self, "_matrix", _frozen(dense))
        return self._matrix

    @property
    def is_lossy(self) -> bool:
        return self.kind == LOSSY


def _blocks_deviation(blocks: list) -> float:
    """max |B+B - I| over 2x2 blocks given as nested lists; NaN if an entry is."""
    terms = []
    for (a, b), (c, d) in blocks:
        # both diagonal entries, and one off-diagonal (the other is its conjugate)
        a_, b_, c_, d_ = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
        terms += abs(a_ * a + c_ * c - 1), abs(b_ * b + d_ * d - 1), abs(a_ * b + c_ * d)
    # max() passes over a NaN that is not its first argument
    return math.nan if any(map(math.isnan, terms)) else max(terms)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group equal keys with one sort, in place of `np.unique`.

    Returns (order, slot): ``keys[order]`` is ascending, and ``slot[i]`` is
    the position in it of the first key equal to ``keys[i]``, so equal keys
    share a slot in range(keys.size).  Slots that start no group are never
    used: callers sum or scatter into keys.size slots and skip the empty
    ones.  This avoids the fixed cost of ``np.unique(return_inverse=True)``,
    which dominated on small products.
    """
    order = keys.argsort()
    return order, keys[order].searchsorted(keys)


def _unitarity_deviation(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int
) -> float:
    """max |U+U - I| of a dim x dim matrix given by its nonzero entries.

    The entries may come in any order.  (U+U)[j, k] sums
    conj(U[i, j]) U[i, k] over the rows i, so only pairs of entries that
    share a row contribute: the row-wise sparse product of Gustavson (ACM
    TOMS 4(3), 1978).  The diagonal is each column's squared norm, 0 for a
    column with no entry.  Off the diagonal only rows with two or more
    entries contribute, and (U+U)[k, j] is the conjugate of (U+U)[j, k], so
    each unordered pair is summed once.  This allocates O(pairs); when the
    pairs outnumber dim^2, the dense product is used instead.  A NaN entry
    makes the deviation NaN.
    """
    row_len = np.bincount(rows, minlength=dim)
    n_pairs = int(row_len @ row_len)
    if n_pairs > dim * dim:
        mat = np.zeros((dim, dim), dtype=complex)
        mat[rows, cols] = vals
        return float(np.abs(mat.conj().T @ mat - np.eye(dim)).max())
    norms = np.bincount(cols, vals.real ** 2 + vals.imag ** 2, dim)
    deviation = np.abs(norms - 1.0).max()
    n_cross = (n_pairs - rows.size) // 2
    if n_cross:
        order = (rows * dim + cols).argsort()
        rows, cols, vals = rows[order], cols[order], vals[order]
        # in row-major order, entry e pairs with the `later[e]` entries after
        # it in its row, so every pair has j < k; pair p of e's run is
        # e + 1 + p - run_start[e]
        later = row_len.cumsum()[rows] - np.arange(1, rows.size + 1)
        run_start = later.cumsum() - later
        first = np.arange(rows.size).repeat(later)
        second = first + 1 + np.arange(n_cross) - run_start.repeat(later)
        _, slot = _group(cols[first] * dim + cols[second])
        terms = vals[first].conj() * vals[second]
        gram = np.bincount(slot, terms.real, n_cross) + 1j * np.bincount(
            slot, terms.imag, n_cross
        )
        # np.maximum, unlike max(), keeps a NaN from either side
        deviation = np.maximum(deviation, np.abs(gram).max())
    return float(deviation)


def _identity_entries(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    diagonal = np.arange(dim)
    return diagonal, diagonal, np.ones(dim, dtype=complex)


def _step(
    op: ElementOp, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of U @ T, with U = `op` and T given by its nonzero entries.

    A gather moves T's row source[i] to row i.  A block element then mixes,
    for each (l, column) that T touches, the (L, R) pair of that column with
    the l block, by the same einsum `_act` applies to a vector, so each
    product entry has the bits that entry of the dense product would have;
    exact zeros are dropped.
    """
    n_oam = op.space.n_oam
    dim = 2 * n_oam
    if op._entries is not None:
        return _product(op._entries, rows, cols, vals, dim)
    rows = op.source.argsort()[rows]
    if op.blocks is None:
        return rows, cols, vals
    pol, k = divmod(rows, n_oam)
    order, group = _group(k * dim + cols)
    pairs = np.zeros((2, rows.size), dtype=complex)
    pairs[pol, group] = vals
    k, cols = k[order], cols[order]
    mixed = np.einsum("kpq,qk->pk", op.blocks.take(k, axis=0), pairs).ravel()
    keep = mixed.nonzero()[0]
    return np.concatenate((k, k + n_oam))[keep], np.concatenate((cols, cols))[keep], mixed[keep]


def _product(
    entries, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero entries of A @ T, both given by their nonzero entries."""
    a_rows, a_cols, a_vals = entries
    # entry (j, c) of T meets each entry (i, j) of A's column j
    by_col = a_cols.argsort(kind="stable")
    col_len = np.bincount(a_cols, minlength=dim)
    fan = col_len[rows]
    t = np.arange(rows.size).repeat(fan)
    skip = (col_len.cumsum() - col_len)[rows] - (fan.cumsum() - fan)
    a = by_col[np.arange(t.size) + skip.repeat(fan)]
    terms = a_vals[a] * vals[t]
    keys = a_rows[a] * dim + cols[t]
    order, slot = _group(keys)
    sums = np.bincount(slot, terms.real, t.size) + 1j * np.bincount(slot, terms.imag, t.size)
    keep = sums.nonzero()[0]
    out_rows, out_cols = divmod(keys[order[keep]], dim)
    return out_rows, out_cols, sums[keep]


def _act(op: ElementOp, vector: np.ndarray) -> np.ndarray:
    """U @ vector.

    The entries form sums vals * vector[cols] into rows.  A structured op
    gathers, then mixes each (L, R) pair with its 2x2 block: the mode axis
    reshaped to (2, n_oam) is (pol, l + l_max), the README order.
    """
    if op._entries is not None:
        rows, cols, vals = op._entries
        terms = vals * vector[cols]
        dim = op.space.dimension
        out = np.empty(dim, dtype=complex)
        out.real = np.bincount(rows, terms.real, dim)
        out.imag = np.bincount(rows, terms.imag, dim)
        return out
    out = vector[op.source]
    if op.blocks is not None:
        pairs = out.reshape(2, op.space.n_oam)
        out = np.einsum("kpq,qk->pk", op.blocks, pairs).reshape(out.shape)
    return out


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
    """Apply an element: new amplitudes, renormalized by `PhotonState`; survival multiplied."""
    if op.space.dimension != state.space.dimension:
        raise ValueError(
            f"dimension mismatch: operator is {op.space.dimension}, state is "
            f"{state.space.dimension}"
        )
    _check_guard(op, state.amplitudes)
    amps = _act(op, state.amplitudes)
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

    The product is carried as its nonzero entries and each element is applied
    to them (see `_step`), so no dense dim x dim matrix is built: an element
    costs O(entries), and the benches' products have about dim of them.  The
    result is an ElementOp in the entries form, checked for unitarity.  The
    composite survival factor is the product of the factors, so it is lossy
    iff some input is, and the input mask excludes every basis
    state whose trajectory would touch a guarded mode of any stage.
    """
    if not ops:
        raise ValueError("cannot compose an empty element list")
    space = ops[0].space
    dim = space.dimension
    for op in ops:
        if op.space.l_max != space.l_max:
            raise ValueError("composed elements must share one mode space")
    rows, cols, vals = _identity_entries(dim)
    mask = np.ones(dim, dtype=bool)
    for op in ops:
        if op.input_mask is not None:
            blocked = ~op.input_mask[rows]
            leakage = np.bincount(cols[blocked], np.abs(vals[blocked]), dim)
            mask &= leakage <= GUARD_TOL
        rows, cols, vals = _step(op, rows, cols, vals)
    label = " -> ".join(op.label or "element" for op in ops)
    return ElementOp._from_entries(
        space,
        (rows, cols, vals),
        survival_factor=math.prod(op.survival_factor for op in ops),
        label=label,
        input_mask=None if mask.all() else mask,
    )
