"""Two-qubit logical encoding over joint polarization/OAM kets.

The control bit lives in polarization and the target bit in the OAM sign, but
the assignment is deliberately non-factorizable:

    |0,0> = |L,+2>    |0,1> = |R,-2>
    |1,0> = |R,+2>    |1,1> = |L,-2>

Decoding is therefore defined only on these four joint kets, never per
subsystem.  The four one-query oracles are realized as element chains that
share the two q-plates and two lenses; waveplates and the Dove prism are
inserted or removed to select the oracle (`ORACLE_CHAINS`).  `oracle_recipe`
writes each chain once, as each element's label, factory name and checked
spec, which the corpus files repeat as `.bench` statements.  `build_oracle`
calls each element's factory through the `elements` module, so the factory's
memo is the one cache of an oracle's ops.

`encode` builds each encoded ket once per space, in a private builder memoized
with `functools.lru_cache` (`_ket`), and shares it after: a state is
immutable, so a caller cannot tell it from a fresh one.  The space and the
bits are checked before the lookup, so invalid ones cache nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import elements
from .elements import APERTURE_L0, QPlateSpec, WaveplateSpec
from .errors import EncodingError, GateBrokenError
from .state import (
    LEFT,
    RIGHT,
    _MEMO_SIZE,
    ElementOp,
    ModeSpace,
    PhotonState,
    _is_int,
    _require_space,
    apply,
    basis_state,
    compose,
)

ORACLE_IDS = ("identity", "not", "cnot", "zcnot")

#: (f(0), f(1)) for the boolean function each oracle computes into the target bit
ORACLE_FUNCTIONS = {
    "identity": (0, 0),
    "not": (1, 1),
    "cnot": (0, 1),
    "zcnot": (1, 0),
}

CONSTANT = "constant"
BALANCED = "balanced"


def _oracle_function(oracle_id: str) -> tuple[int, int]:
    """(f(0), f(1)) of a known oracle id; the one check of an oracle id."""
    if oracle_id not in ORACLE_IDS:
        raise ValueError(f"unknown oracle {oracle_id!r}; expected one of {ORACLE_IDS}")
    return ORACLE_FUNCTIONS[oracle_id]


def oracle_class(oracle_id: str) -> str:
    f0, f1 = _oracle_function(oracle_id)
    return CONSTANT if f0 == f1 else BALANCED


LOGICAL_STATES: dict[tuple[int, int], tuple[str, int]] = {
    (0, 0): (LEFT, +2),
    (0, 1): (RIGHT, -2),
    (1, 0): (RIGHT, +2),
    (1, 1): (LEFT, -2),
}

#: decode tolerance: the dominant encoded ket must carry amplitude 1 to this
DECODE_TOL = 1e-9


def encode(space: ModeSpace, bits: tuple[int, int]) -> PhotonState:
    """Physical ket for logical |x, y>."""
    _require_space(space)
    if not (isinstance(bits, tuple) and all(map(_is_int, bits)) and bits in LOGICAL_STATES):
        raise EncodingError(f"logical bits must be in {{0,1}}^2, got {bits!r}")
    return _ket(space, bits)


# four kets per space, of 64 KB each at l_max 1000; at most _MEMO_SIZE (32), 2 MB
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _ket(space: ModeSpace, bits: tuple[int, int]) -> PhotonState:
    return basis_state(space, *LOGICAL_STATES[bits])


def decode(state: PhotonState) -> tuple[int, int]:
    """Logical bits of a pure encoded basis state; rejects anything else."""
    bits, _ = _decode_with_phase(state)
    return bits


def _decode_with_phase(state: PhotonState) -> tuple[tuple[int, int], complex]:
    best_bits = None
    best_amp = 0j
    for bits, (pol, l) in LOGICAL_STATES.items():
        amp = state.amplitude(pol, l)
        if abs(amp) > abs(best_amp):
            best_bits, best_amp = bits, amp
    if best_bits is None or abs(abs(best_amp) - 1.0) > DECODE_TOL:
        raise EncodingError(
            "state is not an encoded basis ket (no single |pol,+-2> component "
            f"with amplitude 1; largest is {abs(best_amp):.6f})"
        )
    return best_bits, best_amp


@dataclass(frozen=True, eq=False)
class OracleBench:
    """Ordered element chain realizing one oracle."""

    oracle_id: str
    elements: tuple[ElementOp, ...]


#: each oracle's element labels in physical order
ORACLE_CHAINS = {
    "identity": ("QP1", "L1", "L2", "QP2"),
    "not": ("QP1", "L1", "L2", "QP2", "HWP3", "DP"),
    "cnot": ("QP1", "L1", "HWP1", "L2", "QP2"),
    "zcnot": ("HWP2", "QP1", "L1", "HWP1", "L2", "QP2", "HWP3"),
}
#: the q-plates' charge, and the parts of the recipe that take no argument (all immutable)
_Q1, _HWP = Fraction(1), ("hwp", WaveplateSpec(0.0))
_LENS, _DOVE = ("lens", None), ("dove_prism", None)


def oracle_recipe(
    oracle_id: str, eta: float = 1.0, crosstalk: float = 0.0
) -> tuple[tuple[str, str, QPlateSpec | WaveplateSpec | None], ...]:
    """(label, factory name, spec) of each element of an oracle's chain, in physical
    order, the spec None for a lens or a Dove prism.  HWP1's spec is made for every
    oracle, so all four check crosstalk."""
    _oracle_function(oracle_id)
    qp, hwp1 = ("qplate", QPlateSpec(_Q1, eta)), ("hwp", WaveplateSpec(0.0, APERTURE_L0, crosstalk))
    parts = {"QP1": qp, "QP2": qp, "L1": _LENS, "L2": _LENS, "HWP1": hwp1, "HWP2": _HWP,
             "HWP3": _HWP, "DP": _DOVE}
    return tuple([(label, *parts[label]) for label in ORACLE_CHAINS[oracle_id]])


def build_oracle(
    space: ModeSpace, oracle_id: str, eta: float = 1.0, crosstalk: float = 0.0
) -> OracleBench:
    """Build the chain of `oracle_recipe`, each element by its factory under its label."""
    _require_space(space)
    return OracleBench(oracle_id, tuple([
        elements._build(space, name, spec, label)
        for label, name, spec in oracle_recipe(oracle_id, eta, crosstalk)
    ]))


def truth_table(
    bench: OracleBench,
) -> dict[tuple[int, int], tuple[tuple[int, int], complex]]:
    """Map each encoded basis state through the composed bench.

    Returns {(x, y): ((x', y'), phase)} where phase is the output amplitude on
    the decoded ket.  Raises GateBrokenError if any output leaves the encoded
    subspace.
    """
    space = bench.elements[0].space
    composed = compose(bench.elements)
    table = {}
    for bits in LOGICAL_STATES:
        out = apply(composed, encode(space, bits))
        try:
            out_bits, phase = _decode_with_phase(out)
        except EncodingError as exc:
            raise GateBrokenError(
                f"oracle {bench.oracle_id!r} maps {bits} outside the encoded "
                f"subspace: {exc}"
            ) from exc
        table[bits] = (out_bits, phase)
    return table


_BIT_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def logical_matrix(oracle_id: str) -> np.ndarray:
    """Ideal 4x4 permutation |x,y> -> |x, y XOR f(x)>, built directly from f."""
    f = _oracle_function(oracle_id)
    matrix = np.zeros((4, 4), dtype=complex)
    for j, (x, y) in enumerate(_BIT_ORDER):
        i = _BIT_ORDER.index((x, y ^ f[x]))
        matrix[i, j] = 1.0
    return matrix
