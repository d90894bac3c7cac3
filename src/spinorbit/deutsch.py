"""One-query oracle discrimination on the photonic bench.

The input photon is prepared as (|L> - |R>)(|+2> + |-2>)/2: a vertical
polarizer followed by a hologram that sets the OAM to the symmetric +2/-2
superposition.  After the oracle chain, a polarizing beam splitter sends
horizontal polarization to detector D1 and vertical to D2: a D2 click means
the oracle's boolean function is constant, a D1 click means balanced.  The
same verdict can be read from the OAM side by sorting onto the symmetric /
antisymmetric +2/-2 superpositions.

Loss is scalar, so detector probabilities are reported conditioned on the
photon surviving; `survival` carries the heralding factor separately.

The probe and the expected outputs depend only on the truncation, so each is
built and checked once per space (and oracle), in a private builder memoized
with `functools.lru_cache` (`_probe`, `_expected`), and shared after: a state
is immutable, so a caller cannot tell it from a fresh one.  The arguments are
checked before the lookup, so an invalid one caches nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dsl import Preparation
from .elements import _check_eta_and_crosstalk
from .logic import BALANCED, CONSTANT, _oracle_function, build_oracle, oracle_class
from .state import (
    DEFAULT_L_MAX,
    H_CIRCULAR,
    LEFT,
    PhotonState,
    RIGHT,
    ModeSpace,
    V_CIRCULAR,
    _INV_SQRT2,
    _MEMO_SIZE,
    _is_int,
    _norm_squared,
    _require_numbers,
    _require_space,
    apply_chain,
    fidelity_up_to_phase,
    make_space,
)

PBS = "pbs"
OAM_SORTER = "oam"
MEASUREMENTS = (PBS, OAM_SORTER)

INCONCLUSIVE = "inconclusive"

#: the verdict rule: a port whose probability is above this gives its verdict
THRESHOLD = 0.99

#: most shots one draw can tally: numpy's multinomial counts in int64
MAX_SHOTS = 2**63 - 1


#: the probe's recipe, made once: a Preparation checks its fields when made
_PROBE = Preparation("V", (2, -2))


def prepare_input(space: ModeSpace) -> PhotonState:
    """Prepared probe state: amplitudes (+1, +1, -1, -1)/2 on (L,+2), (L,-2), (R,+2), (R,-2)."""
    return _probe(_require_space(space))


# the probe and expected-output memos hold states of 64 KB each at l_max 1000,
# at most _MEMO_SIZE (32) each: 2 MB per memo at worst
@functools.lru_cache(maxsize=_MEMO_SIZE)
def _probe(space: ModeSpace) -> PhotonState:
    return _PROBE.initial_state(space)


def expected_output(space: ModeSpace, oracle_id: str) -> PhotonState:
    """Analytic output state for each oracle, with its exact sign.

    identity: +input;  not: -input;
    cnot: +(|L> + |R>)(|+2> - |-2>)/2;  zcnot: the same with a - sign.
    """
    _require_space(space)
    _oracle_function(oracle_id)
    return _expected(space, oracle_id)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _expected(space: ModeSpace, oracle_id: str) -> PhotonState:
    if oracle_class(oracle_id) == CONSTANT:
        base = prepare_input(space).amplitudes.copy()
    else:
        base = np.zeros(space.dimension, dtype=complex)
        base[space.index(LEFT, +2)] = 0.5
        base[space.index(RIGHT, +2)] = 0.5
        base[space.index(LEFT, -2)] = -0.5
        base[space.index(RIGHT, -2)] = -0.5
    # Deutsch's output carries the global phase (-1)^f(0)
    sign = -1.0 if _oracle_function(oracle_id)[0] else 1.0
    return PhotonState(space, sign * base)


#: <H| and <V| as the rows of one matrix, built once: a stack per call costs
#: more than the product it feeds at small l_max
_HV_BRAS = np.stack((H_CIRCULAR, V_CIRCULAR)).conj()


def measure_pbs(state: PhotonState) -> tuple[float, float]:
    """(p_D1, p_D2): squared norms of the H and V projections across all OAM, from
    one product of <H| and <V| with the (L, R) pair of every l."""
    h, v = _HV_BRAS @ state.amplitudes.reshape(2, state.space.n_oam)
    return _norm_squared(h), _norm_squared(v)


class OamSorterProbs(NamedTuple):
    """Probabilities on (|+2> + |-2>)/sqrt(2), (|+2> - |-2>)/sqrt(2), and the rest."""

    p_plus: float
    p_minus: float
    residual: float


def measure_oam_superposition(state: PhotonState) -> OamSorterProbs:
    p_plus = 0.0
    p_minus = 0.0
    for pol in (LEFT, RIGHT):
        a2 = state.amplitudes[state.space.index(pol, +2)]
        am2 = state.amplitudes[state.space.index(pol, -2)]
        p_plus += float(abs((a2 + am2) * _INV_SQRT2) ** 2)
        p_minus += float(abs((a2 - am2) * _INV_SQRT2) ** 2)
    return OamSorterProbs(p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus))


def classify(p_balanced_port: float, p_constant_port: float) -> str:
    """Verdict from the two detector probabilities (conditioned on survival): the
    port above `THRESHOLD`, else inconclusive."""
    _require_numbers(p_balanced_port=p_balanced_port, p_constant_port=p_constant_port)
    for name, p in (("p_balanced_port", p_balanced_port), ("p_constant_port", p_constant_port)):
        # written so that NaN fails too; a sum of squares of a unit vector's
        # parts can pass 1 by a few ulp, and no more
        if not 0.0 <= p <= 1.0 + 1e-12:
            raise ValueError(f"{name} must be a probability in [0, 1], got {p!r}")
    if p_constant_port > THRESHOLD:
        return CONSTANT
    if p_balanced_port > THRESHOLD:
        return BALANCED
    return INCONCLUSIVE


@dataclass(frozen=True)
class ShotTally:
    """Seeded detector-click tallies; n_residual is nonzero only for the OAM sorter."""

    shots: int
    seed: int
    n_d1: int
    n_d2: int
    n_lost: int
    n_residual: int = 0

    def to_dict(self) -> dict:
        out = {
            "shots": self.shots,
            "seed": self.seed,
            "n_D1": self.n_d1,
            "n_D2": self.n_d2,
            "n_lost": self.n_lost,
        }
        if self.n_residual:
            out["n_residual"] = self.n_residual
        return out


@dataclass(frozen=True)
class RunReport:
    """Everything one bench run produces, for both detection schemes."""

    oracle_id: str
    measurement: str
    p_d1: float
    p_d2: float
    p_plus: float
    p_minus: float
    residual: float
    survival: float
    verdict: str
    output_fidelity: float
    shots: ShotTally | None = None

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle_id,
            "measurement": self.measurement,
            "p_D1": self.p_d1,
            "p_D2": self.p_d2,
            "oam_sorter": {
                "p_plus": self.p_plus,
                "p_minus": self.p_minus,
                "residual": self.residual,
            },
            "survival": self.survival,
            "verdict": self.verdict,
            "output_fidelity": self.output_fidelity,
            "threshold": THRESHOLD,
            "shots": None if self.shots is None else self.shots.to_dict(),
        }


def _shots_and_seed(shots: int, seed: int) -> tuple[int, int]:
    """`shots` and `seed` as ints: the rule `sample_counts` and `run` share."""
    if not (_is_int(shots) and 0 <= shots <= MAX_SHOTS):
        raise ValueError(f"shots must be an integer in [0, {MAX_SHOTS}], got {shots!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(shots), int(seed)


def sample_counts(probabilities: Sequence[float], shots: int, seed: int) -> np.ndarray:
    """Multinomial tallies over outcome categories, reproducible per seed.

    The draw uses SeedSequence(seed, spawn_key=(0,)), the first stream SeedSequence(seed) spawns.
    """
    shots, seed = _shots_and_seed(shots, seed)
    try:
        weights = list(probabilities)
    except TypeError:
        raise TypeError(
            f"probabilities must be a sequence of numbers, got {type(probabilities).__name__}"
        ) from None
    _require_numbers(**{f"probabilities[{i}]": p for i, p in enumerate(weights)})
    try:
        probs = np.asarray(weights, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"probabilities must be finite, got {weights!r}") from None
    if not np.isfinite(probs).all():
        raise ValueError(f"probabilities must be finite, got {probs.tolist()!r}")
    if (probs < -1e-12).any():
        raise ValueError(f"probabilities must be non-negative, got {probs.tolist()!r}")
    probs = np.clip(probs, 0.0, None)
    with np.errstate(over="ignore"):  # finite weights can sum to inf, rejected below
        total = probs.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"probabilities must have a positive, finite sum, got {total!r}")
    probs = probs / total
    stream = np.random.SeedSequence(seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(stream)).multinomial(shots, probs)


def run(
    oracle_id: str,
    eta: float = 1.0,
    crosstalk: float = 0.0,
    shots: int | None = None,
    seed: int = 0,
    l_max: int = DEFAULT_L_MAX,
    measurement: str = PBS,
) -> RunReport:
    """Prepare, run one oracle bench, measure, classify, optionally sample clicks."""
    # every argument is checked before make_space checks l_max; seed even without shots
    _oracle_function(oracle_id)
    if measurement not in MEASUREMENTS:
        raise ValueError(f"measurement must be one of {MEASUREMENTS}")
    n_shots, seed = _shots_and_seed(0 if shots is None else shots, seed)
    _check_eta_and_crosstalk(eta, crosstalk)
    space = make_space(l_max)
    bench = build_oracle(space, oracle_id, eta=eta, crosstalk=crosstalk)
    output = apply_chain(bench.elements, prepare_input(space))

    p_d1, p_d2 = measure_pbs(output)
    sorter = measure_oam_superposition(output)
    fidelity = fidelity_up_to_phase(output, expected_output(space, oracle_id))

    # the detector's (balanced, constant) ports, then the sorter's residual bucket
    if measurement == PBS:
        outcomes = (p_d1, p_d2)
    else:
        outcomes = (sorter.p_minus, sorter.p_plus, sorter.residual)
    verdict = classify(*outcomes[:2])

    tally = None
    if shots is not None:
        s = output.survival
        probabilities = [p * s for p in outcomes] + [1.0 - s]
        n_d1, n_d2, *n_residual, n_lost = sample_counts(probabilities, n_shots, seed).tolist()
        tally = ShotTally(n_shots, seed, n_d1, n_d2, n_lost, *n_residual)

    return RunReport(
        oracle_id=oracle_id,
        measurement=measurement,
        p_d1=p_d1,
        p_d2=p_d2,
        p_plus=sorter.p_plus,
        p_minus=sorter.p_minus,
        residual=sorter.residual,
        survival=output.survival,
        verdict=verdict,
        output_fidelity=fidelity,
        shots=tally,
    )
