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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .logic import ORACLE_IDS, build_oracle
from .state import (
    H_CIRCULAR,
    LEFT,
    PhotonState,
    RIGHT,
    ModeSpace,
    V_CIRCULAR,
    apply_chain,
    fidelity_up_to_phase,
    make_space,
)

PBS = "pbs"
OAM_SORTER = "oam"
MEASUREMENTS = (PBS, OAM_SORTER)

CONSTANT = "constant"
BALANCED = "balanced"
INCONCLUSIVE = "inconclusive"

DEFAULT_THRESHOLD = 0.99
DEFAULT_L_MAX = 6

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def prepare_input(space: ModeSpace) -> PhotonState:
    """Prepared probe state: amplitudes (+1, +1, -1, -1)/2 on (L,+2), (L,-2), (R,+2), (R,-2)."""
    amps = np.zeros(space.dimension, dtype=complex)
    amps[space.index(LEFT, +2)] = 0.5
    amps[space.index(LEFT, -2)] = 0.5
    amps[space.index(RIGHT, +2)] = -0.5
    amps[space.index(RIGHT, -2)] = -0.5
    return PhotonState(space, amps)


def expected_output(space: ModeSpace, oracle_id: str) -> PhotonState:
    """Analytic output state for each oracle, with its exact sign.

    identity: +input;  not: -input;
    cnot: +(|L> + |R>)(|+2> - |-2>)/2;  zcnot: the same with a - sign.
    """
    if oracle_id in ("identity", "not"):
        base = prepare_input(space).amplitudes.copy()
        sign = 1.0 if oracle_id == "identity" else -1.0
    else:
        base = np.zeros(space.dimension, dtype=complex)
        base[space.index(LEFT, +2)] = 0.5
        base[space.index(RIGHT, +2)] = 0.5
        base[space.index(LEFT, -2)] = -0.5
        base[space.index(RIGHT, -2)] = -0.5
        sign = 1.0 if oracle_id == "cnot" else -1.0
    return PhotonState(space, sign * base)


def measure_pbs(state: PhotonState) -> tuple[float, float]:
    """(p_D1, p_D2): squared norms of the H and V projections across all OAM."""
    p_h = 0.0
    p_v = 0.0
    for l in state.space.oam_values():
        pair = np.array(
            [state.amplitudes[state.space.index(LEFT, l)],
             state.amplitudes[state.space.index(RIGHT, l)]]
        )
        p_h += abs(np.vdot(H_CIRCULAR, pair)) ** 2
        p_v += abs(np.vdot(V_CIRCULAR, pair)) ** 2
    return float(p_h), float(p_v)


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
        p_plus += abs((a2 + am2) * _INV_SQRT2) ** 2
        p_minus += abs((a2 - am2) * _INV_SQRT2) ** 2
    residual = max(0.0, 1.0 - p_plus - p_minus)
    return OamSorterProbs(float(p_plus), float(p_minus), residual)


def _check_threshold(threshold: float) -> None:
    # below 0.5 both ports could pass; at 1 no port ever can
    if not 0.5 <= threshold < 1.0:
        raise ValueError(f"threshold must lie in [0.5, 1), got {threshold!r}")


def classify(
    p_balanced_port: float, p_constant_port: float, threshold: float = DEFAULT_THRESHOLD
) -> str:
    """Verdict from the two detector probabilities (conditioned on survival)."""
    _check_threshold(threshold)
    if p_constant_port > threshold:
        return CONSTANT
    if p_balanced_port > threshold:
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
    threshold: float = DEFAULT_THRESHOLD
    shots: ShotTally | None = None

    def to_dict(self) -> dict:
        out = {
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
            "threshold": self.threshold,
        }
        out["shots"] = self.shots.to_dict() if self.shots is not None else None
        return out


def sample_counts(
    probabilities: Sequence[float], shots: int, seed: int, batches: int = 1
) -> np.ndarray:
    """Multinomial tallies over outcome categories, reproducible per (seed, batches).

    Each batch draws from its own deterministically spawned stream, so batches
    may be evaluated concurrently without changing the result.
    """
    probs = np.asarray(probabilities, dtype=float)
    if (probs < -1e-12).any():
        raise ValueError("negative outcome probability")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if batches < 1:
        raise ValueError("batches must be >= 1")
    per_batch = [shots // batches] * batches
    per_batch[0] += shots - sum(per_batch)
    counts = np.zeros(len(probs), dtype=np.int64)
    for child, n in zip(np.random.SeedSequence(seed).spawn(batches), per_batch):
        counts += np.random.default_rng(child).multinomial(n, probs)
    return counts


def run(
    oracle_id: str,
    eta: float = 1.0,
    crosstalk: float = 0.0,
    shots: int | None = None,
    seed: int = 0,
    l_max: int = DEFAULT_L_MAX,
    measurement: str = PBS,
    threshold: float = DEFAULT_THRESHOLD,
) -> RunReport:
    """Prepare, run one oracle bench, measure, classify, optionally sample clicks."""
    if oracle_id not in ORACLE_IDS:
        raise ValueError(f"unknown oracle {oracle_id!r}; expected one of {ORACLE_IDS}")
    if measurement not in MEASUREMENTS:
        raise ValueError(f"measurement must be one of {MEASUREMENTS}")
    _check_threshold(threshold)
    space = make_space(l_max)
    bench = build_oracle(space, oracle_id, eta=eta, crosstalk=crosstalk)
    output = apply_chain(bench.elements, prepare_input(space))

    p_d1, p_d2 = measure_pbs(output)
    sorter = measure_oam_superposition(output)
    fidelity = fidelity_up_to_phase(output, expected_output(space, oracle_id))

    if measurement == PBS:
        verdict = classify(p_d1, p_d2, threshold)
    else:
        verdict = classify(sorter.p_minus, sorter.p_plus, threshold)

    tally = None
    if shots is not None:
        s = output.survival
        if measurement == PBS:
            counts = sample_counts([p_d1 * s, p_d2 * s, 1.0 - s], shots, seed)
            tally = ShotTally(shots, seed, int(counts[0]), int(counts[1]), int(counts[2]))
        else:
            counts = sample_counts(
                [sorter.p_minus * s, sorter.p_plus * s, sorter.residual * s, 1.0 - s],
                shots,
                seed,
            )
            tally = ShotTally(
                shots, seed, int(counts[0]), int(counts[1]), int(counts[3]),
                n_residual=int(counts[2]),
            )

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
        threshold=threshold,
        shots=tally,
    )
