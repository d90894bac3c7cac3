"""Independent mode propagator used to check the program's outputs.

Amplitudes live in a dict keyed by ``(pol, l)`` with ``pol`` in ``"LR"``; every
element is applied from the conventions stated in the top-level README, with
no code shared with ``spinorbit``:

* q-plate of charge q: ``|L,l> -> |R,l+2q>``, ``|R,l> -> |L,l-2q>``;
* half-wave plate at theta: ``|L> -> e^{2i theta}|R>``, ``|R> -> e^{-2i theta}|L>``
  (the circular form of ``[[cos 2t, sin 2t], [sin 2t, -cos 2t]]``);
* OAM-selective plate (``aperture=l0``): the half-wave plate on ``l = 0`` and
  the residual retarder ``diag(1, e^{i eps pi})`` (H/V) on every ``l != 0``;
* Dove prism: ``l -> -l``;  lens: identity.

A key stays in the dict once some path reaches it, even when interference or
a zero coefficient leaves its amplitude at 0; a path is followed only when
its coefficient is structurally non-zero (the retarder's stay term vanishes
only at eps = 1, its flip term only at eps = 0).  The keys are therefore the
modes light *can* occupy, which is what decides truncation overflow.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

INV_SQRT2 = 1.0 / math.sqrt(2.0)
FLIP = {"L": "R", "R": "L"}

#: the paper's four oracle chains in application order (README / Fig. 2)
ORACLE_CHAINS = {
    "identity": ("QP", "LENS", "LENS", "QP"),
    "not": ("QP", "LENS", "LENS", "QP", "HWP", "DOVE"),
    "cnot": ("QP", "LENS", "HWP_L0", "LENS", "QP"),
    "zcnot": ("HWP", "QP", "LENS", "HWP_L0", "LENS", "QP", "HWP"),
}

#: f(0), f(1) of the boolean function each oracle computes
ORACLE_FUNCTIONS = {"identity": (0, 0), "not": (1, 1), "cnot": (0, 1), "zcnot": (1, 0)}

VERDICT_THRESHOLD = 0.99


class Overflow(Exception):
    """A q-plate would push a reachable mode outside ``|l| <= l_max``."""

    def __init__(self, index: int, pol: str, l: int, target: int):
        super().__init__(f"element {index}: |{pol},{l:+d}> -> {target:+d}")
        self.index = index


def prepare(axis: str, oams) -> dict:
    """``(|L> -+ |R>)/sqrt2`` for V/H, times a uniform superposition over ``oams``."""
    weight = 1.0 / math.sqrt(len(oams))
    r_sign = -1.0 if axis == "V" else 1.0
    state = {}
    for l in oams:
        state[("L", l)] = complex(INV_SQRT2 * weight)
        state[("R", l)] = complex(r_sign * INV_SQRT2 * weight)
    return state


def _add(out: dict, key, amp: complex) -> None:
    out[key] = out.get(key, 0j) + amp


def qplate(state: dict, q: Fraction, l_max: int, index: int = 0) -> dict:
    shift = int(2 * Fraction(q))
    out = {}
    for (pol, l), amp in state.items():
        target = l + shift if pol == "L" else l - shift
        if abs(target) > l_max:
            raise Overflow(index, pol, l, target)
        _add(out, (FLIP[pol], target), amp)
    return out


def hwp(state: dict, theta: float) -> dict:
    phase = {"L": cmath.exp(2j * theta), "R": cmath.exp(-2j * theta)}
    return {(FLIP[pol], l): phase[pol] * amp for (pol, l), amp in state.items()}


def hwp_l0(state: dict, theta: float, crosstalk: float) -> dict:
    p = cmath.exp(1j * math.pi * crosstalk)
    stay, flip = (1 + p) / 2, (1 - p) / 2
    phase = {"L": cmath.exp(2j * theta), "R": cmath.exp(-2j * theta)}
    out = {}
    for (pol, l), amp in state.items():
        if l == 0:
            _add(out, (FLIP[pol], 0), phase[pol] * amp)
            continue
        if crosstalk != 1.0:
            _add(out, (pol, l), stay * amp)
        if crosstalk != 0.0:
            _add(out, (FLIP[pol], l), flip * amp)
    return out


def dove(state: dict) -> dict:
    return {(pol, -l): amp for (pol, l), amp in state.items()}


def propagate(state: dict, chain, l_max: int) -> tuple[dict, float]:
    """Apply ``chain`` (tuples ``(kind, params...)``); returns (state, survival).

    Kinds: ``("qplate", q, eta)``, ``("hwp", theta)``, ``("hwp_l0", theta,
    crosstalk)``, ``("dove",)``, ``("lens",)``.  Raises Overflow naming the
    1-based element index.
    """
    survival = 1.0
    for index, (kind, *params) in enumerate(chain, start=1):
        if kind == "qplate":
            q, eta = params
            state = qplate(state, q, l_max, index)
            survival *= eta
        elif kind == "hwp":
            state = hwp(state, params[0])
        elif kind == "hwp_l0":
            state = hwp_l0(state, params[0], params[1])
        elif kind == "dove":
            state = dove(state)
        elif kind != "lens":
            raise ValueError(f"unknown element kind {kind!r}")
    return state, survival


def oracle_chain(oracle_id: str, eta: float = 1.0, crosstalk: float = 0.0) -> list:
    recipe = {
        "QP": ("qplate", Fraction(1), eta),
        "LENS": ("lens",),
        "HWP": ("hwp", 0.0),
        "HWP_L0": ("hwp_l0", 0.0, crosstalk),
        "DOVE": ("dove",),
    }
    return [recipe[name] for name in ORACLE_CHAINS[oracle_id]]


def probe() -> dict:
    """The paper's input ``(|L> - |R>)(|+2> + |-2>)/2``."""
    return prepare("V", (2, -2))


def analytic_output(oracle_id: str) -> dict:
    """+input (identity), -input (not), +-(|L>+|R>)(|+2>-|-2>)/2 (cnot, zcnot)."""
    if oracle_id in ("identity", "not"):
        sign = 1.0 if oracle_id == "identity" else -1.0
        return {k: sign * a for k, a in probe().items()}
    sign = 0.5 if oracle_id == "cnot" else -0.5
    return {
        ("L", 2): sign, ("R", 2): sign, ("L", -2): -sign, ("R", -2): -sign,
    }


def pbs(state: dict) -> tuple[float, float]:
    """(p_H, p_V) with ``|H> = (|L>+|R>)/sqrt2`` and ``|V> = -i(|L>-|R>)/sqrt2``."""
    ls = {l for _, l in state}
    p_h = p_v = 0.0
    for l in ls:
        a_l, a_r = state.get(("L", l), 0j), state.get(("R", l), 0j)
        p_h += abs((a_l + a_r) * INV_SQRT2) ** 2
        p_v += abs((a_l - a_r) * INV_SQRT2) ** 2
    return p_h, p_v


def oam_sorter(state: dict) -> tuple[float, float, float]:
    """Weights on ``(|+2> +- |-2>)/sqrt2`` and the rest."""
    p_plus = p_minus = 0.0
    for pol in "LR":
        a, b = state.get((pol, 2), 0j), state.get((pol, -2), 0j)
        p_plus += abs((a + b) * INV_SQRT2) ** 2
        p_minus += abs((a - b) * INV_SQRT2) ** 2
    return p_plus, p_minus, max(0.0, 1.0 - p_plus - p_minus)


def overlap2(a: dict, b: dict) -> float:
    """``|<a|b>|^2``."""
    return abs(sum(amp.conjugate() * b.get(k, 0j) for k, amp in a.items())) ** 2


def verdict(p_balanced: float, p_constant: float) -> str:
    """The documented rule: a port above 0.99 decides, otherwise inconclusive."""
    if p_constant > VERDICT_THRESHOLD:
        return "constant"
    if p_balanced > VERDICT_THRESHOLD:
        return "balanced"
    return "inconclusive"


def oracle_expectation(oracle_id: str, eta: float, crosstalk: float, measurement: str) -> dict:
    """Every figure ``deutsch.run`` reports, computed from the conventions alone."""
    out, survival = propagate(probe(), oracle_chain(oracle_id, eta, crosstalk), 6)
    p_d1, p_d2 = pbs(out)
    p_plus, p_minus, residual = oam_sorter(out)
    if measurement == "pbs":
        v = verdict(p_d1, p_d2)
    else:
        v = verdict(p_minus, p_plus)
    return {
        "p_d1": p_d1, "p_d2": p_d2, "p_plus": p_plus, "p_minus": p_minus,
        "residual": residual, "survival": survival, "verdict": v,
        "output_fidelity": min(1.0, overlap2(analytic_output(oracle_id), out)),
    }


def self_test() -> None:
    """The four analytic outputs of the paper, with their exact signs."""
    for oracle_id in ORACLE_CHAINS:
        out, _ = propagate(probe(), oracle_chain(oracle_id), 6)
        want = analytic_output(oracle_id)
        for key in set(out) | set(want):
            if abs(out.get(key, 0j) - want.get(key, 0j)) > 1e-15:
                raise AssertionError(f"propagator: {oracle_id} output differs at {key}")
