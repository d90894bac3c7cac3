"""Seeded ``.bench`` texts for the ``benchfiles`` workload, and a reader for the corpus.

A generated bench is kept as a chain of propagator elements plus its
preparation, and written out as text here, so the program under test only
ever sees text.  Which benches stay inside the truncation, and at which
element the others overflow, is decided by ``propagator``, never by
``spinorbit.compile_bench``.

Each round uses the same slot table (``SLOTS``); the seed picks element
parameters, order, preparation, measurement and the planted faults.  So every
seed gives the same mix of truncations, chain lengths and element kinds, and
per-operation cost does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import propagator as prop

KIND_CYCLE = ("qplate", "hwp", "hwp_l0", "qplate", "dove", "lens")
Q_CHOICES = tuple(Fraction(n, 2) for n in (1, 2, 3, 4, -1, -2, -3, -4))

#: (role, l_max, elements).  Costs rise from the rejected texts through the
#: corpus to three bands of valid benches of about equal cost inside each
#: band: ~1.5 ms, ~2.1 ms and ~2.9 ms at l_max 12 / 11 elements on the
#: reference machine.  p50 falls in the middle of the first band, p90 in the
#: middle of the last.
SLOTS = (
    [("syntax", l_max, 4) for l_max in (4, 6, 8, 10, 12)]
    + [("overflow", l_max, 5) for l_max in (5, 7, 9, 11, 12)]
    + [("valid", 4, 3)]
    + [("valid", l, n) for l, n in ((5, 10), (6, 9), (7, 8), (8, 7), (9, 6), (10, 6), (11, 5), (12, 5))]
    + [("valid", l, n) for l, n in ((5, 15), (6, 13), (7, 12), (8, 11), (9, 10), (10, 9), (11, 8), (12, 7))]
    + [("valid", l, n) for l, n in ((5, 21), (6, 19), (7, 17), (8, 15), (9, 14), (10, 13), (11, 12), (12, 11))]
)

#: replacement lines that each make exactly one parse error on their line
BAD_LINES = (
    "qplate q=abc",
    "qplate q=1/0",
    "qplate eta=0.9",
    "qplate q=1 q=2",
    "hwp theta=nan",
    "hwp theta=0.1 aperture=xy",
    "hwp theta=1 crosstalk",
    "lens 3",
    "dove angle=zero",
    "mirror angle=1",
    "measure pbs oam_sorter",
    "prepare polarizer D",
)


@dataclass(frozen=True)
class BenchText:
    """One input text and what the pipeline must make of it."""

    role: str  # "valid", "corpus", "syntax" or "overflow"
    text: str
    l_max: int
    axis: str
    oams: tuple[int, ...]
    chain: tuple
    measure: str | None
    bad_lines: tuple[int, ...] = ()  # syntax: planted error lines
    overflow_at: tuple[int, int] | None = None  # overflow: (element index, line)


def _fmt(x: float) -> str:
    return repr(float(x))


def _q_text(q: Fraction, rng: random.Random) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return str(q) if rng.random() < 0.5 else _fmt(float(q))


def element_line(element, rng: random.Random) -> str:
    kind, *params = element
    if kind == "qplate":
        q, eta = params
        return f"qplate q={_q_text(q, rng)}" + ("" if eta == 1.0 else f" eta={_fmt(eta)}")
    if kind == "hwp":
        return f"hwp theta={_fmt(params[0])}"
    if kind == "hwp_l0":
        theta, crosstalk = params
        return f"hwp theta={_fmt(theta)} aperture=l0 crosstalk={_fmt(crosstalk)}"
    return kind


def _random_param_element(kind: str, rng: random.Random):
    if kind == "hwp":
        return ("hwp", rng.uniform(-math.pi, math.pi))
    if kind == "hwp_l0":
        crosstalk = rng.choice((0.0, 1.0, rng.random(), rng.random()))
        return ("hwp_l0", rng.uniform(-math.pi, math.pi), crosstalk)
    if kind == "qplate":
        eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.9, 1.0)
        return ("qplate", rng.choice(Q_CHOICES), eta)
    return (kind,)


def _grow_chain(kinds, support: dict, l_max: int, rng: random.Random):
    """Parameters for ``kinds`` in order, with every q-plate kept in range.

    Returns (chain, support) or None when some q-plate has no q that fits.
    """
    chain = []
    for kind in kinds:
        element = _random_param_element(kind, rng)
        if kind == "qplate":
            _, _, eta = element
            fits = []
            for q in Q_CHOICES:
                try:
                    prop.qplate(support, q, l_max)
                except prop.Overflow:
                    continue
                fits.append(q)
            if not fits:
                return None
            element = ("qplate", rng.choice(fits), eta)
        support, _ = prop.propagate(support, [element], l_max)
        chain.append(element)
    return chain, support


def _render(l_max, axis, oams, chain, measure, rng) -> list[str]:
    lines = []
    if rng.random() < 0.3:
        lines.append("# generated bench")
    lines.append(f"space lmax={l_max}")
    lines.append(f"prepare polarizer {axis}")
    lines.append("prepare hologram oam=" + ",".join(f"{l:+d}" for l in oams))
    lines.extend(element_line(e, rng) for e in chain)
    lines.append(f"measure {measure}")
    return lines


def _preparation(l_max: int, rng: random.Random):
    axis = rng.choice("HV")
    span = min(l_max, 3)
    oams = tuple(rng.sample(range(-span, span + 1), rng.randint(1, 3)))
    return axis, oams


def generate(role: str, l_max: int, n: int, rng: random.Random) -> BenchText:
    kinds = [KIND_CYCLE[i % len(KIND_CYCLE)] for i in range(n)]
    while True:
        rng.shuffle(kinds)
        axis, oams = _preparation(l_max, rng)
        start = prop.prepare(axis, oams)
        measure = rng.choice(("pbs", "oam_sorter"))
        if role == "overflow":
            k = rng.randint(2, n)
            grown = _grow_chain(kinds[: k - 1], start, l_max, rng)
            if grown is None:
                continue
            prefix, support = grown
            # a charge that pushes one reachable mode just past the edge:
            # L moves by +2q and R by -2q
            pol, l = rng.choice(sorted(support))
            sign = rng.choice((1, -1))
            room = l_max - l if (pol == "L") == (sign > 0) else l_max + l
            q = sign * Fraction(room + 1 + rng.randint(0, 2), 2)
            eta = 1.0 if rng.random() < 0.5 else rng.uniform(0.9, 1.0)
            tail = [_random_param_element(kind, rng) for kind in kinds[k:]]
            chain = prefix + [("qplate", q, eta)] + tail
            try:
                prop.propagate(start, chain, l_max)
            except prop.Overflow as exc:
                if exc.index != k:
                    continue
            else:
                continue
            lines = _render(l_max, axis, oams, chain, measure, rng)
            header = len(lines) - len(chain) - 1
            return BenchText("overflow", "\n".join(lines) + "\n", l_max, axis, oams,
                             tuple(chain), measure, overflow_at=(k, header + k))
        grown = _grow_chain(kinds, start, l_max, rng)
        if grown is None:
            continue
        chain, _ = grown
        lines = _render(l_max, axis, oams, chain, measure, rng)
        if role == "valid":
            return BenchText("valid", "\n".join(lines) + "\n", l_max, axis, oams,
                             tuple(chain), measure)
        # syntax: replace `errors` element lines by lines that cannot parse
        errors = 1 + rng.randrange(3)
        first = len(lines) - len(chain) - 1
        planted = sorted(rng.sample(range(first, first + len(chain)), errors))
        for index in planted:
            lines[index] = rng.choice(BAD_LINES)
        return BenchText("syntax", "\n".join(lines) + "\n", l_max, axis, oams,
                         tuple(chain), measure, bad_lines=tuple(i + 1 for i in planted))


def read_bench(text: str) -> tuple[int, str, tuple[int, ...], list, str | None]:
    """Minimal reader of the README's ``.bench`` statements, for corpus files.

    Returns (l_max, axis, oams, chain, measure) with the README defaults
    (l_max 6, V, oam 0).
    """
    l_max, axis, oams, chain, measure = 6, "V", (0,), [], None
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        head, args = words[0], dict(w.split("=", 1) for w in words[1:] if "=" in w)
        if head == "space":
            l_max = int(args["lmax"])
        elif head == "prepare" and words[1] == "polarizer":
            axis = words[2]
        elif head == "prepare":
            oams = tuple(int(v) for v in args["oam"].split(","))
        elif head == "qplate":
            chain.append(("qplate", Fraction(args["q"]), float(args.get("eta", 1.0))))
        elif head == "hwp" and args.get("aperture", "all") == "l0":
            chain.append(("hwp_l0", float(args["theta"]), float(args.get("crosstalk", 0.0))))
        elif head == "hwp":
            chain.append(("hwp", float(args["theta"])))
        elif head in ("dove", "lens"):
            chain.append((head,))
        elif head == "measure":
            measure = words[1]
        else:
            raise ValueError(f"corpus statement not understood: {raw!r}")
    return l_max, axis, oams, chain, measure


def corpus_text(text: str) -> BenchText:
    l_max, axis, oams, chain, measure = read_bench(text)
    return BenchText("corpus", text, l_max, axis, oams, tuple(chain), measure)


def round_texts(seed: int, corpus: list[str]) -> list[BenchText]:
    """One round: every slot of ``SLOTS`` plus the corpus, in seeded order."""
    rng = random.Random(seed)
    texts = [generate(role, l_max, n, rng) for role, l_max, n in SLOTS]
    texts += [corpus_text(t) for t in corpus]
    rng.shuffle(texts)
    return texts
