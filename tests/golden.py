"""Golden outputs: the `run()` grid and each oracle's truth table, as JSON lines.

Not collected by pytest (its name does not start with ``test_``).  Run as a
script, it writes the dump that `tests/test_golden.py` compares against::

    PYTHONPATH=src python tests/golden.py > tests/golden/outputs.jsonl

The records, in a fixed order:

* ``run``: every `run()` of 4 oracles x eta {1, 0.97} x crosstalk {0, 0.3,
  0.77, 1} x l_max {4, 6, 64, 1000} x measurement {pbs, oam} x shots {None,
  1000}, seed 3: 512 records, each the report's `to_dict()` or the text of the
  `SpinOrbitError` it raised;
* ``truth_table``: `truth_table(build_oracle(...))` of each oracle at l_max
  {4, 6, 64, 1000}, each row's output bits and the real and imaginary parts of
  its phase.

Every float is written as its `float.hex()`, so the dump holds its exact bits
and a diff of two dumps shows each value that moved.
"""

from __future__ import annotations

import itertools
import json
import math
import sys

from spinorbit import ORACLE_IDS, SpinOrbitError, build_oracle, make_space, run, truth_table

ETAS = (1.0, 0.97)
CROSSTALKS = (0.0, 0.3, 0.77, 1.0)
L_MAXES = (4, 6, 64, 1000)
MEASUREMENTS = ("pbs", "oam")
SHOTS = (None, 1000)
SEED = 3

#: how far a float may move from the dump, in ulps of 1.0 (2**-50, ~8.9e-16):
#: every float in it lies in [-1, 1] and is rounded on the scale of 1
ULPS = 4
BOUND = ULPS * math.ulp(1.0)


def records():
    """Each record as plain data, its floats still Python floats."""
    for oracle, eta, crosstalk, l_max, measurement, shots in itertools.product(
        ORACLE_IDS, ETAS, CROSSTALKS, L_MAXES, MEASUREMENTS, SHOTS
    ):
        args = {"oracle": oracle, "eta": eta, "crosstalk": crosstalk, "l_max": l_max,
                "measurement": measurement, "shots": shots, "seed": SEED}
        try:
            report = run(oracle, eta=eta, crosstalk=crosstalk, shots=shots, seed=SEED,
                         l_max=l_max, measurement=measurement)
        except SpinOrbitError as exc:
            yield {"kind": "run", "args": args, "error": f"{type(exc).__name__}: {exc}"}
        else:
            yield {"kind": "run", "args": args, "report": report.to_dict()}
    for oracle, l_max in itertools.product(ORACLE_IDS, L_MAXES):
        table = truth_table(build_oracle(make_space(l_max), oracle))
        rows = [[list(bits), list(out), [phase.real, phase.imag]]
                for bits, (out, phase) in table.items()]
        yield {"kind": "truth_table", "args": {"oracle": oracle, "l_max": l_max}, "rows": rows}


def encode(value):
    """`value` with every float replaced by its `float.hex()`."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(item) for item in value]
    return value


def dump(out=sys.stdout) -> None:
    for record in records():
        out.write(json.dumps(encode(record)) + "\n")


if __name__ == "__main__":
    dump()
