"""Reference figures quoted in benchmarks/README.md.

    python3 benchmarks/sweep.py

Prints, as JSON lines: ``run("zcnot")`` against ``l_max`` with the share of
its time spent in element construction (traced), the fresh-interpreter import
split, the tracing overhead on ``run()`` at ``l_max=6``, and the interquartile
range of ``run("zcnot", l_max=100)`` with BLAS on one thread and on all.
"""

from __future__ import annotations

import os
import sys

if "--blas-child" not in sys.argv:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))

from spinorbit import deutsch  # noqa: E402

import tracer as tracing  # noqa: E402

REPEATS = {6: 300, 25: 40, 50: 15, 100: 7, 200: 3}
BLAS_REPEATS = 25


def _times(call, n: int) -> list[float]:
    out = []
    for _ in range(n):
        t0 = perf_counter()
        call()
        out.append(perf_counter() - t0)
    return out


def _quartiles_ms(values: list[float]) -> list[float]:
    return [round(q * 1e3, 3) for q in statistics.quantiles(values, n=4)]


def blas_child() -> None:
    def call():
        return deutsch.run("zcnot", l_max=100)

    call()
    print(json.dumps(_quartiles_ms(_times(call, BLAS_REPEATS))))


def main() -> None:
    for l_max, n in REPEATS.items():
        def call():
            return deutsch.run("zcnot", l_max=l_max)

        call()
        plain = statistics.median(_times(call, n))
        spans = tracing.Tracer()
        spans.install()
        try:
            traced = statistics.median(_times(call, n))
        finally:
            spans.uninstall()
        summary = spans.summary()
        build = sum(sum(v["total"]) for k, v in summary.items() if k.startswith("elements."))
        share = build / sum(summary["deutsch.run"]["total"])
        print(json.dumps({"l_max": l_max, "run_ms": round(plain * 1e3, 3),
                          "traced_run_ms": round(traced * 1e3, 3),
                          "element_construction_share": round(share, 3)}))

    print(json.dumps({k: round(v, 1) for k, v in tracing.import_split().items()}))

    for label in ("one thread", "all threads"):
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        if label == "all threads":
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env.pop(var, None)
        proc = subprocess.run([sys.executable, __file__, "--blas-child"], env=env,
                              capture_output=True, text=True, check=True, timeout=600)
        print(json.dumps({"blas": label, "run_zcnot_l100_quartiles_ms": json.loads(proc.stdout)}))


if __name__ == "__main__":
    blas_child() if "--blas-child" in sys.argv else main()
