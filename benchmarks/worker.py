"""One workload process: set up a workload, then stop, time it, or trace it.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S --mode setup|measure|trace

Prints one JSON object on its last stdout line.  ``t_first`` is the
``perf_counter`` reading (a system-wide monotonic clock on Linux) just before
the first timed operation, so the parent can measure set-up from the moment
it started this process.
"""

from __future__ import annotations

import os

# BLAS and OpenMP thread pools are sized when numpy loads: pin them first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402

import propagator  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: per-workload per-layer metrics of the traced run: (metric, kind, span)
#: kinds: "ms" median inclusive time per call, "self_ms" median self time,
#: "calls" calls per operation (a span name prefix), "bytes" computed dense
#: operator bytes per operation, "rejected" texts rejected per round
KIND_UNITS = {"ms": "ms", "self_ms": "ms", "calls": "1/op", "bytes": "B/op", "rejected": "count"}
_ELEMENTS = [(f"elements.{n}_ms", "ms", f"elements.{n}") for n in
             ("qplate", "hwp", "dove_prism", "lens")] + [("elements.calls", "calls", "elements.")]
_STATE = [("state.apply_ms", "ms", "state.apply"), ("state.apply.calls", "calls", "state.apply"),
          ("state.operator_bytes", "bytes", None)]
_MEASURE = [("deutsch.measure_pbs_ms", "ms", "deutsch.measure_pbs"),
            ("deutsch.measure_oam_superposition_ms", "ms", "deutsch.measure_oam_superposition")]
_RUN = [("deutsch.run.self_ms", "self_ms", "deutsch.run"),
        ("logic.build_oracle.self_ms", "self_ms", "logic.build_oracle")] + _MEASURE
_TABLE = [("logic.truth_table.self_ms", "self_ms", "logic.truth_table"),
          ("state.compose_ms", "ms", "state.compose")]
_SAMPLE = [("deutsch.sample_counts_ms", "ms", "deutsch.sample_counts")]
_DSL = [("dsl.parse_with_errors_ms", "ms", "dsl.parse_with_errors"),
        ("dsl.compile_bench.self_ms", "self_ms", "dsl.compile_bench")]

LAYER_METRICS = {
    "oracles": _ELEMENTS + _STATE + _RUN + _SAMPLE,
    "wide": _ELEMENTS + _STATE + _RUN + _TABLE,
    "benchfiles": _DSL + [("dsl.render_ms", "ms", "dsl.render"), ("dsl.rejected", "rejected", None)]
    + _ELEMENTS + _STATE + _MEASURE,
    "cli": [("cli.main.self_ms", "self_ms", "cli.main")] + _DSL + _ELEMENTS + _STATE
    + _RUN + _TABLE + _SAMPLE,
}


def timed(workload, execute, rounds: int, tracer=None):
    """Run ``rounds`` whole rounds; returns (results, latencies, round times)."""
    results, latencies, round_times = [], [], []
    for _ in range(rounds):
        start = perf_counter()
        for op in workload.ops:
            t0 = perf_counter()
            try:
                result = execute(op)
            except Exception as exc:  # counted as failed, never fatal
                result = exc
            latencies.append(perf_counter() - t0)
            results.append(result)
        round_times.append(perf_counter() - start)
    return results, latencies, round_times


def check(workload, results) -> tuple[int, list[str]]:
    """(failed, problems).  Each distinct operation is checked in full once;
    its repeats in later rounds must give an identical result."""
    failed, problems, verified = 0, [], {}
    n = len(workload.ops)
    for i, result in enumerate(results):
        op = workload.ops[i % n]
        if workload.failed(op, result):
            failed += 1
            continue
        key = workload.fingerprint(result)
        if i % n in verified:
            if verified[i % n] != key:
                problems.append(f"{op}: result differs between rounds")
            continue
        problem = workload.check(op, result)
        if problem:
            problems.append(problem)
        verified[i % n] = key
    return failed, problems


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(name: str, tracer, n_ops: int, rejected: int) -> dict:
    spans = tracer.summary()
    out = {}
    for metric, kind, span in LAYER_METRICS[name]:
        if kind == "ms":
            value = tracing.median_ms(spans[span]["total"])
        elif kind == "self_ms":
            value = tracing.median_ms(spans[span]["self"])
        elif kind == "calls":
            value = sum(s["calls"] for k, s in spans.items() if k.startswith(span)) / n_ops
        elif kind == "bytes":
            value = tracer.operator_bytes / n_ops
        else:
            value = rejected
        out[metric] = {"value": value, "unit": KIND_UNITS[kind]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    args = parser.parse_args()

    propagator.self_test()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    t_first = perf_counter()
    out = {"t_first": t_first, "env": environment()}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.mode == "measure":
        rounds = workloads.rounds_for(workload, args.seconds)
        results, latencies, round_times = timed(workload, workload.execute, rounds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        failed, problems = check(workload, results)
        # A shared virtual machine can switch between a fast and a slow state
        # that last seconds.  A quantile of the whole run jumps between the
        # two states' values as their shares cross; per-round quantiles
        # averaged over the rounds, like the throughput, move in proportion.
        size = len(workload.ops)
        rounds_lat = [latencies[i:i + size] for i in range(0, len(latencies), size)]
        out.update(
            attempted=len(results), failed=failed, problems=problems[:20],
            n_problems=len(problems),
            ops_per_s=len(results) / sum(round_times),
            latency_p50_ms=statistics.fmean(statistics.median(r) for r in rounds_lat) * 1e3,
            latency_p90_ms=statistics.fmean(
                statistics.quantiles(r, n=10)[8] for r in rounds_lat) * 1e3,
            peak_rss_mb=peak_rss_mb,
        )
        print(json.dumps(out))
        return 0

    # trace: untraced and traced rounds alternate, so drift in the machine's
    # speed falls on both sides of the overhead figure alike
    execute = getattr(workload, "execute_in_process", workload.execute)
    timed(workload, execute, 1)
    spans = tracing.Tracer()
    plain, traced, plain_s, traced_s = [], [], 0.0, 0.0
    for _ in range(workload.trace_rounds):
        results, _, (seconds,) = timed(workload, execute, 1)
        plain += results
        plain_s += seconds
        spans.install()
        try:
            results, _, (seconds,) = timed(workload, execute, 1, spans)
        finally:
            spans.uninstall()
        traced += results
        traced_s += seconds
    results = plain + traced
    failed, problems = check(workload, results)
    rejected = sum(1 for r in traced[: len(workload.ops)]
                   if isinstance(r, tuple) and r[0] in ("syntax", "overflow"))
    metrics = layer_metrics(args.workload, spans, len(traced), rejected)
    if args.workload == "cli":
        for metric, value in tracing.import_split().items():
            metrics[metric] = {"value": value, "unit": "ms"}
    plain_rate, traced_rate = len(plain) / plain_s, len(traced) / traced_s
    metrics["trace.ops_per_s_delta"] = {"value": plain_rate - traced_rate, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (plain_rate - traced_rate) / plain_rate, "unit": "%"}
    out.update(attempted=len(results), failed=failed, problems=problems[:20],
               n_problems=len(problems), metrics=metrics,
               spans={k: {"calls": v["calls"], "median_ms": tracing.median_ms(v["total"]),
                          "median_self_ms": tracing.median_ms(v["self"])}
                      for k, v in sorted(spans.summary().items())})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
