"""spinorbit benchmark: one command, four workloads, end-to-end or traced.

    python3 benchmarks/run.py --workload oracles|wide|benchfiles|cli \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh workload processes
(``worker.py``) one at a time, with BLAS and OpenMP pinned to one thread and
``src`` on ``PYTHONPATH``:

* ``--trace 0``: ``SETUP_SAMPLES - 1`` processes that only set up, then one
  that sets up and runs whole rounds of the workload's operations for about
  ``--seconds`` (at least 100 operations).  Prints the end-to-end metrics.
* ``--trace 1``: one traced process per workload, all four, whatever
  ``--workload`` names, so every per-layer metric is printed by every traced
  run.  Per-layer metrics are named ``<workload>.<metric>``.

The last stdout line is the result object; the line before it records the
environment.  Both are also written to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("oracles", "wide", "benchfiles", "cli")
SETUP_SAMPLES = 5
#: a run must end within 180 s; every worker shares what is left of this
RUN_DEADLINE_S = 170
STARTED = perf_counter()


def fail(message: str) -> None:
    print(f"benchmarks/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def worker(workload: str, seed: int, seconds: float, mode: str) -> tuple[dict, float]:
    """Run one workload process to its end; returns (its result, start time)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    started = perf_counter()
    # its own session, so a timeout also stops the cli commands it started
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, RUN_DEADLINE_S - (started - STARTED)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} {mode} did not finish within the run's {RUN_DEADLINE_S} s")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        fail(f"{workload} {mode} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1]), started


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    # a checkout without .git still names the code it measured
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spinorbit").rglob("*")):
        if path.suffix in (".py", ".bench"):
            digest.update(path.relative_to(ROOT).as_posix().encode() + path.read_bytes())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "src_sha256": digest.hexdigest()}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, started = worker(workload, seed, seconds, "setup")
        setups.append(ready["t_first"] - started)
    run, started = worker(workload, seed, seconds, "measure")
    setups.append(run["t_first"] - started)
    for problem in run["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = {
        "ops_per_s": (run["ops_per_s"], "1/s"),
        "latency_p50_ms": (run["latency_p50_ms"], "ms"),
        "latency_p90_ms": (run["latency_p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    result = {
        "correct": run["n_problems"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, run["env"]


def traced(seed: int, seconds: float) -> tuple[dict, dict]:
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    spans = {}
    for workload in WORKLOADS:
        run, _ = worker(workload, seed, seconds, "trace")
        for problem in run["problems"]:
            print(f"check failed: {workload}: {problem}", file=sys.stderr)
        result["correct"] &= run["n_problems"] == 0
        result["attempted"] += run["attempted"]
        result["failed"] += run["failed"]
        for metric, value in run["metrics"].items():
            result["metrics"][f"{workload}.{metric}"] = value
        spans[workload] = run["spans"]
    return result, {**run["env"], "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spinorbit" / "__init__.py").is_file():
        fail(f"no spinorbit sources under {ROOT / 'src'}")

    if args.trace:
        result, env = traced(args.seed, args.seconds)
    else:
        result, env = end_to_end(args.workload, args.seed, args.seconds)
    env = {**machine(), **env, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1) + "\n")
    print(json.dumps({k: v for k, v in env.items() if k != "spans"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
