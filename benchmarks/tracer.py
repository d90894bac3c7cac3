"""Span recorder wrapped around the public functions of each spinorbit layer.

Every function is replaced at each name its callers resolve: a module
attribute in any ``spinorbit`` module that is bound to it.  So
``spinorbit.deutsch.build_oracle`` (what ``run`` calls), ``spinorbit.logic.qplate``
(what ``build_oracle`` calls) and ``spinorbit.elements.qplate`` (what ``dsl``
reaches through ``el.``) all record into the span ``elements.qplate`` or
``logic.build_oracle``.  Spans nest; a span's self time is its duration minus
the durations of its direct children.  ``uninstall`` puts every binding back.
"""

from __future__ import annotations

import importlib
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "cli": ("main",),
    "dsl": ("parse_with_errors", "parse", "compile_bench", "render"),
    "elements": ("qplate", "hwp", "dove_prism", "lens"),
    "state": (
        "apply", "apply_chain", "compose", "make_space", "basis_state",
        "fidelity_up_to_phase",
    ),
    "logic": ("build_oracle", "truth_table", "encode", "decode"),
    "deutsch": (
        "run", "measure_pbs", "measure_oam_superposition", "sample_counts",
        "prepare_input", "expected_output", "classify",
    ),
}

#: spans whose return value is a dense ElementOp (16 bytes per complex entry)
DENSE_BUILDERS = ("elements.qplate", "elements.hwp", "elements.dove_prism",
                  "elements.lens", "state.compose")


class Tracer:
    def __init__(self):
        # one record per span: [name, parent index or -1, start, end]
        self.records: list[list] = []
        self.operator_bytes = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        records, open_spans = self.records, self._open
        dense = name in DENSE_BUILDERS

        def traced(*args, **kwargs):
            index = len(records)
            record = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0]
            records.append(record)
            open_spans.append(index)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                open_spans.pop()
            if dense:
                self.operator_bytes += 16 * result.space.dimension ** 2
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"spinorbit.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                targets[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinorbit" and not mod_name.startswith("spinorbit."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        # verify suites are checks, not a layer: give them a span so their own
        # time is not counted as cli.main self time
        verify = importlib.import_module("spinorbit.verify")
        for suite, fn in list(verify.SUITES.items()):
            self._restore.append((verify.SUITES, suite, fn))
            verify.SUITES[suite] = self._wrap("verify.suite", fn)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self durations (seconds)."""
        child_time = [0.0] * len(self.records)
        for name, parent, start, end in self.records:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, _, start, end), children in zip(self.records, child_time):
            entry = out.setdefault(name, {"calls": 0, "total": [], "self": []})
            entry["calls"] += 1
            entry["total"].append(end - start)
            entry["self"].append(end - start - children)
        return out


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def import_split(samples: int = 5) -> dict:
    """Median cumulative import time of ``spinorbit.cli`` and of numpy, in ms."""
    cli_ms, numpy_ms = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinorbit.cli"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120, check=True,
        )
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)$", line)
            if match and match[3] == "spinorbit.cli":
                cli_ms.append(int(match[1]) / 1e3)
            elif match and match[3] == "numpy":
                numpy_ms.append(int(match[1]) / 1e3)
    return {"cli.import_ms": statistics.median(cli_ms),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}
