"""Line coverage of `src/spinorbit` under the test suite, from `sys.settrace` alone.

A pytest plugin.  pytest does not collect it (its name does not start with
``test_``); load it by name, with ``tests/`` on the path, so that it is
imported before `spinorbit` is and module and class bodies count too::

    PYTHONPATH=src:tests python -m pytest -q -p linecov

When the session ends it lists every executable line of `src/spinorbit` that
did not run and is not in `ALLOWED`, and fails the session if there is one.
A line is executable when some code object of its file holds an instruction
on it (`co_lines`); it ran when the tracer saw a frame of that file on it.
An entry of `ALLOWED` that no missed line matches fails the session as well,
so the list only ever holds lines that need it.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "spinorbit"

#: (file, the line's text without its indent): why no test runs it
ALLOWED = {
    ("cli.py", "raise SystemExit(main())"):
        "the `__main__` guard's body runs only under `python -m spinorbit.cli`, "
        "and the tests call `main` in-process",
}

if "spinorbit" in sys.modules:
    raise RuntimeError(
        "linecov must be loaded before spinorbit is imported (pytest -p linecov), "
        "or the module and class bodies would count as not run"
    )

_PREFIX = str(SOURCE) + os.sep
#: file name -> the lines the tracer saw run
_ran: dict[str, set[int]] = {}
_report: list[str] = []


def _trace(frame, event, arg):
    """The global tracer: follows only frames of files under `SOURCE`."""
    filename = frame.f_code.co_filename
    if not filename.startswith(_PREFIX):
        return None
    lines = _ran.setdefault(filename, set())
    lines.add(frame.f_lineno)

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local


sys.settrace(_trace)


def _code_lines(code) -> set[int]:
    """The lines of `code` and of every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def missed_lines() -> list[tuple[str, int, str]]:
    """(file, line, text) of each executable line under `SOURCE` that did not run."""
    missed = []
    for path in sorted(SOURCE.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        source_lines = text.splitlines()
        ran = _ran.get(str(path), set())
        for line in sorted(_code_lines(compile(text, str(path), "exec")) - ran):
            missed.append((str(path.relative_to(SOURCE)), line, source_lines[line - 1].strip()))
    return missed


def pytest_sessionfinish(session):
    sys.settrace(None)
    missed = missed_lines()
    matched = {(name, text) for name, _, text in missed}
    _report.extend(
        f"src/spinorbit/{name}:{line}: {text}"
        for name, line, text in missed if (name, text) not in ALLOWED
    )
    _report.extend(
        f"ALLOWED entry {key} matches no missed line" for key in ALLOWED if key not in matched
    )
    if _report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _report:
        terminalreporter.section("linecov: src/ lines that no test ran", red=True)
        for entry in _report:
            terminalreporter.write_line(entry)
    else:
        terminalreporter.write_line(
            f"linecov: every executable src/ line ran, apart from {len(ALLOWED)} allowed"
        )
