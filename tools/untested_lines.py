"""List the lines of fess's functions that no tier-1 test runs.

Usage: python tools/untested_lines.py [--source DIR] [PYTEST_ARGS ...]

Runs pytest in this interpreter (default arguments: ``-q
--continue-on-collection-errors -p no:cacheprovider`` and the repository's
``tests``) with a trace function on every thread, and lists each line of a
function body in the ``.py`` files under ``--source`` (default:
``src/fess``) that never ran. A function's lines are those of its code
object's ``co_lines``; class and module bodies run at import and are not
counted. A line whose stripped text is in ``ALLOWED`` is listed but
tolerated. Exits 1 if any other line is listed or the tests fail.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Stripped text of the lines that the tier-1 platforms cannot run.
ALLOWED = frozenset({
    # _worker_count's fallback for platforms without CPU affinity
    "except AttributeError:  # platforms without CPU affinity",
    "threads = os.cpu_count() or 1",
})


def function_lines(path: Path) -> set[int]:
    """The lines of every function body in the Python file at ``path``."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a class or module body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def line_tracer(add):
    """A local trace function that passes the number of each line run to ``add``."""

    def local(frame, event, arg):
        if event == "line":
            add(frame.f_lineno)
        return local

    return local


def traced_run(paths, pytest_args) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code, and the lines of each of ``paths`` that ran."""
    ran = {path: set() for path in paths}
    tracers = {}  # co_filename -> its line tracer, None outside ``paths``

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            lines = ran.get(Path(filename).resolve())
            tracers[filename] = None if lines is None else line_tracer(lines.add)
        local = tracers[filename]
        # the call runs the first line, which has no line event
        return None if local is None else local(frame, "line", arg)

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source", type=Path, default=ROOT / "src" / "fess")
    args, pytest_args = parser.parse_known_args(argv)
    pytest_args = pytest_args or [
        "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT / "tests"),
    ]
    paths = sorted(p.resolve() for p in args.source.rglob("*.py"))
    code, ran = traced_run(paths, pytest_args)
    untested = tolerated = 0
    for path in paths:
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(function_lines(path) - ran[path]):
            stripped = text[line - 1].strip()
            allowed = stripped in ALLOWED
            tolerated += allowed
            untested += not allowed
            tag = " (allowed)" if allowed else ""
            print(f"{os.path.relpath(path)}:{line}: {stripped}{tag}")
    print(f"{untested + tolerated} untested lines, {tolerated} of them allowed")
    if code != 0:
        print(f"pytest exited with {code}")
    return 1 if untested or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
