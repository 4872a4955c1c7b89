"""Which library lines does the test suite reach?  A stdlib-only collector.

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

Runs pytest in this process under ``sys.settrace``, recording the lines run
in ``src/diffeokit`` frames only, then runs ``python -m diffeokit.cli``
once in-process, as the CLI tests do in a subprocess, so that ``main`` is
counted too.  Prints, per module, the executable lines (the lines the
compiler gives bytecode) that never ran, with their text.  The suite runs
about three times slower under the collector.  It reports and does not
gate: the exit code is pytest's.
"""

import contextlib
import io
import os
import runpy
import sys
import threading
import types
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "diffeokit"
PREFIX = str(SRC) + os.sep

hits: dict[str, set[int]] = defaultdict(set)


def _line(frame, event, arg):
    if event == "line":
        hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    """Trace library frames line by line and leave every other frame alone."""
    if frame.f_code.co_filename.startswith(PREFIX):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return _line
    return None


def executable_lines(path: Path) -> set[int]:
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _run_cli_module() -> None:
    argv = sys.argv
    sys.argv = ["diffeo-kit", "catalog", "euclidean"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit), \
                warnings.catch_warnings():
            # the tests imported diffeokit.cli already; running it again as
            # __main__ is what is wanted here
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("diffeokit.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.argv = argv


def main() -> int:
    # nothing from diffeokit may be imported before this point, or its
    # module-level lines would go unrecorded
    threading.settrace(_call)
    sys.settrace(_call)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
        _run_cli_module()
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unreached_total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        unreached = sorted(lines - hits[str(path)])
        total += len(lines)
        unreached_total += len(unreached)
        print(f"{path.name}: {len(lines) - len(unreached)} of {len(lines)} lines reached")
        text = path.read_text(encoding="utf-8").splitlines()
        for n in unreached:
            print(f"  {n}: {text[n - 1].strip()}")
    print(f"total: {total - unreached_total} of {total} executable lines reached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
