"""Function-body lines of `src/chordalg` that a pytest run never reaches.

Usage, from the repository root (arguments go to pytest unchanged):

    python tools/line_coverage.py -q -p no:cacheprovider
    python tools/line_coverage.py tests/test_mvc.py -x

It needs nothing outside the standard library. A `sys.settrace` hook that
traces only frames of code in `src/chordalg` is installed before pytest, and
so `chordalg`, is imported; then `pytest.main` runs on the arguments. The
candidate lines are the line starts of every function's code (nested
functions, lambdas and comprehensions included; module and class bodies,
which run at import, excluded), less each function's first line (its `def`
or first decorator). The report lists, per module, the candidate lines no
frame ever ran, then the total. Tracing makes the run several times slower,
so it is not part of tier-1. The exit code is pytest's.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path
from typing import Dict, List, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chordalg"
PREFIX = str(PACKAGE) + os.sep


def _trace_hook(reached: Dict[str, Set[int]]):
    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(PREFIX):
            return None
        reached.setdefault(filename, set())
        return local

    return on_call


def function_lines(path: Path) -> Set[int]:
    """The line starts of the function code objects compiled from `path`,
    without each function's first line (its `def` or first decorator)."""
    lines: Set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def _ranges(lines: List[int]) -> str:
    runs: List[List[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in runs)


def report(candidates: Dict[str, Set[int]], reached: Dict[str, Set[int]]) -> None:
    """Print the unreached lines per module, then their total."""
    total = 0
    for path, lines in candidates.items():
        missed = sorted(lines - reached.get(path, set()))
        total += len(missed)
        if missed:
            print("%s: %d unreached: %s" % (Path(path).relative_to(ROOT), len(missed),
                                             _ranges(missed)))
    print("total unreached function-body lines: %d" % total)


def main(argv: List[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # read before the run, so that the lines are those of the code it imports
    candidates = {str(path): function_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    reached: Dict[str, Set[int]] = {}
    hook = _trace_hook(reached)
    sys.settrace(hook)
    try:
        import pytest
        code = pytest.main(argv)
    finally:
        sys.settrace(None)
    report(candidates, reached)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
