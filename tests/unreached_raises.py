"""List every ``raise`` statement in ``src/listdefect`` that a test run never reaches.

    python tests/unreached_raises.py [pytest arguments]

Runs pytest in this process, by default quietly on ``tests/``, under a
``sys.settrace`` tracer that follows only the package's own frames and
notes each ``raise`` line they execute.  It then prints every raise site
that no test reached, as ``path:line: source``, and the count.  Tracing
makes the run about three times slower, so the script is opt-in: pytest
does not collect it, since its name does not start with ``test_``.
Only this process is traced: a raise that a test reaches only in a
subprocess (a ``python -m listdefect`` call) is listed as unreached.  A
raise that shares its line with the test guarding it (``if x: raise``)
counts as reached whenever that line runs.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def raise_sites(path: Path) -> set[int]:
    """The line numbers of the raise statements of one source file."""
    return {n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Raise)}


def main(argv: list[str]) -> int:
    sites = {os.path.realpath(p): raise_sites(p) for p in sorted(SRC.glob("listdefect/*.py"))}
    lines_of: dict[str, set[int] | None] = {}  # code file name -> its raise lines
    reached: set[tuple[str, int]] = set()

    # one local tracer for every frame: a closure made per call would
    # refer to itself, and the cycles would show in the tests that count
    # cyclic garbage
    def on_line(frame, event, arg):
        name = frame.f_code.co_filename
        if event == "line" and frame.f_lineno in lines_of[name]:
            reached.add((os.path.realpath(name), frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = sites.get(os.path.realpath(name))
        return on_line if lines_of[name] else None

    sys.path.insert(0, str(SRC))
    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path, lines in sites.items():
        source = Path(path).read_text().splitlines()
        total += len(lines)
        for line in sorted(lines):
            if (path, line) not in reached:
                print(f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{total - len(reached)} of {total} raise statements in src/listdefect not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
