"""List the statements of ``src/msa_control`` that the test suite never executes.

    python3 scripts/line_coverage.py [pytest arguments]

Runs pytest in this process (the ``tests/`` suite unless the arguments name
other tests) under a ``sys.settrace``/``threading.settrace`` line tracer that
follows only frames whose code lives in ``src/msa_control``, then prints each
statement that never ran as ``path:line: source``.  Standard library only, so
it works where the ``coverage`` package is not installed; tracing makes the
suite about 1.5x slower.  Exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msa_control"


def _statements(path: Path) -> dict:
    """{line: source} of the statements that compile to code: docstrings and
    other bare constants, global and nonlocal declarations are left out."""
    source = path.read_text()
    lines = source.splitlines()
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        out[node.lineno] = lines[node.lineno - 1].strip()
    return out


def main(argv: list) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    files = {}  # code filename -> its absolute path if under PACKAGE, else None
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((files[frame.f_code.co_filename], frame.f_lineno))
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = path if path.startswith(prefix) else None
        return local if files[name] else None

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(_statements(path).items()):
            if (str(path), line) not in executed:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
                missed += 1
    print(f"{missed} statements in {PACKAGE.relative_to(ROOT)} not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
