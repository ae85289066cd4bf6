"""List the statements of ``src/msa_control`` that the test suite never executes.

    python3 scripts/line_coverage.py [pytest arguments]

Runs pytest in this process (the ``tests/`` suite unless the arguments name
other tests) under a ``sys.settrace``/``threading.settrace`` line tracer that
follows only frames whose code lives in ``src/msa_control``, then prints each
statement that never ran as ``path:line: source``.  A worker process forked by
the path split keeps tracing into its own copy of the executed lines; each
one writes them to a temporary directory as it leaves through ``os._exit``,
and they are merged before the report.  Standard library only, so
it works where the ``coverage`` package is not installed; tracing makes the
suite about 1.5x slower.  Exits with pytest's status, or 1 when a statement
outside ``EXPECTED`` is unreached, so that a new dead branch fails the run.
Statements are matched by file name and source text, not by line number.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "msa_control"
# (file, source) of the statements the suite cannot reach in its own process:
# the __main__ guard's body runs only in the subprocesses that tests start
EXPECTED = {("cli.py", "sys.exit(main())")}


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

    caller, real_exit = os.getpid(), os._exit
    spills = Path(tempfile.mkdtemp(prefix="line_coverage."))

    def exit_with_lines(status):  # a forked worker hands its lines over first
        if os.getpid() != caller:
            with open(spills / str(os.getpid()), "w") as fh:
                fh.writelines(f"{line} {path}\n" for path, line in executed)
        real_exit(status)

    os.chdir(ROOT)
    os._exit = exit_with_lines
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
        os._exit = real_exit
        for spill in spills.iterdir():
            for entry in spill.read_text().splitlines():
                line, path = entry.split(" ", 1)
                executed.add((path, int(line)))
            spill.unlink()
        spills.rmdir()

    missed = unexpected = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in sorted(_statements(path).items()):
            if (str(path), line) not in executed:
                print(f"{path.relative_to(ROOT)}:{line}: {text}")
                missed += 1
                unexpected += (path.name, text) not in EXPECTED
    print(f"{missed} statements in {PACKAGE.relative_to(ROOT)} not executed, "
          f"{unexpected} of them unexpected")
    return int(status) or int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
