"""Function-body statements of ``src/enriques`` that no test executes.

    python3 tools/unreached_lines.py [DIRECTORY [PYTEST_ARGS...]]

Runs pytest in this process (on ``tests/`` by default) under
``sys.settrace``, recording the lines executed in the modules under
``DIRECTORY`` (``src/enriques`` by default).  Then prints one
``<file>:<line> <statement>`` line for every statement in a function body
that never ran, and the count.  Docstrings are left out, as in
``tools/code_lines.py``, and so are ``global`` and ``nonlocal``, which
execute nothing.  Module and class bodies are not reported: they run on
import.  Child processes, as the console-script tests start, are not
traced.  pytest's own report goes to stderr.

Tracing slows the code several times, so the tests marked ``timed``, which
hold it to a wall-clock bound, are left out of the traced run and run in a
second, untraced one with its own pass/fail line; the lines only they
reach are not recorded.  Uses the standard library and pytest only.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

import pytest

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SILENT = (ast.Global, ast.Nonlocal)
# the marker of the tests with a wall-clock bound
TIMED = "timed"


def body_statements(source: str) -> dict[int, str]:
    """The first line of each statement in a function body, with its text."""
    tree = ast.parse(source)
    skip = docstring_lines(tree)
    lines = source.splitlines()
    found: dict[int, str] = {}
    for function in ast.walk(tree):
        if isinstance(function, FUNCTIONS):
            for statement in function.body:
                for node in ast.walk(statement):
                    if (
                        isinstance(node, ast.stmt)
                        and not isinstance(node, SILENT)
                        and node.lineno not in skip
                    ):
                        found[node.lineno] = lines[node.lineno - 1].strip()
    return found


def executed_lines(directory: Path, pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest under a line tracer; the lines run in each file under
    ``directory``."""
    prefix = str(directory.resolve())
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def main() -> None:
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "enriques"
    pytest_args = sys.argv[2:] or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"]
    hits = executed_lines(directory, [*pytest_args, "-m", f"not {TIMED}"])
    with contextlib.redirect_stdout(sys.stderr):
        pytest.main([*pytest_args, "-m", TIMED])
    total = 0
    for path in sorted(directory.resolve().rglob("*.py")):
        ran = hits.get(str(path), set())
        for number, text in sorted(body_statements(path.read_text()).items()):
            if number not in ran:
                total += 1
                print(f"{path.relative_to(directory.resolve())}:{number} {text}")
    print(f"{total} unreached statements")


if __name__ == "__main__":
    main()
