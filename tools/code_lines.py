"""Code lines per module of ``src/enriques``: blank, comment and docstring lines left out.

    python3 tools/code_lines.py [DIRECTORY]

A line counts when it is not blank, does not start with ``#`` and is not
part of a module, class or function docstring (found with ``ast``).
Prints one ``<count> <file>`` line per module, then the total.  Uses the
standard library only.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skip
    )


def main() -> None:
    directory = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "enriques"
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
