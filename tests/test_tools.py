"""The repository's own measuring scripts under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
class Box:
    """Class docstring."""

    size = 1

    def grow(self):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is not a docstring"""
        return text

    async def wait(self):
        """Async docstring."""
        return os.sep
'''


def test_code_lines_skips_blanks_comments_and_docstrings():
    code_lines = load("code_lines").code_lines
    # counted: import, class, size, def grow, text, return, async def, return
    assert code_lines(SOURCE) == 8
    assert code_lines('def f():\n    """Only a docstring."""\n') == 1
