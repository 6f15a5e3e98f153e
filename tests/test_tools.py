import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

# docstrings, comments and blank lines are not code; a multi-line
# expression and a string that is not a docstring count every line they
# span: 9 code lines
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class C:
    """Class docstring."""

    x = 1


def f(x):
    """Function docstring."""
    # a comment line
    y = (x +
         1)

    s = """not a docstring,
spanning two lines"""
    return y, s
'''


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_code_only():
    assert load_tool("code_lines").code_lines(SNIPPET) == 9
