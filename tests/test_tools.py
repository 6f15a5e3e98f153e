import importlib.util
import os
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


def test_code_lines_compares_two_checkouts(tmp_path, capsys):
    # ROOT then PARENT: each module's parent count, root count and change,
    # a module on one side only counting 0 on the other, then the totals
    def checkout(name, modules):
        package = tmp_path / name / "src" / "bubbledyn"
        package.mkdir(parents=True)
        for module, source in modules.items():
            (package / module).write_text(source)
        return str(tmp_path / name)

    parent = checkout("parent", {"a.py": SNIPPET, "b.py": "x = 1\ny = 2\n"})
    root = checkout("root", {"a.py": SNIPPET + "z = 3\n", "c.py": "w = 4\n"})
    load_tool("code_lines").main(["code_lines.py", root, parent])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    a, b, c = (os.path.join("src", "bubbledyn", m) for m in ("a.py", "b.py", "c.py"))
    assert rows == [["9", "10", "+1", a], ["2", "0", "-2", b], ["0", "1", "+1", c],
                    ["11", "11", "+0", "total"]]
