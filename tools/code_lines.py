"""Count the code lines of the package: the lines of each
src/bubbledyn/*.py that hold a token of code, so that docstrings,
comments and blank lines are left out.  A docstring is the string
literal that opens a module, class or function body.

Usage:
    python tools/code_lines.py [ROOT [PARENT]]

ROOT is a checkout (default: the one this script sits in); prints one
line per module and then the total.  With a PARENT checkout each line
holds PARENT's count, ROOT's and the change, a module missing on one
side counting 0 there.
"""

import ast
import glob
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of ``source`` that hold code."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def module_lines(root):
    """Code lines of each module of the checkout ``root``, by its path
    relative to ``root``."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "bubbledyn", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.relpath(path, root)] = code_lines(fh.read())
    return counts


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    both = len(argv) > 2
    new = module_lines(root)
    old = module_lines(argv[2]) if both else {}
    rows = [(name, old.get(name, 0), new.get(name, 0))
            for name in sorted(new.keys() | old.keys())]
    rows.append(("total", sum(old.values()), sum(new.values())))
    for name, m, n in rows:
        print(f"{m:6d} {n:6d} {n - m:+6d}  {name}" if both else f"{n:6d}  {name}")


if __name__ == "__main__":
    main(sys.argv)
