"""List the dead names of the package: the local names that a function in
src/bubbledyn/*.py assigns and never reads.

Usage:
    python tools/dead_names.py [ROOT]

ROOT is a checkout (default: the one this script sits in).  A name counts
as assigned where it is bound by an assignment, a loop, a ``with``, a
comprehension or an ``except ... as``, and as read where it is loaded in
the function or in any scope nested in it (a closure, a lambda, a
comprehension), an augmented assignment's target included.  Names
starting with ``_`` and names the function declares ``global`` or
``nonlocal`` are skipped.  Prints one line per dead name,
``path:line: function: name``, and exits 1 if there is one.
"""

import ast
import glob
import os
import sys

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def own_nodes(function):
    """The nodes of ``function``'s body outside the functions, lambdas and
    classes nested in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def dead_names(source):
    """(line, function, name) of every dead name of ``source``, in line
    order."""
    dead = []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, skipped = {}, set()
        for node in own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                skipped.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                stored.setdefault(node.name, node.lineno)
        # an augmented assignment reads its target before it binds it
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read.update(node.target.id for node in ast.walk(function)
                    if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name))
        dead += [(line, function.name, name) for name, line in stored.items()
                 if not name.startswith("_") and name not in skipped | read]
    return sorted(dead)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    found = False
    for path in sorted(glob.glob(os.path.join(root, "src", "bubbledyn", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            for line, function, name in dead_names(fh.read()):
                print(f"{os.path.relpath(path, root)}:{line}: {function}: {name}")
                found = True
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
