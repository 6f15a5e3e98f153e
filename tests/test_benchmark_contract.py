"""The benchmark's tracer (perfbench/tracing.py) wraps bubbledyn functions
by module and attribute name.  Every name it lists must exist, so that a
rename fails here, in milliseconds, rather than in a traced benchmark run.
The tracer is read as data: its TARGETS literal, not its code."""

import ast
import importlib
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _targets():
    with open(TRACING) as fh:
        module = ast.parse(fh.read())
    for node in module.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_every_traced_function_exists():
    targets = _targets()
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _span in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing
