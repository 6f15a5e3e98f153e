"""The benchmark (perfbench/) reaches into bubbledyn by name: its tracer
wraps functions by module and attribute, and its workloads write solver
settings by key.  Every name and key it relies on must still be there,
so that a rename or a removal fails here, in milliseconds, rather than in
a benchmark run.  The benchmark's files are read as data (their
literals), not run."""

import ast
import importlib
import inspect
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")
SCENARIO = os.path.join(os.path.dirname(PERFBENCH), "scenarios", "single_bubble.json")

# what tracing.install rebinds besides TARGETS: the LU routines potential
# calls through its scipy.linalg alias, and the integrator dynamics hands
# the RHS to (module, name as the module calls it)
HOOKS = (("bubbledyn.potential", "sla.lu_factor"),
         ("bubbledyn.potential", "sla.lu_solve"),
         ("bubbledyn.dynamics", "solve_ivp"))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _targets():
    for node in _parse(TRACING).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def _called_names(tree):
    return {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_every_traced_function_exists():
    targets = _targets()
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _span in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing


def test_every_rebound_hook_exists_and_is_called_by_that_name():
    for modname, dotted in HOOKS:
        module = importlib.import_module(modname)
        obj = module
        for name in dotted.split("."):
            obj = getattr(obj, name, None)
        assert callable(obj), f"{modname}.{dotted}"
        # a call under another name (a direct import) would bypass the hook
        leaf = dotted.rpartition(".")[2]
        calls = {name for name in _called_names(ast.parse(inspect.getsource(module)))
                 if name.rpartition(".")[2] == leaf}
        assert calls == {dotted}, (modname, calls)


def test_every_workload_solver_key_is_read_back():
    # a key the scenario parser no longer reads would be dropped silently
    # (unknown keys are ignored): every key a workload writes in its
    # `solver` dict (the third argument of _doc) must be one that
    # scenario_to_dict writes back
    from bubbledyn.scenario import parse_scenario, scenario_to_dict
    solvers = [call.args[2] for call in ast.walk(_parse(WORKLOADS))
               if isinstance(call, ast.Call) and ast.unparse(call.func) == "_doc"]
    assert solvers and all(isinstance(d, ast.Dict) for d in solvers)
    written = {ast.literal_eval(key) for d in solvers for key in d.keys}
    assert written
    assert written <= set(scenario_to_dict(parse_scenario(SCENARIO))["solver"])
