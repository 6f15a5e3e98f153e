"""Self-tests of the benchmark: counter identities and wrapper completeness
on one traced repetition of each workload, the output contract, and the
refusal to run without the program's sources.

    python3 -m pytest -q perfbench/test_perfbench.py

from the repository root.  The tests start benchmark children (about a
minute in all on two cores).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# added_mass calls per RHS: the base matrix plus two per FD column
# (sphere_l2 skips the three center columns of a lone unbounded bubble)
ADDED_MASS_PER_RHS = {"sphere_l2": 3, "cavity_pair_l1": 17, "ellipsoid_pair_l1": 37}

# bindings ("span@module holding the name") each workload must reach; a
# wrapper that misses one of them undercounts its layer
SITES = {
    "sphere_l2": [
        "scenario.parse_scenario@cli", "cli.gram_diagnostics@cli", "cli.write@cli",
        "shapes.check_admissible@cli", "shapes.check_admissible@dynamics",
        "shapes.check_admissible@shapes",  # potential's local import
        "shapes.config_from_params@dynamics", "shapes.config_from_params@potential",
        "shapes.surface_mesh@potential", "potential.added_mass_jacobian@potential",
        "dynamics.boundary_residual@dynamics", "potential.solve_neumann@potential",
        "potential.surface_gradient@potential", "potential.boundary_potential_at@potential",
        "potential.configuration_meshes@potential"],
    "cavity_pair_l1": [
        "shapes.volume_hessian@dynamics", "shapes.volume_gradient@dynamics",
        "shapes.volume_gradient@shapes", "shapes.wall_mesh@potential",
        "shapes.check_admissible@dynamics", "shapes.config_from_params@dynamics",
        "dynamics.fd_jacobian@dynamics", "dynamics.energies@dynamics",
        "gas.potential_energy@gas"],
    "ellipsoid_pair_l1": [
        "shapes.surface_mesh@shapes",  # point-cloud gaps in check_admissible
        "shapes.check_admissible@shapes", "shapes.config_from_params@potential"],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    results = {}
    for name in ADDED_MASS_PER_RHS:
        args = argparse.Namespace(workload=name, seed=0)
        rep_dir = str(tmp_path_factory.mktemp(name) / "traced")
        results[name] = run.run_child(args, 0, rep_dir, traced=True)
        assert results[name] is not None, f"{name}: traced run failed"
    return results


@pytest.mark.parametrize("name", sorted(ADDED_MASS_PER_RHS))
def test_counter_identities(traced, name):
    result = traced[name]
    layers = {k: v for k, (v, _unit) in result["layers"].items()}
    assert result["ok"], result["gates"]
    assert layers["potential.added_mass.per_rhs"] == ADDED_MASS_PER_RHS[name]
    assert layers["potential.lu_factor.calls"] == (layers["potential.added_mass.calls"]
                                                   + layers["potential.solve_neumann.calls"])
    assert layers["dynamics.rhs.calls"] == result["n_rhs"]
    assert layers["trace.coverage"] >= 0.95
    assert layers["dynamics.rhs.poisoned"] == 0
    assert layers["potential.one_sided_fd"] == 0


@pytest.mark.parametrize("name", sorted(SITES))
def test_wrapped_call_sites(traced, name):
    calls = traced[name]["calls_by_site"]
    missing = [site for site in SITES[name] if not calls.get(site)]
    assert not missing


def test_every_traced_function_is_reached(traced):
    reached = {key.split("@")[0] for r in traced.values()
               for key, n in r["calls_by_site"].items() if n}
    assert {span for _, _, span in tracing.TARGETS} <= reached


def _bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_contract(trace, section):
    out = _bench(ROOT, "--workload", "sphere_l2", "--seed", "3", "--seconds", "0",
                 "--trace", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(str(tmp_path), "--workload", "sphere_l2", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
