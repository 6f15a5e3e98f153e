import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import bubbledyn
from bubbledyn import dynamics as dyn
from bubbledyn.cli import main
from bubbledyn.scenario import (ScenarioError, parse_scenario,
                                scenario_from_dict, scenario_to_dict)

R_EQ_MASS = 4 * np.pi / 3


def equilibrium_doc(**overrides):
    doc = {
        "schema_version": 1,
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "surface_tension": 0.0,
        "domain": {"type": "unbounded"},
        "bubbles": [{"shape": {"type": "sphere", "center": [0.0, 0.0, 0.0],
                               "radius": 1.0},
                     "velocity": {"center": [0.0, 0.0, 0.0], "radius": 0.0},
                     "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
                     "mass": R_EQ_MASS}],
        "solver": {"mesh_level": 0},
        "time": {"t_end": 0.5, "output_dt": 0.1}}
    doc.update(overrides)
    return doc


def cavity_pair_doc(center=(0.0, 0.0, 0.0), radius=4.0, t_end=0.15):
    """Two spheres of radius 0.8 pulsating in antiphase in a spherical
    cavity, bubbles and wall at level 1."""
    r = 0.8
    doc = equilibrium_doc(
        domain={"type": "cavity_sphere", "center": list(center), "radius": radius},
        time={"t_end": t_end, "output_dt": 0.05})
    doc["bubbles"] = [
        {"shape": {"type": "sphere", "center": [x + center[0], center[1], center[2]],
                   "radius": r},
         "velocity": {"center": [0.0, 0.0, 0.0], "radius": vr},
         "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
         "mass": R_EQ_MASS * r ** 3} for x, vr in ((-1.4, 0.2), (1.4, -0.2))]
    doc["solver"] = {"mesh_level": 1, "wall_level": 1,
                     "rel_tol": 1e-10, "abs_tol": 1e-12}
    return doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solver_imports_no_scipy():
    # numpy is the solver's whole import graph: the stepper, the ellipsoid
    # area and the LAPACK routines (from numpy's own OpenBLAS) are the
    # package's own, and the reference oracle imports scipy.integrate only
    # when it runs
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bubbledyn.__file__).parents[1])}
    code = ("import sys, bubbledyn.cli, bubbledyn.reference; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.split() == []


def test_run_loads_one_openblas(tmp_path):
    # a run's process imports no scipy, solves on the OpenBLAS numpy's
    # linalg extension links, records that library alone on one thread, and
    # maps no other OpenBLAS (the map is read where /proc is; skipped where
    # numpy links no OpenBLAS)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bubbledyn.__file__).parents[1])}
    code = """if True:
        import json, sys
        from bubbledyn import _lapack
        from bubbledyn.cli import main
        status = main(["run", "--scenario", sys.argv[1], "--out", sys.argv[2]])
        try:
            with open("/proc/self/maps") as fh:
                mapped = sorted({line.split(None, 5)[-1].strip() for line in fh
                                 if "openblas" in line.lower()})
        except OSError:
            mapped = None
        numpy = _lapack._openblas("numpy.linalg._umath_linalg")
        print(json.dumps([status, [m for m in sys.modules if m.split(".")[0] == "scipy"],
                          numpy and list(numpy.threads), list(_lapack.provider().threads),
                          mapped]))
    """
    out = subprocess.run([sys.executable, "-c", code, write_scenario(tmp_path, equilibrium_doc()),
                          str(tmp_path / "out")], env=env, check=True, capture_output=True,
                         text=True)
    status, scipy, numpy, solver, mapped = json.loads(out.stdout.splitlines()[-1])
    if not numpy:
        pytest.skip("numpy links no OpenBLAS")
    assert status == 0 and scipy == [] and solver == numpy
    threads = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["stats"]["blas_threads"]
    assert threads == dict.fromkeys(numpy, 1)
    if mapped is not None:
        assert [os.path.basename(path) for path in mapped] == numpy


def test_public_names_resolve():
    # every name the package exports is importable from it
    assert len(set(bubbledyn.__all__)) == len(bubbledyn.__all__)
    for name in bubbledyn.__all__:
        assert getattr(bubbledyn, name, None) is not None, name
    namespace = {}
    exec("from bubbledyn import *", namespace)
    assert set(bubbledyn.__all__) <= set(namespace)


class TestScenarioParsing:
    def test_round_trip_is_identical(self):
        doc = equilibrium_doc()
        doc["bubbles"].append({
            "shape": {"type": "ellipsoid", "center": [4.0, 0.0, 0.1],
                      "matrix": [[1.1, 0.01, 0.0], [0.01, 0.9, 0.0],
                                 [0.0, 0.0, 1.0]]},
            "velocity": {"center": [0.0, 0.2, 0.0],
                         "matrix": [[0.1, 0.0, 0.0], [0.0, 0.0, 0.0],
                                    [0.0, 0.0, -0.05]]},
            "gas": {"kind": "polytropic", "K": 2.0, "gamma": 1.0},
            "mass": 0.7})
        # a document with the retired comparison block and fd_step solver
        # key still parses to the same scenario, and neither is written back
        legacy = {**doc, "comparison": {"translation_coefficient": "paper_printed"},
                  "solver": {**doc["solver"], "fd_step": 1e-4}}
        canon = scenario_to_dict(scenario_from_dict(doc))
        assert "comparison" not in canon and "fd_step" not in canon["solver"]
        assert scenario_to_dict(scenario_from_dict(legacy)) == canon
        # through actual JSON text, as the canonicalizer promises
        s2 = scenario_from_dict(json.loads(json.dumps(canon)))
        assert scenario_to_dict(s2) == canon

    def test_malformed_gas_gamma_names_field(self):
        doc = equilibrium_doc()
        doc["bubbles"][0]["gas"]["gamma"] = 0.9
        with pytest.raises(ScenarioError, match=r"bubbles\[0\].gas.gamma"):
            scenario_from_dict(doc)

    def test_missing_field_names_path(self):
        doc = equilibrium_doc()
        del doc["bubbles"][0]["mass"]
        with pytest.raises(ScenarioError, match=r"bubbles\[0\].mass"):
            scenario_from_dict(doc)

    def test_bad_json_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "liquid": {,}\n}\n')
        with pytest.raises(ScenarioError, match=r"broken.json:2:"):
            parse_scenario(str(path))

    def test_unknown_domain_rejected(self):
        doc = equilibrium_doc(domain={"type": "torus"})
        with pytest.raises(ScenarioError, match="domain.type"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("field, edit", [
        ("liquid.p_infinity", lambda d: d["liquid"].update(p_infinity=float("nan"))),
        ("liquid.density", lambda d: d["liquid"].update(density=float("inf"))),
        ("document.surface_tension", lambda d: d.update(surface_tension=float("nan"))),
        ("time.t_end", lambda d: d["time"].update(t_end=float("inf"))),
        ("bubbles[0].mass", lambda d: d["bubbles"][0].update(mass=float("inf"))),
        ("bubbles[0].shape.center",
         lambda d: d["bubbles"][0]["shape"].update(center=[float("nan"), 0.0, 0.0])),
        ("bubbles[0].velocity.center",
         lambda d: d["bubbles"][0]["velocity"].update(center=[float("inf"), 0.0, 0.0])),
        ("bubbles[0].shape.center",
         lambda d: d["bubbles"][0]["shape"].update(center=[True, 0.0, 0.0])),
        ("bubbles[0].velocity.matrix", lambda d: d["bubbles"][0].update(
            shape={"type": "ellipsoid", "center": [0.0, 0.0, 0.0],
                   "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            velocity={"matrix": [[float("inf"), 0.0, 0.0], [0.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]]})),
        ("bubbles[0].velocity.matrix", lambda d: d["bubbles"][0].update(
            shape={"type": "ellipsoid", "center": [0.0, 0.0, 0.0],
                   "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
            velocity={"matrix": [[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]})),
        ("solver.mesh_level", lambda d: d["solver"].update(mesh_level=True)),
        ("solver.wall_level", lambda d: d["solver"].update(wall_level=True)),
        ("solver.residual_cadence", lambda d: d["solver"].update(residual_cadence=True)),
        ("document.schema_version", lambda d: d.update(schema_version=True)),
    ], ids=["p_infinity-nan", "density-inf", "surface_tension-nan", "t_end-inf", "mass-inf",
            "center-nan", "velocity_center-inf", "center-true", "velocity_matrix-inf",
            "velocity_matrix-asymmetric", "mesh_level-true", "wall_level-true",
            "residual_cadence-true", "schema_version-true"])
    def test_non_finite_and_boolean_values_rejected(self, tmp_path, capsys, field, edit):
        # Python's json reads NaN and Infinity, and True is an int: each
        # must fail validation at its field, so the command exits 2
        doc = equilibrium_doc()
        edit(doc)
        path = write_scenario(tmp_path, doc)
        assert main(["check", "--scenario", path]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err


class TestRun:
    def test_equilibrium_run_writes_constant_rows(self, tmp_path):
        path = write_scenario(tmp_path, equilibrium_doc())
        out = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 5
        for row in rows:
            assert float(row["b0_r"]) == pytest.approx(1.0, abs=1e-8)
            assert float(row["b0_cx"]) == pytest.approx(0.0, abs=1e-10)
        # impulse columns present for the single unbounded sphere
        assert rows[0]["impulse_x"] != ""
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["termination"] == "completed"
        assert diag["gram_condition"] >= 1.0
        assert "n_rhs" in diag["stats"]
        assert "n_rejected" in diag["stats"]
        assert "blas_threads" in diag["stats"]

    def test_poisoned_rhs_calls_reach_diagnostics(self, tmp_path, monkeypatch):
        from bubbledyn import dynamics
        from bubbledyn.errors import DiscretizationError
        doc = equilibrium_doc()
        doc["bubbles"][0]["velocity"] = {"center": [0.1, 0.0, 0.0], "radius": 0.05}
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", path, "--out", str(tmp_path / "clean")]) == 0
        clean = json.loads((tmp_path / "clean" / "diagnostics.json").read_text())
        assert clean["stats"]["n_poisoned"] == 0
        assert clean["stats"]["last_poison"] is None
        plain, calls = dynamics._acceleration, []

        def fails_once(*args, **kw):
            calls.append(1)
            if len(calls) == 3:  # a trial stage inside the first step
                raise DiscretizationError("added-mass matrix not positive definite")
            return plain(*args, **kw)

        monkeypatch.setattr(dynamics, "_acceleration", fails_once)
        out = tmp_path / "poisoned"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["termination"] == "completed"
        # the failed call and the later stages of its step, which inherit
        # its NaN; the text is the failure's, not that of the NaN stages
        assert diag["stats"]["n_poisoned"] >= 1
        assert diag["stats"]["last_poison"] == (
            "DiscretizationError: added-mass matrix not positive definite")
        # the poisoned trial step is rejected; every trial costs six calls
        stats = diag["stats"]
        assert stats["n_rejected"] >= 1
        assert stats["n_rhs"] == 1 + 6 * (stats["n_steps"] + stats["n_rejected"])

    def test_run_determinism_bit_identical(self, tmp_path):
        doc = equilibrium_doc()
        doc["bubbles"][0]["velocity"] = {"center": [0.1, 0.0, 0.0], "radius": 0.05}
        path = write_scenario(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["run", "--scenario", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_text() == \
            (out2 / "trajectory.csv").read_text()

    def test_equal_runs_write_equal_diagnostics(self, tmp_path):
        # two processes, so that nothing one run caches serves the other;
        # the wall time is the one field allowed to differ
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = json.loads((root / "scenarios" / "single_bubble.json").read_text())
        doc["time"]["t_end"] = 0.5
        path = write_scenario(tmp_path, doc)
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bubbledyn.__file__).parents[1])}
        texts = []
        for name in ("a", "b"):
            subprocess.run([sys.executable, "-m", "bubbledyn.cli", "run", "--scenario",
                            path, "--out", str(tmp_path / name)],
                           env=env, check=True, capture_output=True)
            text = (tmp_path / name / "diagnostics.json").read_text()
            texts.append([line for line in text.splitlines() if '"wall_time":' not in line])
        assert texts[0] == texts[1]

    def test_validation_failure_exits_nonzero(self, tmp_path, capsys):
        doc = equilibrium_doc()
        doc["bubbles"][0]["gas"]["gamma"] = 0.5
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", path, "--out", str(tmp_path)])
        assert code != 0
        assert "gamma" in capsys.readouterr().err

    def test_overlapping_bubbles_rejected(self, tmp_path, capsys):
        doc = equilibrium_doc()
        doc["bubbles"] = doc["bubbles"] + [dict(doc["bubbles"][0])]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bubbles" in err and "initial configuration inadmissible" in err
        assert not out.exists()

    def test_out_path_that_cannot_be_created_exits_2(self, tmp_path, capsys):
        # a file where the output directory should go: exit 2 at --out,
        # with no traceback
        path = write_scenario(tmp_path, equilibrium_doc())
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["run", "--scenario", path, "--out", str(blocker)]) == 2
        assert "--out: cannot create the output directory" in capsys.readouterr().err
        assert blocker.read_text() == ""

    def test_cavity_run_preserves_volume_invariant(self, tmp_path):
        path = write_scenario(tmp_path, cavity_pair_doc())
        out = tmp_path / "cav"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        inv = [float(r_["b0_r"]) ** 3 + float(r_["b1_r"]) ** 3 for r_ in rows]
        assert max(abs(v - inv[0]) for v in inv) < 1e-10 * inv[0]
        # no impulse for multi-bubble runs
        assert rows[0]["impulse_x"] == ""

    def test_cavity_run_assembles_each_state_once(self, tmp_path, monkeypatch):
        # the Gram diagnostics, the first RHS call and output row 0 read
        # one added mass of the start state: n_rhs + rows - 1 in a run
        from bubbledyn import potential
        path = write_scenario(tmp_path, cavity_pair_doc(t_end=0.1))
        plain, calls = potential.added_mass, []
        monkeypatch.setattr(potential, "added_mass",
                            lambda *a, **kw: calls.append(1) or plain(*a, **kw))
        out = tmp_path / "cav"
        assert main(["run", "--scenario", path, "--out", str(out),
                     "--residual-cadence", "2"]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        diag = json.loads((out / "diagnostics.json").read_text())
        assert len(calls) == diag["stats"]["n_rhs"] + len(rows) - 1
        scenario = parse_scenario(path)
        fresh = plain(scenario.configuration(), 1, 1.0, 1)
        assert diag["gram_condition"] == fresh.condition
        assert diag["gram_eigenvalues"] == [float(e) for e in fresh.eigenvalues]
        assert diag["gram_reciprocity_defect"] == fresh.asymmetry
        assert diag["collocation_condition"] == fresh.collocation_condition

    def test_walls_of_one_level_keep_their_own_panels(self, tmp_path, monkeypatch):
        # two cavities in one process, whose walls differ in radius and
        # centre at the same level: each run writes what it writes alone,
        # one after the other and in two threads at once, with frequent
        # switches; there each run builds its wall's own blocks once, in its
        # own operator
        import itertools
        from concurrent.futures import ThreadPoolExecutor
        from bubbledyn import potential
        docs = {"a": cavity_pair_doc(t_end=0.05),
                "b": cavity_pair_doc(center=(0.3, -0.2, 0.1), radius=3.6, t_end=0.05)}
        paths = {name: write_scenario(tmp_path, doc, f"{name}.json")
                 for name, doc in docs.items()}
        outs = itertools.count()

        def run(name):
            out = tmp_path / f"{name}-{next(outs)}"
            assert main(["run", "--scenario", paths[name], "--out", str(out)]) == 0
            text = (out / "diagnostics.json").read_text()
            return ((out / "trajectory.csv").read_bytes(),
                    [line for line in text.splitlines() if '"wall_time":' not in line])

        alone = {name: run(name) for name in docs}
        assert alone["a"][0] != alone["b"][0]
        assert [run("a"), run("b"), run("a")] == [alone["a"], alone["b"], alone["a"]]
        on_wall, plain = [], potential._self_blocks
        monkeypatch.setattr(potential, "_self_blocks", lambda panels, *a, **kw:
                            on_wall.append(panels.closure < 0) or plain(panels, *a, **kw))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                both = list(pool.map(run, docs, timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert both == [alone["a"], alone["b"]]
        assert sum(on_wall) == 2

    def test_cavity_constraint_violation_exits_nonzero(self, tmp_path, capsys):
        doc = equilibrium_doc(
            domain={"type": "cavity_sphere", "center": [0.0, 0.0, 0.0],
                    "radius": 3.0})
        doc["bubbles"][0]["velocity"]["radius"] = 0.4
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        # a validation failure anchored at the bubbles, raised before any
        # output directory or assembly
        assert main(["run", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bubbles" in err and "constraint" in err
        assert not out.exists()


    @pytest.mark.parametrize("speed", [0.3, -0.3], ids=["separating", "approaching"])
    def test_start_inside_the_collision_threshold_exits_2(self, tmp_path, capsys, speed):
        doc = equilibrium_doc(time={"t_end": 0.01, "output_dt": 0.005})
        doc["bubbles"] = [dict(doc["bubbles"][0],
                               shape={"type": "sphere", "center": [sign * 1.005, 0.0, 0.0],
                                      "radius": 1.0},
                               velocity={"center": [sign * speed, 0.0, 0.0], "radius": 0.0})
                          for sign in (-1.0, 1.0)]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bubbles" in err and "collision threshold" in err
        assert not out.exists()
        # check names the margin: the gap 0.01 less the threshold 0.02
        assert main(["check", "--scenario", path]) == 0
        assert "collision margin: VIOLATION (smallest gap less threshold -0.01;" in (
            capsys.readouterr().out)


class TestCheck:
    def test_reports_minnaert_and_equilibrium(self, tmp_path, capsys):
        path = write_scenario(tmp_path, equilibrium_doc())
        assert main(["check", "--scenario", path]) == 0
        txt = capsys.readouterr().out
        assert "at equilibrium" in txt
        assert "Minnaert period" in txt
        assert "recommended output_dt" in txt

    def test_flags_cavity_radial_velocity(self, tmp_path, capsys):
        doc = equilibrium_doc(domain={"type": "cavity_sphere",
                                      "center": [0.0, 0.0, 0.0], "radius": 3.0})
        doc["bubbles"][0]["velocity"]["radius"] = 0.3
        path = write_scenario(tmp_path, doc)
        assert main(["check", "--scenario", path]) == 0
        assert "VIOLATED" in capsys.readouterr().out

    def test_flags_overlap(self, tmp_path, capsys):
        doc = equilibrium_doc()
        doc["bubbles"] = doc["bubbles"] + [dict(doc["bubbles"][0])]
        path = write_scenario(tmp_path, doc)
        main(["check", "--scenario", path])
        assert "VIOLATION" in capsys.readouterr().out


class TestConvergence:
    def test_added_mass_approaches_analytic(self, tmp_path, capsys):
        doc = equilibrium_doc(time={"t_end": 0.1, "output_dt": 0.05})
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "conv"
        assert main(["convergence", "--scenario", path, "--levels", "1,2,3",
                     "--out", str(out)]) == 0
        rows = json.loads((out / "convergence.json").read_text())
        diag_r = [r["added_mass_diag"][-1] for r in rows]
        exact = 4 * np.pi
        errs = [abs(d - exact) for d in diag_r]
        assert errs[0] > errs[1] > errs[2]
        # order >= 1 in edge length
        assert errs[0] / errs[1] > 2.0 and errs[1] / errs[2] > 2.0
        assert abs(diag_r[-1] - exact) / exact < 0.02
        cc = [r["added_mass_diag"][0] for r in rows]
        assert abs(cc[-1] - 2 * np.pi / 3) / (2 * np.pi / 3) < 0.02

    def test_one_added_mass_per_state(self, tmp_path, monkeypatch):
        # a level's run assembles each state once, the start state too, and
        # the table reads the start state's added mass and contraction from
        # the run: n_rhs + rows - 1 added masses and n_rhs contractions
        from bubbledyn import potential as pot
        calls = {"added_mass": 0, "_velocity_rates": 0}
        marks, trajs, plain_integrate = [], [], dyn.integrate

        def counted(name, plain):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return plain(*args, **kwargs)
            return wrapper

        def integrate(*args, **kwargs):
            marks.append(dict(calls))
            trajs.append(plain_integrate(*args, **kwargs))
            return trajs[-1]

        for name in calls:
            monkeypatch.setattr(pot, name, counted(name, getattr(pot, name)))
        monkeypatch.setattr(dyn, "integrate", integrate)
        doc = equilibrium_doc(time={"t_end": 0.1, "output_dt": 0.05})
        doc["bubbles"][0]["velocity"]["radius"] = 0.1
        assert main(["convergence", "--scenario", write_scenario(tmp_path, doc),
                     "--levels", "1,2"]) == 0
        marks.append(calls)
        for traj, before, after in zip(trajs, marks, marks[1:]):
            n_rhs = traj.stats["n_rhs"]
            assert after["added_mass"] - before["added_mass"] == n_rhs + len(traj.times) - 1
            assert after["_velocity_rates"] - before["_velocity_rates"] == n_rhs

    def test_single_level_warns(self, tmp_path, capsys):
        doc = equilibrium_doc(time={"t_end": 0.1, "output_dt": 0.05})
        path = write_scenario(tmp_path, doc)
        assert main(["convergence", "--scenario", path, "--levels", "1"]) == 0
        assert "warning" in capsys.readouterr().out

    def test_out_path_that_cannot_be_created_exits_2_before_integrating(
            self, tmp_path, capsys, monkeypatch):
        # the directory is made before the first level's run, so a bad
        # --out costs no integration
        def refuse(*args, **kwargs):
            raise AssertionError("integrated before creating the output directory")

        monkeypatch.setattr(dyn, "integrate", refuse)
        path = write_scenario(tmp_path, equilibrium_doc())
        blocker = tmp_path / "taken"
        blocker.write_text("")
        assert main(["convergence", "--scenario", path, "--levels", "1,2",
                     "--out", str(blocker / "conv")]) == 2
        assert "--out: cannot create the output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("levels", ["", ",", "-1", "7", "9"])
    def test_bad_levels_rejected(self, tmp_path, capsys, levels):
        # an empty list, or a level outside the scenario's [0, 6], is a usage
        # error before any assembly
        path = write_scenario(tmp_path, equilibrium_doc())
        with pytest.raises(SystemExit) as exc:
            main(["convergence", "--scenario", path, "--levels", levels])
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err


def test_readme_scenario_example_is_valid(tmp_path, capsys):
    # the documented scenario format: README's one JSON block parses and
    # passes `bubbledyn check`
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    doc = json.loads(blocks[0])
    scenario_from_dict(doc)
    assert main(["check", "--scenario", write_scenario(tmp_path, doc)]) == 0


def test_csv_header_is_readme_column_list(tmp_path):
    # the full trajectory.csv header of a sphere plus an ellipsoid, against
    # README's list: the sphere's columns, the ellipsoid's parameters
    # followed by their v-prefixed rates, then the energy, impulse and
    # residual columns
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = " ".join(readme.split("CSV columns:", 1)[1].split("\n\n", 1)[0].split())
    sphere = re.search(r"\(sphere: `([^`]*)`", text).group(1).split()
    ellipsoid = re.search(r"ellipsoid: `([^`]*)` plus `v`-prefixed rates", text).group(1).split()
    energies = re.search(r"then `(energy_[^`]*)`", text).group(1).split()
    assert "`impulse_x/y/z`" in text and "`boundary_residual`" in text
    want = (["t"] + [f"b0_{c}" for c in sphere]
            + [f"b1_{c}" for c in ellipsoid + ["v" + c for c in ellipsoid]]
            + energies + ["impulse_x", "impulse_y", "impulse_z", "boundary_residual"])
    doc = equilibrium_doc(time={"t_end": 0.01, "output_dt": 0.01})
    doc["bubbles"][0]["shape"]["center"] = [-2.0, 0.0, 0.0]
    doc["bubbles"].append({
        "shape": {"type": "ellipsoid", "center": [2.0, 0.0, 0.0],
                  "matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.1]]},
        "velocity": {"center": [0.0, 0.0, 0.0],
                     "matrix": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS})
    out = tmp_path / "out"
    assert main(["run", "--scenario", write_scenario(tmp_path, doc), "--out", str(out)]) == 0
    with open(out / "trajectory.csv") as fh:
        header = fh.readline().rstrip("\n").split(",")
    assert header == want
    assert len(want) == 1 + 8 + 18 + 7


class TestRuntimeEvents:
    def test_collision_exits_zero_with_reason(self, tmp_path):
        doc = equilibrium_doc(time={"t_end": 5.0, "output_dt": 0.1})
        doc["bubbles"] = [
            {"shape": {"type": "sphere", "center": [-1.3, 0.0, 0.0], "radius": 1.0},
             "velocity": {"center": [0.8, 0.0, 0.0], "radius": 0.0},
             "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
             "mass": R_EQ_MASS},
            {"shape": {"type": "sphere", "center": [1.3, 0.0, 0.0], "radius": 1.0},
             "velocity": {"center": [-0.8, 0.0, 0.0], "radius": 0.0},
             "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
             "mass": R_EQ_MASS}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "coll"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["termination"] == "collision"
        assert diag["stats"]["t_final"] < 5.0


class TestResidualCadence:
    def test_residual_column_sampled(self, tmp_path):
        doc = equilibrium_doc(time={"t_end": 0.4, "output_dt": 0.1})
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "resid"
        assert main(["run", "--scenario", path, "--out", str(out),
                     "--residual-cadence", "2"]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        sampled = [r_["boundary_residual"] for r_ in rows]
        assert sampled[0] != "" and sampled[2] != ""
        assert sampled[1] == ""
        # equilibrium: residual at the discretization floor
        assert abs(float(sampled[0])) < 1e-6

    def test_negative_cadence_rejected(self, tmp_path, capsys):
        # k % -4 == 0 would silently sample like a cadence of 4
        path = write_scenario(tmp_path, equilibrium_doc())
        assert main(["run", "--scenario", path, "--out", str(tmp_path / "out"),
                     "--residual-cadence", "-4"]) == 2
        assert "--residual-cadence: must be >= 0" in capsys.readouterr().err
        doc = equilibrium_doc(solver={"mesh_level": 0, "residual_cadence": -4})
        with pytest.raises(ScenarioError, match=r"solver\.residual_cadence"):
            scenario_from_dict(doc)


class TestOutputRows:
    def test_too_many_output_rows_rejected_before_any_assembly(self, tmp_path, capsys,
                                                               monkeypatch):
        # a run integrates to t_end first and then assembles one added mass
        # per output row: a cadence of 1e-12 over 6 time units asks for
        # 6e12 rows, which the document check refuses at its field, so that
        # check and run exit 2 before anything is meshed or assembled
        import bubbledyn.potential as pot_mod
        from bubbledyn.scenario import MAX_OUTPUT_ROWS

        def refuse(*args, **kwargs):
            raise AssertionError("assembled a scenario that should be refused")

        monkeypatch.setattr(pot_mod, "_Assembly", refuse)
        for dt in (1e-12, 6.0 / (MAX_OUTPUT_ROWS - 1)):
            doc = equilibrium_doc(time={"t_end": 6.0, "output_dt": dt})
            with pytest.raises(ScenarioError, match=r"time\.output_dt"):
                scenario_from_dict(doc)
            path = write_scenario(tmp_path, doc)
            for argv in (["check", "--scenario", path],
                         ["run", "--scenario", path, "--out", str(tmp_path / "out")]):
                assert main(argv) == 2
                assert "time.output_dt" in capsys.readouterr().err
        # floor(t_end / output_dt) + 1 rows and one for a final time off
        # the grid: MAX_OUTPUT_ROWS at most
        largest = scenario_from_dict(equilibrium_doc(
            time={"t_end": float(MAX_OUTPUT_ROWS - 2), "output_dt": 1.0}))
        assert largest.t_end / largest.output_dt + 2 == MAX_OUTPUT_ROWS


class TestDegenerateWall:
    def test_degenerate_wall_triangles_rejected(self):
        from bubbledyn.errors import DegenerateShapeError
        from bubbledyn.shapes import CavityMesh, wall_mesh
        verts = np.array([[3.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0], [-3.0, 0, 0],
                          [0, -3.0, 0], [0, 0, -3.0]])
        tris = np.array([[0, 1, 2], [0, 2, 4], [0, 4, 5], [0, 5, 1],
                         [3, 2, 1], [3, 4, 2], [3, 5, 4], [3, 1, 5],
                         [0, 0, 1]])  # last one has zero area
        with pytest.raises(DegenerateShapeError):
            wall_mesh(CavityMesh(vertices=verts, triangles=tris), 1)


OCTAHEDRON_VERTICES = [[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0],
                       [-3.0, 0.0, 0.0], [0.0, -3.0, 0.0], [0.0, 0.0, -3.0]]
OCTAHEDRON_TRIANGLES = [[0, 1, 2], [0, 2, 4], [0, 4, 5], [0, 5, 1],
                        [3, 2, 1], [3, 4, 2], [3, 5, 4], [3, 1, 5]]


class TestCavityMeshValidation:
    @pytest.mark.parametrize("field, edit", [
        ("domain.vertices", lambda v, t: v[2].__setitem__(2, float("nan"))),
        ("domain.triangles", lambda v, t: t[1].__setitem__(2, 4.7)),
        ("domain.triangles", lambda v, t: t[1].__setitem__(2, 99)),
        ("domain.triangles", lambda v, t: t[1].append(3)),
    ], ids=["vertex-nan", "index-fractional", "index-out-of-range", "rows-ragged"])
    def test_inline_wall_rejected_at_its_field(self, tmp_path, capsys, field, edit):
        # each fault must fail validation at its field, so the command exits 2
        vertices = [list(v) for v in OCTAHEDRON_VERTICES]
        triangles = [list(t) for t in OCTAHEDRON_TRIANGLES]
        edit(vertices, triangles)
        doc = equilibrium_doc(domain={"type": "cavity_mesh", "vertices": vertices,
                                      "triangles": triangles})
        path = write_scenario(tmp_path, doc)
        assert main(["check", "--scenario", path]) == 2
        assert f"scenario error: {field}:" in capsys.readouterr().err

    def test_truncated_off_file_rejected_at_path(self, tmp_path, capsys):
        lines = ["OFF", "6 8 0", *(" ".join(map(repr, v)) for v in OCTAHEDRON_VERTICES),
                 *(f"3 {a} {b} {c}" for a, b, c in OCTAHEDRON_TRIANGLES)]
        wall = tmp_path / "wall.off"
        wall.write_text("\n".join(lines[:-2]) + "\n")  # the last two faces are missing
        doc = equilibrium_doc(domain={"type": "cavity_mesh", "path": "wall.off"})
        path = write_scenario(tmp_path, doc)
        assert main(["check", "--scenario", path]) == 2
        assert "scenario error: domain.path: cannot load OFF mesh" in capsys.readouterr().err


def write_icosphere_off(tmp_path, R=4.0):
    """The level-1 icosphere of radius R written as tmp_path/wall.off;
    returns its corners (T, 3, 3) by face."""
    from bubbledyn.shapes import reference_icosphere
    verts, faces = reference_icosphere(1)
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{float(R * v[0])!r} {float(R * v[1])!r} {float(R * v[2])!r}"
              for v in verts]
    lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in faces]
    (tmp_path / "wall.off").write_text("\n".join(lines) + "\n")
    return R * verts[faces]


class TestOffIngestion:
    def test_cavity_mesh_from_off_file(self, tmp_path):
        # icosphere wall, written as OFF, used as the cavity boundary
        write_icosphere_off(tmp_path)
        doc = equilibrium_doc(domain={"type": "cavity_mesh", "path": "wall.off"},
                              time={"t_end": 0.05, "output_dt": 0.05})
        # only translations are admissible for a single bubble in a cavity
        doc["bubbles"][0]["velocity"] = {"center": [0.1, 0.0, 0.0], "radius": 0.0}
        doc["solver"] = {"mesh_level": 1}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "offrun"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["termination"] == "completed"

    def test_clearance_from_an_ingested_wall(self, tmp_path, capsys):
        # the wall's flat triangles are its exact surface: a sphere's
        # clearance is its centre's distance to them less its radius, at
        # every level.  The wall is convex, so that distance is the one to
        # the plane of the nearest face, which holds the centre's foot.  A
        # bound through the wall's covering radius (1.43) read -0.236,
        # -0.026 and 0.114 at levels 0-2 for a clearance of 1.629, and
        # refused the scenario at level 1
        from bubbledyn.shapes import check_admissible
        corners = write_icosphere_off(tmp_path)
        center, r = np.array([1.4, 0.0, 0.0]), 0.8
        normals = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        heights = np.abs(np.einsum('tk,tk->t', center - corners[:, 0], normals))
        face = np.argmin(heights)
        a, b, _ = np.linalg.solve(np.column_stack([corners[face, 1] - corners[face, 0],
                                                   corners[face, 2] - corners[face, 0],
                                                   normals[face]]),
                                  center - corners[face, 0])
        assert min(a, b, 1.0 - a - b) > 0.0
        doc = equilibrium_doc(domain={"type": "cavity_mesh", "path": "wall.off"},
                              solver={"mesh_level": 1})
        doc["bubbles"][0]["shape"] = {"type": "sphere", "center": list(center), "radius": r}
        doc["bubbles"][0]["mass"] = R_EQ_MASS * r ** 3
        path = write_scenario(tmp_path, doc)
        config = parse_scenario(path).configuration()
        for level in range(3):
            gap = check_admissible(config, level).min_gap
            assert abs(gap - (heights[face] - r)) <= 1e-12
        assert main(["check", "--scenario", path]) == 0
        assert "admissibility: ok" in capsys.readouterr().out
