import csv
import json

import numpy as np
import pytest

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


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        ("solver.mesh_level", lambda d: d["solver"].update(mesh_level=True)),
        ("solver.wall_level", lambda d: d["solver"].update(wall_level=True)),
        ("solver.residual_cadence", lambda d: d["solver"].update(residual_cadence=True)),
        ("document.schema_version", lambda d: d.update(schema_version=True)),
    ], ids=["p_infinity-nan", "density-inf", "surface_tension-nan", "t_end-inf", "mass-inf",
            "center-nan", "velocity_center-inf", "center-true", "velocity_matrix-inf",
            "mesh_level-true", "wall_level-true", "residual_cadence-true",
            "schema_version-true"])
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

    def test_run_determinism_bit_identical(self, tmp_path):
        doc = equilibrium_doc()
        doc["bubbles"][0]["velocity"] = {"center": [0.1, 0.0, 0.0], "radius": 0.05}
        path = write_scenario(tmp_path, doc)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--scenario", path, "--out", str(out1)]) == 0
        assert main(["run", "--scenario", path, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_text() == \
            (out2 / "trajectory.csv").read_text()

    def test_validation_failure_exits_nonzero(self, tmp_path, capsys):
        doc = equilibrium_doc()
        doc["bubbles"][0]["gas"]["gamma"] = 0.5
        path = write_scenario(tmp_path, doc)
        code = main(["run", "--scenario", path, "--out", str(tmp_path)])
        assert code != 0
        assert "gamma" in capsys.readouterr().err

    def test_overlapping_bubbles_rejected(self, tmp_path):
        doc = equilibrium_doc()
        doc["bubbles"] = doc["bubbles"] + [dict(doc["bubbles"][0])]
        path = write_scenario(tmp_path, doc)
        assert main(["run", "--scenario", path, "--out", str(tmp_path)]) != 0

    def test_cavity_run_preserves_volume_invariant(self, tmp_path):
        r = 0.8
        doc = equilibrium_doc(
            domain={"type": "cavity_sphere", "center": [0.0, 0.0, 0.0],
                    "radius": 4.0},
            time={"t_end": 0.15, "output_dt": 0.05})
        doc["bubbles"] = [
            {"shape": {"type": "sphere", "center": [-1.4, 0.0, 0.0], "radius": r},
             "velocity": {"center": [0.0, 0.0, 0.0], "radius": 0.2},
             "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
             "mass": R_EQ_MASS * r ** 3},
            {"shape": {"type": "sphere", "center": [1.4, 0.0, 0.0], "radius": r},
             "velocity": {"center": [0.0, 0.0, 0.0], "radius": -0.2},
             "gas": {"kind": "polytropic", "K": 1.0, "gamma": 1.4},
             "mass": R_EQ_MASS * r ** 3}]
        doc["solver"] = {"mesh_level": 1, "wall_level": 1,
                         "rel_tol": 1e-10, "abs_tol": 1e-12}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "cav"
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        inv = [float(r_["b0_r"]) ** 3 + float(r_["b1_r"]) ** 3 for r_ in rows]
        assert max(abs(v - inv[0]) for v in inv) < 1e-10 * inv[0]
        # no impulse for multi-bubble runs
        assert rows[0]["impulse_x"] == ""

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

    def test_single_level_warns(self, tmp_path, capsys):
        doc = equilibrium_doc(time={"t_end": 0.1, "output_dt": 0.05})
        path = write_scenario(tmp_path, doc)
        assert main(["convergence", "--scenario", path, "--levels", "1"]) == 0
        assert "warning" in capsys.readouterr().out


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


class TestOffIngestion:
    def test_cavity_mesh_from_off_file(self, tmp_path):
        # icosphere wall, written as OFF, used as the cavity boundary
        from bubbledyn.shapes import reference_icosphere
        verts, faces = reference_icosphere(1)
        R = 4.0
        lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
        lines += [f"{float(R * v[0])!r} {float(R * v[1])!r} {float(R * v[2])!r}"
                  for v in verts]
        lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in faces]
        wall = tmp_path / "wall.off"
        wall.write_text("\n".join(lines) + "\n")
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
