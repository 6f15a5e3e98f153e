import json
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

import bubbledyn
from bubbledyn import _lapack, dynamics, potential as pot, shapes
from bubbledyn.cli import write_trajectory_csv
from bubbledyn.dynamics import boundary_residual, eom_rhs, integrate, kelvin_impulse
from bubbledyn.errors import (BubbleDynError, CompatibilityError, IllPosedProblemError,
                              UnsupportedConfigurationError)
from bubbledyn.reference import SingleBubbleState, closed_form_rhs
from bubbledyn.scenario import parse_scenario, scenario_from_dict
from bubbledyn.shapes import (CavitySphere, Configuration, EllipsoidParams, SphereParams,
                              config_from_params, constraint_basis, pack_params,
                              volume_hessian)

R_EQ_MASS = 4 * np.pi / 3  # gas mass giving r_eq = 1 for K=1, gamma=1.4, p_inf=1


def sphere_doc(radius=1.0, vc=(0.0, 0.0, 0.0), vr=0.0, level=1, t_end=1.0,
               output_dt=0.2, **solver):
    return {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "unbounded"},
        "bubbles": [{"shape": {"type": "sphere", "center": [0, 0, 0],
                               "radius": radius},
                     "velocity": {"center": list(vc), "radius": vr},
                     "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}],
        "solver": {"mesh_level": level, **solver},
        "time": {"t_end": t_end, "output_dt": output_dt}}


def cavity_doc(level=1, t_end=0.2, rel_tol=1e-9, abs_tol=1e-11, vr=0.25,
               radii=(0.8, 0.8)):
    """Two spheres on the x axis in a cavity of radius 4, the gas of each
    in equilibrium at r = 0.8 and the radial rates volume preserving."""
    r1, r2 = radii
    return {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "cavity_sphere", "center": [0, 0, 0], "radius": 4.0},
        "bubbles": [
            {"shape": {"type": "sphere", "center": [-1.4, 0, 0], "radius": r1},
             "velocity": {"center": [0, 0, 0], "radius": vr},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS * 0.8 ** 3},
            {"shape": {"type": "sphere", "center": [1.4, 0, 0], "radius": r2},
             "velocity": {"center": [0, 0, 0], "radius": -vr * (r1 / r2) ** 2},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS * 0.8 ** 3}],
        "solver": {"mesh_level": level, "wall_level": level,
                   "rel_tol": rel_tol, "abs_tol": abs_tol},
        "time": {"t_end": t_end, "output_dt": t_end / 4}}


def close_pair_doc(speed):
    """Two unit spheres 0.01 apart, inside the default collision threshold
    (0.02), each moving away from the other at ``speed`` (towards it when
    negative)."""
    return {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "unbounded"},
        "bubbles": [
            {"shape": {"type": "sphere", "center": [sign * 1.005, 0, 0], "radius": 1.0},
             "velocity": {"center": [sign * speed, 0, 0], "radius": 0.0},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}
            for sign in (-1.0, 1.0)],
        "solver": {"mesh_level": 0},
        "time": {"t_end": 0.01, "output_dt": 0.005}}


class TestConstraintBasis:
    def test_unbounded_identity(self):
        config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=1.0),))
        basis = constraint_basis(config)
        assert not basis.constrained
        assert np.array_equal(basis.matrix, np.eye(4))

    def test_two_spheres_cavity_hyperplane(self):
        config = Configuration(
            bubbles=(SphereParams(center=[-1.4, 0, 0], radius=0.8),
                     SphereParams(center=[1.4, 0, 0], radius=0.9)),
            domain=CavitySphere(center=np.zeros(3), radius=4.0))
        basis = constraint_basis(config)
        assert basis.matrix.shape == (8, 7)
        # orthonormal columns, all with zero volume flux r1^2 v1 + r2^2 v2
        assert np.allclose(basis.matrix.T @ basis.matrix, np.eye(7), atol=1e-13)
        flux = basis.flux_covector @ basis.matrix
        assert np.max(np.abs(flux)) < 1e-12
        assert basis.flux_covector[3] == pytest.approx(4 * np.pi * 0.8 ** 2)

    def test_one_sphere_cavity_translations_only(self):
        config = Configuration(
            bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=2.0))
        basis = constraint_basis(config)
        assert basis.matrix.shape == (4, 3)
        # radius direction excluded: every admissible velocity has zero r-slot
        assert np.max(np.abs(basis.matrix[3, :])) < 1e-13

    def test_degenerate_covector_rejected(self, monkeypatch):
        config = Configuration(
            bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=2.0))
        monkeypatch.setattr(shapes, "volume_gradient", lambda c: np.zeros(4))
        with pytest.raises(UnsupportedConfigurationError):
            constraint_basis(config)


class TestEomRhs:
    def test_equilibrium_is_stationary(self):
        s = scenario_from_dict(sphere_doc(radius=1.0, level=1))
        acc = eom_rhs(s, s.initial_state())
        assert acc[3] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(acc[:3], 0.0, atol=1e-10)

    def test_radial_acceleration_from_translation(self):
        s = scenario_from_dict(sphere_doc(radius=1.0, vc=(0.4, 0, 0), level=2))
        acc = eom_rhs(s, s.initial_state())
        assert acc[3] == pytest.approx(0.4 ** 2 / 4, rel=0.025)
        assert np.allclose(acc[:3], 0.0, atol=1e-10)

    def test_matches_closed_form_generic_state(self):
        s = scenario_from_dict(sphere_doc(radius=1.1, vc=(0.3, 0, 0), vr=0.2,
                                          level=2))
        acc = eom_rhs(s, s.initial_state())
        gas = s.bubbles[0].gas
        ref = SingleBubbleState(c=np.zeros(3), c_dot=[0.3, 0, 0], r=1.1, r_dot=0.2)
        r_dd, c_dd = closed_form_rhs(ref, gas, p_infinity=1.0, liquid_density=1.0)
        assert acc[3] == pytest.approx(r_dd, rel=0.03)
        assert acc[0] == pytest.approx(c_dd[0], rel=0.03)

    def test_surface_tension_equilibrium(self):
        # with sigma the rest radius satisfies p_B = p_inf + 2 sigma / r
        sigma = 0.1
        doc = sphere_doc(radius=1.0, level=1)
        doc["surface_tension"] = sigma
        doc["bubbles"][0]["mass"] = R_EQ_MASS * (1.0 + 2 * sigma) ** (1 / 1.4)
        s = scenario_from_dict(doc)
        acc = eom_rhs(s, s.initial_state())
        assert acc[3] == pytest.approx(0.0, abs=1e-9)
        # and the reference model agrees on the balance
        gas = s.bubbles[0].gas
        ref = SingleBubbleState(c=np.zeros(3), c_dot=np.zeros(3), r=1.0, r_dot=0.0)
        r_dd, _ = closed_form_rhs(ref, gas, p_infinity=1.0, liquid_density=1.0,
                                  surface_tension=sigma)
        assert r_dd == pytest.approx(0.0, abs=1e-12)

    def test_inadmissible_state_raises(self):
        doc = sphere_doc()
        doc["bubbles"].append(
            {"shape": {"type": "sphere", "center": [1.5, 0, 0], "radius": 1.0},
             "velocity": {"center": [0, 0, 0], "radius": 0.0},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS})
        s = scenario_from_dict(doc)
        with pytest.raises(BubbleDynError):
            eom_rhs(s, s.initial_state())

    def test_cavity_velocity_constraint_enforced(self):
        s = scenario_from_dict(cavity_doc())
        bad = cavity_doc()
        bad["bubbles"][1]["velocity"]["radius"] = 0.0  # breaks r1^2 v1 + r2^2 v2 = 0
        s_bad = scenario_from_dict(bad)
        eom_rhs(s, s.initial_state())  # constrained data passes
        with pytest.raises(CompatibilityError):
            eom_rhs(s_bad, s_bad.initial_state())


class TestIntegrate:
    def test_equilibrium_stays_constant(self):
        s = scenario_from_dict(sphere_doc(radius=1.0, level=0, t_end=1.0,
                                          output_dt=0.25))
        traj = integrate(s)
        assert traj.termination == "completed"
        radii = np.array([st.config.bubbles[0].radius for st in traj.states])
        assert np.max(np.abs(radii - 1.0)) < 1e-8
        centers = np.array([st.config.bubbles[0].center for st in traj.states])
        assert np.max(np.abs(centers)) < 1e-10

    def test_energy_and_impulse_conservation(self):
        s = scenario_from_dict(sphere_doc(radius=1.1, vc=(0.1, 0, 0), level=1,
                                          t_end=3.0, output_dt=0.5))
        traj = integrate(s)
        E = traj.total_energy
        assert np.max(np.abs(E - E[0])) < 1e-7 * abs(E[0])
        imp = traj.impulse
        assert imp is not None
        assert np.max(np.abs(imp - imp[0])) < 1e-7 * np.linalg.norm(imp[0])

    def test_deforming_ellipsoid_pair_conserves_energy(self):
        # two ellipsoids deforming along every matrix slot, with surface
        # tension, at level 1: the equations of motion conserve
        # E = 1/2 q'A q' + U exactly only when every column of dA is the
        # derivative of A, since dE/dt = 1/2 sum_k q'_k q'^T (dA_k - D_k) q'
        # for the columns D_k the run uses.  The drift stays below 1e-11 of
        # the initial kinetic energy; transposing the linear map E S^-1 of
        # one off-diagonal matrix slot drifts by 4e-6
        bubbles = []
        for sign, S, rate in (
                (-1.0, [[1.0, 0.04, 0.0], [0.04, 0.9, 0.02], [0.0, 0.02, 0.85]],
                 [[0.2, 0.1, 0.0], [0.1, -0.15, 0.05], [0.0, 0.05, -0.05]]),
                (1.0, [[0.9, 0.0, 0.03], [0.0, 1.0, -0.02], [0.03, -0.02, 0.95]],
                 [[-0.1, 0.0, 0.08], [0.0, 0.15, -0.1], [0.08, -0.1, 0.05]])):
            bubbles.append({"shape": {"type": "ellipsoid", "center": [1.5 * sign, 0.1 * sign, 0],
                                      "matrix": S},
                            "velocity": {"center": [-0.1 * sign, 0, 0.05], "matrix": rate},
                            "gas": {"K": 1.0, "gamma": 1.4}, "mass": 0.9 * R_EQ_MASS})
        doc = sphere_doc(level=1, t_end=0.05, output_dt=0.0125, rel_tol=1e-10,
                         abs_tol=1e-12)
        doc.update(bubbles=bubbles, surface_tension=0.05)
        traj = integrate(scenario_from_dict(doc))
        assert traj.termination == "completed"
        E = traj.total_energy
        assert np.max(np.abs(E - E[0])) <= 1e-9 * traj.kinetic[0]

    def test_collision_event_stops_run(self):
        doc = {
            "liquid": {"density": 1.0, "p_infinity": 1.0},
            "domain": {"type": "unbounded"},
            "bubbles": [
                {"shape": {"type": "sphere", "center": [-1.3, 0, 0], "radius": 1.0},
                 "velocity": {"center": [0.8, 0, 0], "radius": 0.0},
                 "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS},
                {"shape": {"type": "sphere", "center": [1.3, 0, 0], "radius": 1.0},
                 "velocity": {"center": [-0.8, 0, 0], "radius": 0.0},
                 "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}],
            "solver": {"mesh_level": 0},
            "time": {"t_end": 5.0, "output_dt": 0.1}}
        traj = integrate(scenario_from_dict(doc))
        assert traj.termination == "collision"
        assert traj.stats["t_final"] < 5.0
        gap = (traj.states[-1].config.bubbles[1].center[0]
               - traj.states[-1].config.bubbles[0].center[0] - 2.0)
        assert gap > 0  # stopped before actual contact

    def test_inadmissible_trial_stages_are_poisoned(self, monkeypatch):
        # spheres closing fast with a collision threshold of 1e-6 of a
        # radius: RK trial stages overshoot into overlap before the event
        # stops the run.  Each such stage is poisoned before any
        # acceleration is computed, counted and named
        doc = {
            "liquid": {"density": 1.0, "p_infinity": 1.0},
            "domain": {"type": "unbounded"},
            "bubbles": [
                {"shape": {"type": "sphere", "center": [sign * 1.3, 0, 0], "radius": 1.0},
                 "velocity": {"center": [-sign * 0.8, 0, 0], "radius": 0.0},
                 "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}
                for sign in (-1.0, 1.0)],
            "solver": {"mesh_level": 0, "collision_gap_fraction": 1e-6,
                       "rel_tol": 1e-3, "abs_tol": 1e-3},
            "time": {"t_end": 5.0, "output_dt": 1.0}}
        gaps = []
        plain = dynamics._acceleration

        def recording(scenario, mass, qdot):
            b0, b1 = mass.config.bubbles
            gaps.append(np.linalg.norm(b1.center - b0.center) - b0.radius - b1.radius)
            return plain(scenario, mass, qdot)

        monkeypatch.setattr(dynamics, "_acceleration", recording)
        traj = integrate(scenario_from_dict(doc))
        assert traj.termination == "collision"
        assert traj.stats["n_poisoned"] > 0
        assert "not admissible" in traj.stats["last_poison"]
        assert "overlap" in traj.stats["last_poison"]
        assert min(gaps) > 0.0
        # each poisoned trial step is rejected, and every trial costs six calls
        stats = traj.stats
        assert stats["n_rejected"] > 0
        assert stats["n_rhs"] == 1 + 6 * (stats["n_steps"] + stats["n_rejected"])

    @pytest.mark.parametrize("speed", [0.3, -0.3], ids=["separating", "approaching"])
    def test_start_inside_the_collision_threshold_raises(self, speed):
        # the collision event fires on a sign change only: a separating pair
        # would end in a "collision" as its gap grows out through the
        # threshold, an approaching one would step ever smaller toward contact
        with pytest.raises(BubbleDynError, match="collision threshold"):
            integrate(scenario_from_dict(close_pair_doc(speed)))

    def test_collision_margin_measures_at_the_admissibility_level(self):
        # two unit ellipsoids 0.5 apart: the level-1 gap bound subtracts a
        # covering radius that reads them as overlapping, the level-2 bound
        # does not, and the collision event agrees with check_admissible
        doc = {"liquid": {"density": 1.0, "p_infinity": 1.0},
               "domain": {"type": "unbounded"},
               "bubbles": [{"shape": {"type": "ellipsoid", "center": [x, 0, 0],
                                      "matrix": np.eye(3).tolist()},
                            "velocity": {"center": [0, 0, 0], "matrix": np.zeros((3, 3)).tolist()},
                            "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}
                           for x in (-1.25, 1.25)],
               "solver": {"mesh_level": 2},
               "time": {"t_end": 0.01, "output_dt": 0.005}}
        for level in (1, 2, 3):
            doc["solver"]["mesh_level"] = level
            scenario = scenario_from_dict(doc)
            config = scenario.configuration()
            report = shapes.check_admissible(config, scenario.admissibility_level)
            margin = dynamics.collision_margin(scenario, config)
            assert margin == pytest.approx(report.min_gap - 0.02, abs=1e-15)
            assert (margin > 0) == (level > 1) == report.ok

    def test_ill_posed_trial_solve_is_poisoned(self, monkeypatch):
        calls, plain = [0], dynamics.mass_at

        def failing(scenario, config, **kw):
            calls[0] += 1
            if calls[0] == 3:                  # a stage of the first trial step
                raise IllPosedProblemError("collocation solve produced non-finite density")
            return plain(scenario, config, **kw)

        monkeypatch.setattr(dynamics, "mass_at", failing)
        traj = integrate(scenario_from_dict(sphere_doc(vr=0.05, level=0, t_end=0.2,
                                                       output_dt=0.1)))
        assert traj.termination == "completed"
        assert traj.stats["n_poisoned"] >= 1
        assert traj.stats["last_poison"].startswith("IllPosedProblemError:")

    @pytest.mark.parametrize("planted", [1, 0])
    def test_non_finite_contraction_solve_is_poisoned(self, monkeypatch, planted):
        # a NaN from the contraction's transposed solve z (trans 1) or its
        # one-column forward solve psi (trans 0) of the third RHS, a stage
        # of the first trial step: the RHS is poisoned, and no NaN reaches
        # the trajectory
        seen, plain = [0], pot.sla.lu_solve

        def nan_on_third(lu, b, trans=0):
            x = plain(lu, b, trans=trans)
            if trans == planted and np.ndim(b) == 1:
                seen[0] += 1
                if seen[0] == 3:
                    return np.full_like(x, np.nan)
            return x

        monkeypatch.setattr(pot.sla, "lu_solve", nan_on_third)
        traj = integrate(scenario_from_dict(cavity_doc(level=1, t_end=0.02)))
        assert seen[0] > 3
        assert traj.termination == "completed"
        assert traj.stats["n_poisoned"] >= 1
        assert traj.stats["last_poison"].startswith("IllPosedProblemError:")
        assert "non-finite" in traj.stats["last_poison"]
        for values in (traj.times, traj.kinetic, traj.potential, traj.total_energy,
                       *(np.concatenate(s.packed()) for s in traj.states)):
            assert np.isfinite(values).all()

    def test_ill_posed_initial_state_raises(self):
        # a level-0 cavity's collocation matrix is numerically singular, so
        # every trial from the initial state is poisoned and no step is
        # taken: the run ends with the reason, not in the output sampling
        with pytest.raises(BubbleDynError, match="no step from the initial state.*"
                                                 "numerically singular"):
            integrate(scenario_from_dict(cavity_doc(level=0, t_end=0.01)))

    def test_one_added_mass_per_state(self, monkeypatch):
        # every distinct state is assembled once: each RHS call and each
        # output row but row 0, which is the initial state and takes the
        # first RHS call's added mass and contraction; a residual sample's
        # acceleration and residual share the row's added mass and the one
        # rate pass its velocity took
        s = scenario_from_dict(sphere_doc(radius=1.1, vc=(0.1, 0, 0), vr=0.05, level=0,
                                          t_end=0.4, output_dt=0.2, residual_cadence=1))
        calls = {"added_mass": 0, "_velocity_rates": 0, "_potential_rates": 0}

        def counted(name, plain):
            def wrapper(*args, **kw):
                calls[name] += 1
                return plain(*args, **kw)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pot, name, counted(name, getattr(pot, name)))
        traj = integrate(s)
        samples = np.count_nonzero(~np.isnan(traj.boundary_residuals))
        assert traj.stats["n_poisoned"] == 0
        assert samples == len(traj.times) == 3
        assert calls["added_mass"] == traj.stats["n_rhs"] + len(traj.times) - 1
        assert calls["_velocity_rates"] == traj.stats["n_rhs"] + samples - 1
        assert calls["_potential_rates"] == 0
        # the dense output at t = 0 is the initial state bit for bit, and so
        # is its residual
        state = traj.states[0]
        assert np.array_equal(np.concatenate(state.packed()),
                              np.concatenate(s.initial_state().packed()))
        fresh = boundary_residual(s, state, dynamics.mass_at(s, state.config),
                                  eom_rhs(s, state))
        assert traj.boundary_residuals[0] == fresh

    def test_only_contracted_states_keep_kernel_terms(self, monkeypatch):
        # the added mass of every RHS state and of every residual-sampled
        # row keeps the kernel terms its contraction reads; a row that
        # takes no residual sample keeps none, and its outputs are the
        # same bits either way
        doc = cavity_doc(level=1, t_end=0.02)
        doc["solver"]["residual_cadence"] = 2
        kept, plain = [], pot.added_mass

        def recorded(*args, **kw):
            mass = plain(*args, **kw)
            kept.append(bool(mass.assembly._terms))
            return mass

        monkeypatch.setattr(pot, "added_mass", recorded)
        traj = integrate(scenario_from_dict(doc))
        n_rhs, rows = traj.stats["n_rhs"], len(traj.times)
        sampled = np.flatnonzero(~np.isnan(traj.boundary_residuals))
        assert rows == 5 and list(sampled) == [0, 2, 4]
        # the RHS states, then rows 1-4 (row 0 is the first RHS state's)
        assert len(kept) == n_rhs + rows - 1
        assert kept == [True] * n_rhs + [False, True, False, True]
        monkeypatch.setattr(dynamics, "mass_at", lambda s, config, rates=True, operator=None:
                            pot.added_mass(config, s.mesh_level, s.liquid_density,
                                           s.wall_level))
        again = integrate(scenario_from_dict(doc))
        for a, b in ((traj.kinetic, again.kinetic), (traj.potential, again.potential),
                     (traj.boundary_residuals, again.boundary_residuals)):
            assert np.array_equal(a, b, equal_nan=True)

    def test_collapse_hits_degeneracy_event(self):
        # gas mass for equilibrium at r = 1 but started at r = 2.5 with a
        # strong inward velocity: violent collapse
        doc = sphere_doc(radius=2.5, vr=-3.0, level=0, t_end=10.0, output_dt=0.1)
        traj = integrate(scenario_from_dict(doc))
        assert traj.termination == "degenerate-shape"
        assert traj.states[-1].config.bubbles[0].radius < 0.2

    def test_permutation_equivariance(self):
        base = cavity_doc(t_end=0.1)
        swapped = cavity_doc(t_end=0.1)
        swapped["bubbles"] = [swapped["bubbles"][1], swapped["bubbles"][0]]
        ta = integrate(scenario_from_dict(base))
        tb = integrate(scenario_from_dict(swapped))
        qa = pack_params(ta.states[-1].config)
        qb = pack_params(tb.states[-1].config)
        assert np.allclose(qa[:4], qb[4:], atol=1e-9)
        assert np.allclose(qa[4:], qb[:4], atol=1e-9)

    def test_cavity_volume_invariant(self):
        s = scenario_from_dict(cavity_doc(t_end=0.25, rel_tol=1e-10, abs_tol=1e-12))
        traj = integrate(s)
        assert traj.termination == "completed"
        r3 = np.array([sum(b.radius ** 3 for b in st.config.bubbles)
                       for st in traj.states])
        assert np.max(np.abs(r3 - r3[0])) < 1e-10 * r3[0]
        # velocity stays in the constraint hyperplane
        from bubbledyn.shapes import volume_gradient
        for st in traj.states:
            ell = volume_gradient(st.config)
            qd = st.velocity
            assert abs(ell @ qd) < 1e-9 * max(1.0, np.linalg.norm(ell) * np.linalg.norm(qd))

    def test_ellipsoid_matches_sphere_trajectory(self):
        # the ellipsoid family contains the sphere family, but it also
        # resolves the pressure quadrupole a translating bubble feels; keep
        # the translation small so that richer-family deformation (an
        # O(|c'|^2 t^2) physical effect, not an error) stays below tolerance
        vc = (0.02, 0, 0)
        s_sphere = scenario_from_dict(sphere_doc(radius=1.1, vc=vc,
                                                 level=1, t_end=1.0, output_dt=0.25))
        doc = sphere_doc(level=1, t_end=1.0, output_dt=0.25)
        doc["bubbles"][0]["shape"] = {"type": "ellipsoid", "center": [0, 0, 0],
                                      "matrix": [[1.1, 0, 0], [0, 1.1, 0], [0, 0, 1.1]]}
        doc["bubbles"][0]["velocity"] = {"center": list(vc),
                                         "matrix": [[0.0] * 3] * 3}
        s_ell = scenario_from_dict(doc)
        ta = integrate(s_sphere)
        tb = integrate(s_ell)
        for sa, sb in zip(ta.states, tb.states):
            S = sb.config.bubbles[0].shape_matrix
            r = sa.config.bubbles[0].radius
            assert np.max(np.abs(S - S[0, 0] * np.eye(3))) < 3e-3
            assert S[0, 0] == pytest.approx(r, rel=2e-2)
            assert np.allclose(sb.config.bubbles[0].center,
                               sa.config.bubbles[0].center, atol=2e-2)

    def test_lagrangian_oracle_along_trajectory(self):
        # d/dt(dL/dqdot) - dL/dq by finite differences on the dense solution,
        # with L = 1/2 qd' A(q) qd - U(q) evaluated through the same
        # discrete operators the solver uses
        from bubbledyn.potential import added_mass
        from bubbledyn import gas as gas_mod
        from scipy.integrate import solve_ivp
        from bubbledyn.dynamics import _acceleration

        s = scenario_from_dict(sphere_doc(radius=1.1, vc=(0.2, 0, 0), vr=0.1,
                                          level=0, t_end=0.6, output_dt=0.2))
        config0 = s.configuration()
        p = config0.dim

        def rhs(t, y):
            cfg = config_from_params(config0, y[:p])
            return np.concatenate([y[p:], _acceleration(s, dynamics.mass_at(s, cfg), y[p:])])

        q0, qd0 = s.initial_state().packed()
        sol = solve_ivp(rhs, (0, 0.6), np.concatenate([q0, qd0]), method="RK45",
                        rtol=1e-10, atol=1e-12, dense_output=True)

        def momentum(y):
            cfg = config_from_params(config0, y[:p])
            return added_mass(cfg, s.mesh_level, s.liquid_density,
                              s.wall_level).kinetic @ y[p:]

        def dL_dq(y):
            q, qd = y[:p], y[p:]
            out = np.empty(p)
            for k in range(p):
                h = 1e-5 * (1 + abs(q[k]))
                for sgn, sign in ((+h, +1), (-h, -1)):
                    qs = q.copy()
                    qs[k] += sgn
                    cfg = config_from_params(config0, qs)
                    A = added_mass(cfg, s.mesh_level, s.liquid_density, s.wall_level)
                    T = 0.5 * qd @ A.kinetic @ qd
                    U = gas_mod.potential_energy([b.gas for b in s.bubbles],
                                                 s.p_infinity, s.surface_tension,
                                                 cfg).U
                    if sign > 0:
                        plus = T - U
                    else:
                        minus = T - U
                out[k] = (plus - minus) / (2 * h)
            return out

        delta = 1e-5
        for t in (0.15, 0.35, 0.55):
            dmom = (momentum(sol.sol(t + delta)) - momentum(sol.sol(t - delta))) / (2 * delta)
            resid = dmom - dL_dq(sol.sol(t))
            scale = np.linalg.norm(momentum(sol.sol(t))) + 1.0
            assert np.max(np.abs(resid)) < 1e-4 * scale


class TestLambShapeModeDynamics:
    """Lamb's n = 2 shape oscillation (Rayleigh 1879; Lamb, Hydrodynamics
    section 275), run: an ellipsoid S = R (I + eps diag(1, -1, 0)) released
    at rest, its gas in equilibrium with the surface tension, oscillates in
    s11 - s22 with the period 2 pi sqrt(m / k) of its modal added mass m
    and stiffness k = 12 sigma * 16 pi R^2 / 45 along that mode
    (test_potential.TestLambShapeMode).  With Lamb's m = 16 pi rho R^5 / 45,
    omega^2 = 12 sigma / (rho R^3); the level-1 m falls short of it."""

    R, SIGMA, GAMMA, EPS = 1.0, 0.3, 1.4, 0.01

    def test_period_matches_the_static_prediction(self):
        R, sigma = self.R, self.SIGMA
        mode = R * np.array([0, 0, 0, 1.0, 0, 0, -1.0, 0, 0])
        sphere = Configuration((EllipsoidParams(center=np.zeros(3), shape_matrix=R * np.eye(3)),))
        m1 = mode @ pot.added_mass(sphere, 1).kinetic @ mode
        period = 2 * np.pi * np.sqrt(m1 / (12 * sigma * 16 * np.pi * R ** 2 / 45))
        shape = R * (np.eye(3) + self.EPS * np.diag([1.0, -1.0, 0.0]))
        gas_mass = (1.0 + 2 * sigma / R) ** (1 / self.GAMMA) * 4 * np.pi * R ** 3 / 3
        doc = {"liquid": {"density": 1.0, "p_infinity": 1.0}, "surface_tension": sigma,
               "domain": {"type": "unbounded"},
               "bubbles": [{"shape": {"type": "ellipsoid", "center": [0, 0, 0],
                                      "matrix": shape.tolist()},
                            "velocity": {"center": [0, 0, 0], "matrix": [[0.0] * 3] * 3},
                            "gas": {"K": 1.0, "gamma": self.GAMMA}, "mass": gas_mass}],
               "solver": {"mesh_level": 1, "rel_tol": 1e-6},
               "time": {"t_end": 1.2 * period, "output_dt": period / 100}}
        traj = integrate(scenario_from_dict(doc))
        assert traj.termination == "completed"
        t = traj.times
        d = np.array([st.config.bubbles[0].shape_matrix[0, 0]
                      - st.config.bubbles[0].shape_matrix[1, 1] for st in traj.states])
        k = np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:]))
        crossings = t[k] - d[k] * (t[k + 1] - t[k]) / (d[k + 1] - d[k])
        assert len(crossings) == 2  # at T/4 and 3T/4
        measured = 2.0 * (crossings[1] - crossings[0])
        assert abs(measured / period - 1.0) < 1e-3
        lamb = 2 * np.pi / np.sqrt(12 * sigma / R ** 3)
        assert abs(measured / lamb - 1.0) < 0.08


@pytest.fixture
def blas_counts():
    """Every OpenBLAS found set to 2 threads, so that both the cap and its
    undoing show whatever the environment chose; the counts the test found
    come back afterwards.  Yields the counts on entry to the code under test."""
    if not _lapack.provider().threads:
        pytest.skip("no OpenBLAS loaded: the thread cap has nothing to set")
    before = _lapack.thread_counts()
    for _, put in _lapack.provider().threads.values():
        put(2)
    yield _lapack.thread_counts()
    for name, (_, put) in _lapack.provider().threads.items():
        put(before[name])


class TestBlasThreads:
    def test_every_rhs_runs_on_one_thread_and_the_counts_come_back(
            self, blas_counts, monkeypatch):
        seen, plain = [], dynamics._acceleration
        monkeypatch.setattr(dynamics, "_acceleration",
                            lambda *a: seen.append(_lapack.thread_counts()) or plain(*a))
        traj = integrate(scenario_from_dict(sphere_doc(vr=0.05, level=0, t_end=0.2,
                                                       output_dt=0.1)))
        ones = dict.fromkeys(blas_counts, 1)
        assert len(seen) == traj.stats["n_rhs"]
        assert all(counts == ones for counts in seen)
        assert traj.stats["blas_threads"] == ones
        assert _lapack.thread_counts() == blas_counts

    def test_counts_come_back_after_a_run_that_raises(self, blas_counts):
        doc = sphere_doc()
        doc["bubbles"].append(
            {"shape": {"type": "sphere", "center": [1.5, 0, 0], "radius": 1.0},
             "velocity": {"center": [0, 0, 0], "radius": 0.0},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS})
        with pytest.raises(BubbleDynError, match="initial configuration inadmissible"):
            integrate(scenario_from_dict(doc))
        assert _lapack.thread_counts() == blas_counts

    def test_nested_entries_restore_at_the_outermost_exit(self, blas_counts):
        ones = dict.fromkeys(blas_counts, 1)
        with _lapack.single_thread():
            with _lapack.single_thread():
                assert _lapack.thread_counts() == ones
            assert _lapack.thread_counts() == ones
        assert _lapack.thread_counts() == blas_counts

    def test_concurrent_entries_share_one_scope(self, blas_counts):
        # threads entering and leaving, some nested, switched as often as
        # the interpreter allows: inside, one thread; after the last exit,
        # the counts on entry
        ones = dict.fromkeys(blas_counts, 1)
        wrong = []

        def worker():
            for k in range(200):
                with _lapack.single_thread():
                    if k % 3 == 0:
                        with _lapack.single_thread():
                            pass
                    if _lapack.thread_counts() != ones:
                        wrong.append(k)

        workers = [threading.Thread(target=worker) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not wrong
        assert _lapack.thread_counts() == blas_counts

    def test_trajectory_does_not_depend_on_the_blas_thread_count(self, blas_counts,
                                                                 tmp_path):
        # the same run in this process (2 BLAS threads on entry) and in a
        # fresh one started with OPENBLAS_NUM_THREADS=1: every time, state
        # and energy bit for bit (the CSV round-trips each double)
        root = pathlib.Path(__file__).resolve().parents[1]
        doc = json.loads((root / "scenarios" / "two_bubble_cavity.json").read_text())
        doc["time"]["t_end"] = 0.02
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        s = scenario_from_dict(doc)
        write_trajectory_csv(tmp_path / "here.csv", s, integrate(s))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": str(pathlib.Path(bubbledyn.__file__).parents[1])}
        subprocess.run([sys.executable, "-m", "bubbledyn.cli", "run", "--scenario",
                        str(path), "--out", str(tmp_path / "fresh")],
                       env=env, check=True, capture_output=True)
        assert (tmp_path / "here.csv").read_text() == \
            (tmp_path / "fresh" / "trajectory.csv").read_text()


class TestBoundaryResidual:
    def test_equilibrium_residual_small(self):
        s = scenario_from_dict(sphere_doc(radius=1.0, level=1))
        state = s.initial_state()
        acc = eom_rhs(s, state)
        assert boundary_residual(s, state, dynamics.mass_at(s, state.config), acc) < 1e-6

    def test_wrong_acceleration_has_larger_residual(self):
        s = scenario_from_dict(sphere_doc(radius=1.1, vc=(0.2, 0, 0), vr=0.3,
                                          level=1))
        state = s.initial_state()
        acc = eom_rhs(s, state)
        mass = dynamics.mass_at(s, state.config)
        good = boundary_residual(s, state, mass, acc)
        bad = boundary_residual(s, state, mass, 2 * acc)
        assert bad > 2.0 * good

    def test_cavity_residual_ignores_the_constant_of_the_potential(self, monkeypatch):
        # the cavity leaves d(phi)/dt an undetermined constant; with unequal
        # radii a per-bubble area divisor would let it through (0.258 here,
        # against 2.3e-4 for equal radii)
        def residual(radii):
            s = scenario_from_dict(cavity_doc(radii=radii))
            state = s.initial_state()
            return boundary_residual(s, state, dynamics.mass_at(s, state.config),
                                     eom_rhs(s, state))

        equal, unequal = residual((0.8, 0.8)), residual((0.784, 0.816))
        assert unequal < 2.0 * equal
        plain = dynamics._potential_rate

        def shifted(*args):
            dphi_dt, grad = plain(*args)
            return dphi_dt + 1.0, grad

        monkeypatch.setattr(dynamics, "_potential_rate", shifted)
        assert abs(residual((0.784, 0.816)) - unequal) <= 1e-12

    def test_residual_passes_see_one_surface_at_a_time(self, monkeypatch):
        # the residual's field pass runs surface by surface, as the
        # assembly does: no kernel call sees the panels of several surfaces
        s = parse_scenario(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                                        "two_bubble_cavity.json"))
        state = s.initial_state()
        mass = dynamics.mass_at(s, state.config)
        acc = dynamics._acceleration(s, mass, state.velocity)
        plain, seen = pot._panel_blocks, []

        def counted(x, geom, *args, **kwargs):
            seen.append(geom.n_panels)
            return plain(x, geom, *args, **kwargs)

        monkeypatch.setattr(pot, "_panel_blocks", counted)
        boundary_residual(s, state, mass, acc)
        assert [m.n_panels for m in mass.assembly.meshes] == [80, 80, 80]
        assert seen and max(seen) <= 80

    @pytest.mark.parametrize("seed", range(950, 954))
    def test_cavity_residual_is_stable_under_roundoff(self, seed):
        # the cavity pair of the benchmark (jitter drawn in the same order);
        # q perturbed by 1e-15 relative moves the residual by roundoff only
        rng = np.random.default_rng([seed, 0])
        r1, r2 = 0.8 * (1.0 + rng.uniform(-0.02, 0.02, 2))
        doc = cavity_doc(vr=0.25 * (1.0 + rng.uniform(-0.05, 0.05)), radii=(r1, r2))
        for bubble in doc["bubbles"]:
            bubble["shape"]["center"] = (np.array(bubble["shape"]["center"])
                                         + rng.uniform(-0.05, 0.05, 3)).tolist()
        s = scenario_from_dict(doc)
        state = s.initial_state()
        acc = eom_rhs(s, state)
        q, qd = state.packed()
        base = boundary_residual(s, state, dynamics.mass_at(s, state.config), acc)
        for sign in (1.0, -1.0):
            jitter = 1.0 + sign * 1e-15 * rng.choice([-1.0, 1.0], len(q))
            moved = dynamics.State(config=config_from_params(state.config, q * jitter),
                                   velocity=qd)
            mass = dynamics.mass_at(s, moved.config)
            assert abs(boundary_residual(s, moved, mass, acc) - base) <= 1e-12

    @pytest.mark.parametrize("case", ["sphere", "ellipsoid_pair", "cavity"])
    def test_potential_rate_matches_richardson(self, case):
        config, qd, qdd = _motion(case)
        mass = pot.added_mass(config, 1, 1.0, 1)
        exact, _ = dynamics._potential_rate(mass, qd, qdd)
        reference = _frozen_potential_rate(config, qd, qdd, level=1)
        if config.bounded:
            # the potential's constant is undetermined in a cavity
            w = np.concatenate([m.quad_weights for m in mass.assembly.meshes[:-1]])
            exact, reference = (v - (w @ v) / w.sum() for v in (exact, reference))
        err = np.abs(exact - reference).max() / np.abs(exact).max()
        assert err < (1e-7 if config.bounded else 1e-10)

    def test_kelvin_impulse_only_for_single_unbounded_sphere(self):
        s = scenario_from_dict(cavity_doc())
        assert kelvin_impulse(s.initial_state()) is None
        s2 = scenario_from_dict(sphere_doc(vc=(0.5, 0, 0)))
        imp = kelvin_impulse(s2.initial_state())
        assert np.allclose(imp, [0.5, 0, 0])


def _motion(case):
    """A configuration with a velocity and an acceleration (volume
    preserving to second order in a cavity)."""
    rng = np.random.default_rng(3)
    S1 = np.array([[1.0, 0.05, 0.0], [0.05, 0.9, 0.02], [0.0, 0.02, 0.85]])
    S2 = np.array([[0.9, -0.03, 0.01], [-0.03, 1.0, 0.0], [0.01, 0.0, 0.95]])
    if case == "sphere":
        config = Configuration(bubbles=(SphereParams(center=[0.1, -0.2, 0.05], radius=1.1),))
        return config, np.array([0.2, -0.1, 0.05, 0.15]), np.array([0.3, 0.1, -0.2, -0.4])
    if case == "ellipsoid_pair":
        config = Configuration(bubbles=(
            EllipsoidParams(center=[-1.5, 0.0, 0.1], shape_matrix=S1),
            EllipsoidParams(center=[1.5, 0.1, 0.0], shape_matrix=S2)))
        return config, rng.uniform(-0.1, 0.1, 18), rng.uniform(-0.2, 0.2, 18)
    config = Configuration(bubbles=(
        SphereParams(center=[-1.3, 0.1, 0.0], radius=0.8),
        EllipsoidParams(center=[1.4, 0.0, -0.1], shape_matrix=0.8 * S1)),
        domain=CavitySphere(center=np.zeros(3), radius=4.0))
    basis = constraint_basis(config)
    B, ell = basis.matrix, basis.flux_covector
    qd = B @ rng.uniform(-0.1, 0.1, B.shape[1])
    qdd = (B @ rng.uniform(-0.2, 0.2, B.shape[1])
           - (qd @ volume_hessian(config) @ qd) / (ell @ ell) * ell)
    return config, qd, qdd


def _frozen_potential_rate(config, qd, qdd, level, h=1e-3):
    """Time derivative of the potential at the configuration's bubble
    collocation points, held fixed, along q + t q' with the velocity
    q' + t q'': Richardson extrapolation of centred differences, each side
    a fresh Neumann solve on the moved meshes."""
    q = pack_params(config)
    meshes = pot.configuration_meshes(config, level, level)
    points = np.concatenate([m.quad_points for m in meshes[:config.n_bubbles]])

    def phi(t):
        moved = config_from_params(config, q + t * qd)
        msh = pot.configuration_meshes(moved, level, level)
        g = pot._direction_data(moved, msh, (qd + t * qdd)[:, None])[:, 0]
        sol = pot.solve_neumann(msh, g)
        return pot.boundary_potential_at(sol, points)

    def centred(step):
        return (phi(step) - phi(-step)) / (2.0 * step)

    return (4.0 * centred(h / 2) - centred(h)) / 3.0
