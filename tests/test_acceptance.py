"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.

The expensive trajectory criteria use the mesh levels stated by the
criteria themselves (level 3 for the BEM/added-mass accuracy and the
pointwise radial-equation check, level 2 for the closed-form trajectory
comparison); structural-invariant criteria (conservation, cavity volume,
ellipsoid consistency) hold at every level and run at level 1 for speed.
"""

import time

import numpy as np
import pytest

from bubbledyn import dynamics as dyn
from bubbledyn import potential as pot
from bubbledyn.errors import CompatibilityError
from bubbledyn.gas import BubbleGasState, GasLaw, bubble_pressure
from bubbledyn.reference import (SingleBubbleState, integrate_single,
                                 minnaert_frequency)
from bubbledyn.scenario import scenario_from_dict
from bubbledyn.shapes import (Configuration, EllipsoidParams, SphereParams,
                              measures, normal_velocity, surface_mesh,
                              symmetric_slots)

R_EQ_MASS = 4 * np.pi / 3          # equilibrium radius 1 for K=1, gamma=1.4, p=1
GAS = BubbleGasState(mass=R_EQ_MASS, law=GasLaw(K=1.0, gamma=1.4))
OMEGA = np.sqrt(3 * 1.4)           # Minnaert at r_eq=1, p_inf=1, rho=1
PERIOD = 2 * np.pi / OMEGA


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} [{name}]: PASS  ({detail})")


def single_sphere_doc(radius, vc, vr, level, t_end, output_dt,
                      rel_tol=1e-8, abs_tol=1e-10):
    return {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "unbounded"},
        "bubbles": [{"shape": {"type": "sphere", "center": [0, 0, 0],
                               "radius": radius},
                     "velocity": {"center": list(vc), "radius": vr},
                     "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}],
        "solver": {"mesh_level": level, "rel_tol": rel_tol, "abs_tol": abs_tol},
        "time": {"t_end": t_end, "output_dt": output_dt}}


def test_criterion_1_bem_accuracy():
    """Unit-sphere monopole/dipole boundary potentials at level 3: relative
    L2 error < 2%, runtime < 10 s."""
    t0 = time.time()
    mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), 3)
    assert mesh.n_panels == 1280
    sol_mono = pot.solve_neumann((mesh,), np.ones(mesh.n_panels))
    sol_dip = pot.solve_neumann((mesh,), mesh.quad_normals[:, 0])
    runtime = time.time() - t0
    w = sol_mono.geometry.weights
    err_mono = np.sqrt(np.sum((sol_mono.boundary_potential + 1.0) ** 2 * w)
                       / np.sum(w))
    ref_dip = -0.5 * mesh.quad_normals[:, 0]
    err_dip = np.sqrt(np.sum((sol_dip.boundary_potential - ref_dip) ** 2 * w)
                      / np.sum(ref_dip ** 2 * w))
    assert err_mono < 0.02
    assert err_dip < 0.02
    assert runtime < 10.0
    report(1, "BEM accuracy", f"relL2 monopole {err_mono:.3%}, dipole "
                              f"{err_dip:.3%}, runtime {runtime:.2f} s")


def test_criterion_2_added_mass():
    """Single-sphere added mass at level 3 within 2% of the analytic
    diag(2 pi r^3/3 x3, 4 pi r^3); off-diagonals < 1% of the diagonal
    scale; SPD with condition number logged."""
    r, rho = 1.0, 1.3
    config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=r),))
    A = pot.added_mass(config, level=3, liquid_density=rho)
    want = rho * np.array([2 * np.pi / 3] * 3 + [4 * np.pi]) * r ** 3
    rel = np.abs(np.diag(A.matrix) - want) / want
    off = np.max(np.abs(A.matrix - np.diag(np.diag(A.matrix))))
    assert np.all(rel < 0.02)
    assert off < 0.01 * want.max()
    assert A.eigenvalues[0] > 0
    report(2, "added mass", f"diag rel err {rel.max():.3%}, max offdiag "
                            f"{off:.2e}, Gram condition {A.condition:.3f}, "
                            f"collocation condition {A.collocation_condition:.2f}")


def test_criterion_3_pipeline_vs_closed_form():
    """Level-2 BEM pipeline vs the closed-form single-bubble model: 20%
    radial perturbation with translation, 5 Minnaert periods, max relative
    deviation in (r, c) below 1%, runtime < 5 min.  Deviations are
    normalized by the instantaneous reference radius (for r) and by the
    equilibrium radius (for c, which starts at zero)."""
    t_end = 5 * PERIOD
    doc = single_sphere_doc(radius=1.2, vc=(0.1, 0, 0), vr=0.0, level=2,
                            t_end=t_end, output_dt=PERIOD / 40,
                            rel_tol=1e-6, abs_tol=1e-8)
    s = scenario_from_dict(doc)
    t0 = time.time()
    traj = dyn.integrate(s)
    runtime = time.time() - t0
    assert traj.termination == "completed"
    ref = integrate_single(SingleBubbleState(c=np.zeros(3), c_dot=[0.1, 0, 0],
                                             r=1.2, r_dot=0.0),
                           GAS, 1.0, 1.0, t_end=t_end, rtol=1e-11, atol=1e-13)
    err_r = 0.0
    err_c = 0.0
    for k, t in enumerate(traj.times):
        y = ref.sol(t)
        r_ref, c_ref = y[3], y[:3]
        b = traj.states[k].config.bubbles[0]
        err_r = max(err_r, abs(b.radius - r_ref) / r_ref)
        err_c = max(err_c, np.max(np.abs(b.center - c_ref)) / 1.0)
    assert err_r < 0.01
    assert err_c < 0.01
    assert runtime < 300.0
    report(3, "pipeline vs closed form",
           f"max rel deviation r {err_r:.3%}, c {err_c:.3%}, "
           f"runtime {runtime:.0f} s ({traj.stats['n_rhs']} rhs)")


def test_criterion_4_rayleigh_plesset_limit():
    """With c' = 0 the pipeline acceleration satisfies the Rayleigh-Plesset
    equation pointwise: |-r r'' - 3/2 r'^2 + p_B - p_inf| < 1e-3 relative."""
    worst = 0.0
    for (r, rd) in ((1.2, 0.0), (1.05, -0.35), (0.9, 0.25)):
        doc = single_sphere_doc(radius=r, vc=(0, 0, 0), vr=rd, level=3,
                                t_end=1.0, output_dt=0.5)
        s = scenario_from_dict(doc)
        acc = dyn.eom_rhs(s, s.initial_state())
        p_b = bubble_pressure(GAS, 4 * np.pi * r ** 3 / 3)
        resid = abs(-r * acc[3] - 1.5 * rd ** 2 + p_b - 1.0)
        scale = max(1.0, p_b)
        worst = max(worst, resid / scale)
    assert worst < 1e-3
    report(4, "Rayleigh-Plesset limit", f"max pointwise residual {worst:.2e} "
                                        "(relative, level 3)")


def test_criterion_5_minnaert_frequency():
    """Small-amplitude (1%) radial oscillation: measured period within 1%
    of 2 pi / omega, omega^2 = 3 gamma p_inf / (rho r_eq^2)."""
    doc = single_sphere_doc(radius=1.01, vc=(0, 0, 0), vr=0.0, level=2,
                            t_end=3.5 * PERIOD, output_dt=PERIOD / 100)
    s = scenario_from_dict(doc)
    traj = dyn.integrate(s)
    radii = np.array([st.config.bubbles[0].radius for st in traj.states])
    level = radii.mean()
    sign = np.sign(radii - level)
    crossings = []
    for k in range(1, len(radii)):
        if sign[k] != sign[k - 1] and sign[k] != 0:
            f = (level - radii[k - 1]) / (radii[k] - radii[k - 1])
            crossings.append(traj.times[k - 1]
                             + f * (traj.times[k] - traj.times[k - 1]))
    assert len(crossings) >= 5
    half_periods = np.diff(crossings)
    period = 2.0 * np.mean(half_periods)
    om = minnaert_frequency(GAS, 1.0, 1.0, 1.0)
    assert abs(period - 2 * np.pi / om) / (2 * np.pi / om) < 0.01
    report(5, "Minnaert frequency",
           f"measured period {period:.5f} vs 2 pi/omega {2 * np.pi / om:.5f} "
           f"({abs(period * om / (2 * np.pi) - 1):.3%} off)")


def test_criterion_6_conservation_and_impulse():
    """Ten periods at the default tolerances: total energy drift and
    r^3 c' (Kelvin impulse) drift both below 1e-6 relative.  The
    paper-printed translation variant is integrated under its flag and its
    deviation recorded, not asserted as correct."""
    doc = single_sphere_doc(radius=1.1, vc=(0.05, 0, 0), vr=0.0, level=1,
                            t_end=10 * PERIOD, output_dt=PERIOD / 10)
    s = scenario_from_dict(doc)
    traj = dyn.integrate(s)
    assert traj.termination == "completed"
    E = traj.total_energy
    drift_E = np.max(np.abs(E - E[0])) / abs(E[0])
    imp = traj.impulse
    drift_I = np.max(np.linalg.norm(imp - imp[0], axis=1)) / np.linalg.norm(imp[0])
    assert drift_E < 1e-6
    assert drift_I < 1e-6

    # comparison flag: the printed variant's trajectory differs; record it
    state0 = SingleBubbleState(c=np.zeros(3), c_dot=[0.05, 0, 0], r=1.1, r_dot=0.0)
    t_eval = np.linspace(0, 10 * PERIOD, 101)
    ref_res = integrate_single(state0, GAS, 1.0, 1.0, t_end=10 * PERIOD,
                               t_eval=t_eval)
    ref_pap = integrate_single(state0, GAS, 1.0, 1.0, t_end=10 * PERIOD,
                               t_eval=t_eval, coefficient="paper_printed")
    dev = np.max(np.abs(ref_res.y[:3] - ref_pap.y[:3]))
    imp_pap = ref_pap.y[3] ** 3 * ref_pap.y[4]
    assert dev > 1e-3  # the variants genuinely differ
    report(6, "conservation", f"energy drift {drift_E:.2e}, impulse drift "
           f"{drift_I:.2e}; paper-printed variant deviates by {dev:.3f} in c "
           f"and lets r^3 c' vary by {np.ptp(imp_pap) / imp_pap[0]:.1%} "
           "(recorded, not asserted)")


def test_criterion_7_cavity_volume_constraint():
    """Two-bubble cavity run preserves r1^3 + r2^3 to < 1e-10 relative;
    a one-bubble cavity scenario with nonzero radial velocity is rejected
    at validation."""
    r = 0.8
    doc = {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "cavity_sphere", "center": [0, 0, 0], "radius": 4.0},
        "bubbles": [
            {"shape": {"type": "sphere", "center": [-1.4, 0, 0], "radius": r},
             "velocity": {"center": [0, 0, 0], "radius": 0.25},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS * r ** 3},
            {"shape": {"type": "sphere", "center": [1.4, 0, 0], "radius": r},
             "velocity": {"center": [0, 0, 0], "radius": -0.25},
             "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS * r ** 3}],
        "solver": {"mesh_level": 1, "wall_level": 1,
                   "rel_tol": 1e-10, "abs_tol": 1e-12},
        "time": {"t_end": 0.4, "output_dt": 0.05}}
    s = scenario_from_dict(doc)
    traj = dyn.integrate(s)
    assert traj.termination == "completed"
    r3 = np.array([sum(b.radius ** 3 for b in st.config.bubbles)
                   for st in traj.states])
    drift = np.max(np.abs(r3 - r3[0])) / r3[0]
    assert drift < 1e-10

    bad = {
        "liquid": {"density": 1.0, "p_infinity": 1.0},
        "domain": {"type": "cavity_sphere", "center": [0, 0, 0], "radius": 3.0},
        "bubbles": [{"shape": {"type": "sphere", "center": [0, 0, 0], "radius": 1.0},
                     "velocity": {"center": [0, 0, 0], "radius": 0.3},
                     "gas": {"K": 1.0, "gamma": 1.4}, "mass": R_EQ_MASS}],
        "solver": {"mesh_level": 1},
        "time": {"t_end": 1.0, "output_dt": 0.1}}
    with pytest.raises(CompatibilityError):
        dyn.integrate(scenario_from_dict(bad))
    report(7, "cavity constraint", f"r1^3+r2^3 relative drift {drift:.2e}; "
           "one-bubble cavity pulsation rejected at validation")


def test_criterion_8_ellipsoid_consistency():
    """An ellipsoid initialized as a sphere matches the sphere trajectory
    within 2% at the same mesh level (translation kept small: the richer
    family resolves a physical O(|c'|^2) deformation the sphere family
    cannot); normal-velocity and measure gradients pass finite-difference
    checks at 1e-4 relative."""
    vc = (0.02, 0, 0)
    t_end = 3.0
    s_sphere = scenario_from_dict(single_sphere_doc(
        radius=1.1, vc=vc, vr=0.0, level=1, t_end=t_end, output_dt=0.25))
    doc = single_sphere_doc(radius=1.1, vc=vc, vr=0.0, level=1,
                            t_end=t_end, output_dt=0.25)
    doc["bubbles"][0]["shape"] = {"type": "ellipsoid", "center": [0, 0, 0],
                                  "matrix": [[1.1, 0, 0], [0, 1.1, 0],
                                             [0, 0, 1.1]]}
    doc["bubbles"][0]["velocity"] = {"center": list(vc), "matrix": [[0.0] * 3] * 3}
    s_ell = scenario_from_dict(doc)
    ta = dyn.integrate(s_sphere)
    tb = dyn.integrate(s_ell)
    worst_r = worst_c = worst_axis = 0.0
    for sa, sb in zip(ta.states, tb.states):
        r = sa.config.bubbles[0].radius
        S = sb.config.bubbles[0].shape_matrix
        axes = np.linalg.eigvalsh(S)
        r_equiv = np.linalg.det(S) ** (1.0 / 3.0)
        worst_r = max(worst_r, abs(r_equiv - r) / r)
        worst_axis = max(worst_axis, np.max(np.abs(axes - r)) / r)
        worst_c = max(worst_c, np.max(np.abs(sb.config.bubbles[0].center
                                             - sa.config.bubbles[0].center)))
    assert worst_r < 0.02
    assert worst_axis < 0.02
    assert worst_c < 0.02

    # finite-difference checks at 1e-4 relative
    rng = np.random.default_rng(3)
    B = rng.normal(size=(3, 3))
    shape = EllipsoidParams(center=[0.2, -0.1, 0.4], shape_matrix=B @ B.T + np.eye(3))
    mdot = np.append(rng.normal(size=3), (lambda M: symmetric_slots(0.5 * (M + M.T)))(
        rng.normal(size=(3, 3))))
    mesh = surface_mesh(shape, 1)
    # normal velocity against displaced surface points along the parameter path
    h = 1e-6
    q0 = shape.pack()
    qd = mdot
    y = np.linalg.solve(shape.shape_matrix, (mesh.quad_points - shape.center).T).T
    sp = EllipsoidParams.unpack(q0 + h * qd)
    sm = EllipsoidParams.unpack(q0 - h * qd)
    xp = sp.center + y @ sp.shape_matrix.T
    xm = sm.center + y @ sm.shape_matrix.T
    fd_speed = np.einsum('ik,ik->i', (xp - xm) / (2 * h), mesh.quad_normals)
    formula = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
    nv_err = np.max(np.abs(fd_speed - formula)) / np.max(np.abs(formula))
    assert nv_err < 1e-4

    m = measures(shape)
    worst_meas = 0.0
    for k in range(9):
        hk = 1e-6 * (1 + abs(q0[k]))
        qp, qm = q0.copy(), q0.copy()
        qp[k] += hk
        qm[k] -= hk
        dv = (measures(EllipsoidParams.unpack(qp)).volume
              - measures(EllipsoidParams.unpack(qm)).volume) / (2 * hk)
        da = (measures(EllipsoidParams.unpack(qp)).area
              - measures(EllipsoidParams.unpack(qm)).area) / (2 * hk)
        worst_meas = max(worst_meas,
                         abs(dv - m.d_volume_dm[k]) / max(1.0, abs(m.d_volume_dm[k])),
                         abs(da - m.d_area_dm[k]) / max(1.0, abs(m.d_area_dm[k])))
    assert worst_meas < 1e-4
    report(8, "ellipsoid consistency",
           f"sphere-track dev: r_equiv {worst_r:.3%}, axes {worst_axis:.3%}, "
           f"c {worst_c:.4f}; FD errs: normal velocity {nv_err:.1e}, "
           f"measures {worst_meas:.1e}")


def test_criterion_9_boundary_residual_refinement():
    """The relaxed interface-condition residual decreases under mesh
    refinement."""
    residuals = []
    for level in (1, 2, 3):
        doc = single_sphere_doc(radius=1.1, vc=(0.2, 0, 0), vr=0.2, level=level,
                                t_end=1.0, output_dt=0.5)
        s = scenario_from_dict(doc)
        state = s.initial_state()
        acc = dyn.eom_rhs(s, state)
        residuals.append(dyn.boundary_residual(s, state, dyn.mass_at(s, state.config), acc))
    assert residuals[0] > residuals[1] > residuals[2]
    report(9, "boundary residual", "levels 1,2,3 -> " +
           ", ".join(f"{r_:.3e}" for r_ in residuals))
