"""Euler-Lagrange dynamics on the bubble shape parameters.

The reduced system is the Lagrangian flow of L = 1/2 q' A(q) q' - U(q),
with A the added-mass Gram matrix from the potential module and U the gas
plus far-field pressure plus surface energy.  In a bounded cavity the
motion is constrained to the hyperplane of volume-preserving velocities;
the equations are solved in an orthonormal basis of that hyperplane
(coordinate projection, no multipliers or stabilization), with the
acceleration-level constraint satisfied exactly.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from . import gas as gas_mod
from . import potential as pot
from .errors import (BubbleDynError, CompatibilityError, DegenerateShapeError,
                     DiscretizationError)
from .reference import minnaert_frequency
from .shapes import (Configuration, SphereParams, check_admissible,
                     config_from_params, constraint_basis, fd_gradient,
                     pack_params, pack_tangents, tangents_from_vector,
                     volume_gradient, volume_hessian)

# velocity-constraint tolerance for cavity initial data (relative)
CONSTRAINT_TOLERANCE = 1e-9
# shape sizes below this fraction of their initial value stop the run
DEGENERACY_FRACTION = 0.02


@dataclass(frozen=True)
class State:
    config: Configuration
    velocity: tuple          # TangentVector per bubble
    time: float = 0.0

    def packed(self):
        return pack_params(self.config), pack_tangents(self.velocity)


# ---------------------------------------------------------------------------
# scenario-facing kinetic assembly


def _extended_added_mass(scenario, config):
    """Added mass at the scenario's levels along the constraint basis of
    ``config`` (its ``basis``), with the ambient extension B A B^T as its
    ``kinetic`` matrix."""
    return pot.added_mass(config, scenario.mesh_level, scenario.liquid_density,
                          scenario.wall_level)


def _ahat_jacobian(A):
    """Parameter Jacobian of the extended kinetic matrix B A B^T of the
    added mass ``A``: exact along centres and sphere radii, central
    differences along ellipsoid matrix slots, whose inadmissible sides
    raise (integrate poisons the trial state).

    Cavity mode differentiates the basis-extended matrix, which depends on
    the configuration through the projector B B^T; unbounded mode has
    B = I."""
    return pot.added_mass_jacobian(A)


def _acceleration(scenario, config, qdot):
    """Flat acceleration vector from the (constrained) Euler-Lagrange
    equations."""
    A = _extended_added_mass(scenario, config)
    dA = _ahat_jacobian(A)
    pe = gas_mod.potential_energy([b.gas for b in scenario.bubbles],
                                  scenario.p_infinity, scenario.surface_tension,
                                  config)
    coriolis = (np.einsum('kij,k,j->i', dA, qdot, qdot)
                - 0.5 * np.einsum('ijk,j,k->i', dA, qdot, qdot))
    force = -coriolis - pe.dU_dm
    if not A.basis.constrained:
        qddot = np.linalg.solve(A.kinetic, force)
    else:
        grad = A.basis.flux_covector
        hess = volume_hessian(config)
        qdd0 = -(qdot @ hess @ qdot) / (grad @ grad) * grad
        B = A.basis.matrix
        rhs = B.T @ force - A.matrix @ (B.T @ qdd0)
        a = np.linalg.solve(A.matrix, rhs)
        qddot = B @ a + qdd0
    return qddot


def volume_flux(config, qdot):
    """Net volume flux l . qdot of a packed velocity (l the volume
    gradient) and whether it is zero within CONSTRAINT_TOLERANCE relative
    to |l| |qdot|, the cavity's volume constraint."""
    ell = volume_gradient(config)
    flux = float(ell @ qdot)
    scale = np.linalg.norm(ell) * np.linalg.norm(qdot) + 1e-300
    return flux, abs(flux) <= max(CONSTRAINT_TOLERANCE * scale, 1e-13)


def eom_rhs(scenario, state: State):
    """Acceleration tangent vector per bubble for the given state."""
    config, qd = state.config, pack_tangents(state.velocity)
    report = check_admissible(config, min(scenario.mesh_level, 2))
    if not report.ok:
        raise BubbleDynError(f"state not admissible: {report.violations}")
    if scenario.domain_is_bounded and not volume_flux(config, qd)[1]:
        raise CompatibilityError("velocity violates the cavity volume constraint")
    qdd = _acceleration(scenario, config, qd)
    return tangents_from_vector(config, qdd)


# ---------------------------------------------------------------------------
# diagnostics


def _bubble_size(shape) -> float:
    if isinstance(shape, SphereParams):
        return shape.radius
    return float(shape.semi_axes()[0])


def energies(scenario, state: State):
    """(kinetic, potential, total) of a state, at the scenario mesh level."""
    config, qd = state.config, pack_tangents(state.velocity)
    ke = 0.5 * float(qd @ _extended_added_mass(scenario, config).kinetic @ qd)
    pe = gas_mod.potential_energy([b.gas for b in scenario.bubbles],
                                  scenario.p_infinity, scenario.surface_tension,
                                  config).U
    return ke, pe, ke + pe


def kelvin_impulse(state: State):
    """r^3 c' for a single unbounded spherical bubble, else None."""
    config = state.config
    if config.bounded or config.n_bubbles != 1:
        return None
    shape = config.bubbles[0]
    if not isinstance(shape, SphereParams):
        return None
    return shape.radius ** 3 * np.asarray(state.velocity[0].center)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple                    # State at each output time
    kinetic: np.ndarray
    potential: np.ndarray
    total_energy: np.ndarray
    impulse: np.ndarray | None       # (n, 3) for a single unbounded sphere
    boundary_residuals: np.ndarray   # NaN where not sampled
    termination: str                 # completed | collision | degenerate-shape | solver-failure
    stats: dict = field(default_factory=dict)


def minnaert_period(scenario, gas) -> float:
    """Minnaert period of a bubble of ``gas`` about its equilibrium radius
    under the scenario's far-field pressure, which must be > 0."""
    r_eq = gas_mod.equilibrium_radius(gas, scenario.p_infinity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        om = minnaert_frequency(gas, scenario.p_infinity, scenario.liquid_density, r_eq)
    return 2.0 * np.pi / om


def characteristic_period(scenario) -> float:
    """Smallest Minnaert period over the bubbles (1 without far-field
    pressure); integration time scale estimate."""
    if not scenario.p_infinity > 0:
        return 1.0
    return min(minnaert_period(scenario, b.gas) for b in scenario.bubbles)


def _collision_threshold(scenario, s1, s2=None) -> float:
    size = _bubble_size(s1) if s2 is None else min(_bubble_size(s1), _bubble_size(s2))
    return scenario.collision_gap_fraction * size


def _gap_margin(scenario, config) -> float:
    """Smallest (gap - threshold) over bubble pairs and walls."""
    from .shapes import _pair_gap, _wall_gap  # internal helpers

    worst = np.inf
    nb = config.n_bubbles
    for i in range(nb):
        for j in range(i + 1, nb):
            gap = _pair_gap(config.bubbles[i], config.bubbles[j], level=1)
            worst = min(worst, gap - _collision_threshold(
                scenario, config.bubbles[i], config.bubbles[j]))
    if config.bounded:
        for i in range(nb):
            gap = _wall_gap(config.domain, config.bubbles[i], level=1)
            worst = min(worst, gap - _collision_threshold(scenario, config.bubbles[i]))
    return float(worst)


def integrate(scenario) -> Trajectory:
    """Integrate the reduced system with the adaptive Dormand-Prince 5(4)
    pair, sampling by dense interpolation at the scenario output cadence."""
    state0 = scenario.initial_state()
    config0 = state0.config
    report = check_admissible(config0, min(scenario.mesh_level, 2))
    if not report.ok:
        raise BubbleDynError(f"initial configuration inadmissible: {report.violations}")
    q0, qd0 = state0.packed()
    if scenario.domain_is_bounded:
        flux, ok = volume_flux(config0, qd0)
        if not ok:
            raise CompatibilityError(
                f"initial velocity violates the cavity volume constraint (flux {flux:.3e})")

    p = config0.dim
    sizes0 = np.array([_bubble_size(b) for b in config0.bubbles])
    n_rhs = [0]
    poisoned = {"n": 0, "last": None}
    # the state and acceleration of the first RHS call, which the t = 0
    # sample (the same bytes) reuses
    first = {}
    t_wall = time.time()

    def split(y):
        return y[:p], y[p:]

    def poison(reason=None):
        """NaN for an invalid trial state, so that the controller backs off;
        counted, and the reason kept when there is one."""
        poisoned["n"] += 1
        if reason is not None:
            poisoned["last"] = reason
        return np.full(2 * p, np.nan)

    def rhs(t, y):
        n_rhs[0] += 1
        if not np.all(np.isfinite(y)):
            # a later stage of a step that an earlier poisoned call spoiled
            return poison()
        q, qd = split(y)
        try:
            config = config_from_params(config0, q)
            report = check_admissible(config, min(scenario.mesh_level, 2))
            if not report.ok:
                return poison(f"state not admissible: {report.violations}")
            qdd = _acceleration(scenario, config, qd)
        except (DegenerateShapeError, DiscretizationError, np.linalg.LinAlgError) as exc:
            return poison(f"{type(exc).__name__}: {exc}")
        if not first:
            first.update(y=y.tobytes(), qdd=qdd)
        return np.concatenate([qd, qdd])

    def ev_collision(t, y):
        q, _ = split(y)
        try:
            return _gap_margin(scenario, config_from_params(config0, q))
        except DegenerateShapeError:
            return -1.0
    ev_collision.terminal = True

    def ev_degenerate(t, y):
        q, _ = split(y)
        try:
            config = config_from_params(config0, q)
        except DegenerateShapeError:
            return -1.0
        return min(_bubble_size(b) - DEGENERACY_FRACTION * s0
                   for b, s0 in zip(config.bubbles, sizes0))
    ev_degenerate.terminal = True

    h0 = min(1e-3 * characteristic_period(scenario), 0.1 * scenario.t_end)
    sol = solve_ivp(rhs, (0.0, scenario.t_end), np.concatenate([q0, qd0]),
                    method="RK45", rtol=scenario.rel_tol, atol=scenario.abs_tol,
                    first_step=h0, dense_output=True,
                    events=[ev_collision, ev_degenerate])

    if sol.status == 1:
        termination = "collision" if len(sol.t_events[0]) else "degenerate-shape"
    elif sol.status == 0:
        termination = "completed"
    else:
        termination = "solver-failure"

    t_final = sol.t[-1]
    n_out = max(2, int(np.floor(t_final / scenario.output_dt + 1e-9)) + 1)
    times = np.minimum(np.arange(n_out) * scenario.output_dt, t_final)
    if times[-1] < t_final - 1e-12 * max(1.0, t_final):
        times = np.append(times, t_final)

    states = []
    ke = np.empty(len(times))
    pe = np.empty(len(times))
    imp = [] if kelvin_impulse(state0) is not None else None
    residuals = np.full(len(times), np.nan)
    cadence = scenario.residual_cadence
    for k, t in enumerate(times):
        y = sol.sol(t)
        q, qd = split(y)
        config = config_from_params(config0, q)
        state = State(config=config, velocity=tangents_from_vector(config, qd),
                      time=float(t))
        states.append(state)
        ke[k], pe[k], _ = energies(scenario, state)
        if imp is not None:
            imp.append(kelvin_impulse(state))
        if cadence and k % cadence == 0:
            if first and y.tobytes() == first["y"]:
                qdd = first["qdd"]
            else:
                qdd = _acceleration(scenario, config, qd)
            residuals[k] = boundary_residual(scenario, state,
                                             tangents_from_vector(config, qdd))
    stats = {"n_steps": len(sol.t) - 1, "n_rhs": n_rhs[0],
             "n_poisoned": poisoned["n"], "last_poison": poisoned["last"],
             "wall_time": time.time() - t_wall, "t_final": float(t_final),
             "solver_message": str(sol.message)}
    return Trajectory(times=times, states=tuple(states), kinetic=ke, potential=pe,
                      total_energy=ke + pe,
                      impulse=np.array(imp) if imp is not None else None,
                      boundary_residuals=residuals, termination=termination,
                      stats=stats)


# ---------------------------------------------------------------------------
# a-posteriori interface-condition residual


def boundary_residual(scenario, state: State, acceleration, eps=None) -> float:
    """Residual of the relaxed interface condition: the pressure field
    reconstructed from the unsteady Bernoulli equation, integrated against
    the normal-velocity covector directions over each bubble, normalized
    by p_infinity times the bubble area.

    The time derivative of the potential is a centred difference along the
    trajectory direction (shape and data moved together, which carries the
    acceleration contribution), evaluated at the frozen collocation points
    through exact panel integrals.  Its time step ``eps`` defaults to
    potential.JACOBIAN_FD_STEP scaled by |q| and |q'|.

    In a cavity the residual has a roundoff floor of about 1e-7 relative:
    the centred difference divides the difference of two solutions of the
    collocation system (condition about 1.6e8 for two spheres) by 2 eps, so
    a perturbation of q by 1e-15 relative moves it by 2e-8 to 5e-7.
    """
    q, qd = state.packed()
    qdd = pack_tangents(acceleration)
    config = state.config
    rho = scenario.liquid_density
    if eps is None:
        eps = (pot.JACOBIAN_FD_STEP * (1.0 + np.max(np.abs(q)))
               / max(1.0, np.max(np.abs(qd))))

    meshes = pot.configuration_meshes(config, scenario.mesh_level,
                                      scenario.wall_level)
    bubble_meshes = meshes[:config.n_bubbles]
    geom_pts = np.concatenate([m.quad_points for m in bubble_meshes])

    def solve_at(cfg, msh, qda):
        g = pot._direction_data(cfg, msh, qda[:, None])[:, 0]
        return pot.solve_neumann(pot.NeumannProblem(meshes=msh, boundary_data=g))

    def phi_at(s):
        # potential at the frozen points, time s[0] along the trajectory
        cfg = config_from_params(config, q + s[0] * qd)
        msh = pot.configuration_meshes(cfg, scenario.mesh_level, scenario.wall_level)
        return pot.boundary_potential_at(solve_at(cfg, msh, qd + s[0] * qdd), geom_pts)

    sol0 = solve_at(config, meshes, qd)
    dphi_dt = fd_gradient(phi_at, np.zeros(1), eps)[0]

    nb_panels = sum(m.n_panels for m in bubble_meshes)
    grad = pot.surface_gradient(sol0)[:nb_panels]
    speed2 = np.einsum('ik,ik->i', grad, grad)
    p_minus_inf = -rho * (dphi_dt + 0.5 * speed2)

    pe = gas_mod.potential_energy([b.gas for b in scenario.bubbles],
                                  scenario.p_infinity, scenario.surface_tension,
                                  config)
    pressure_scale = max(scenario.p_infinity, np.max(np.abs(pe.bubble_pressures)))

    # canonical-direction data over the bubble panels
    G = pot._direction_data(config, bubble_meshes, np.eye(config.dim))
    weights = np.concatenate([m.quad_weights for m in bubble_meshes])
    offsets = np.cumsum([0] + [m.n_panels for m in bubble_meshes])
    resid = np.zeros(config.dim)
    for k, sl in enumerate(config.slices()):
        rows = slice(offsets[k], offsets[k + 1])
        p_gap = (p_minus_inf[rows]
                 - (pe.bubble_pressures[k] - scenario.p_infinity))
        area = weights[rows].sum()
        resid[sl] = (G[rows, sl].T @ (p_gap * weights[rows])) / (pressure_scale * area)
    if scenario.domain_is_bounded:
        resid = constraint_basis(config).matrix.T @ resid
    return float(np.max(np.abs(resid)))
