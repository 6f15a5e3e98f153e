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

from . import _blas
from . import gas as gas_mod
from . import potential as pot
from .errors import (BubbleDynError, CompatibilityError, DegenerateShapeError,
                     DiscretizationError)
from .reference import minnaert_frequency
from .shapes import (Configuration, SphereParams, check_admissible, config_from_params,
                     pack_params, surface_gaps, symmetric_matrix, volume_gradient,
                     volume_hessian)

# velocity-constraint tolerance for cavity initial data (relative)
CONSTRAINT_TOLERANCE = 1e-9
# shape sizes below this fraction of their initial value stop the run
DEGENERACY_FRACTION = 0.02


@dataclass(frozen=True)
class State:
    """A configuration and its velocity: the packed (p,) parameter rates,
    in the slots of pack_params(config)."""

    config: Configuration
    velocity: np.ndarray
    time: float = 0.0

    def packed(self):
        return pack_params(self.config), self.velocity


# ---------------------------------------------------------------------------
# scenario-facing kinetic assembly


def mass_at(scenario, config) -> pot.AddedMassMatrix:
    """The added mass of ``config`` at the scenario's mesh levels and liquid
    density: the one assembly of a state, which its acceleration, energies
    and boundary residual all read."""
    return pot.added_mass(config, scenario.mesh_level, scenario.liquid_density,
                          scenario.wall_level)


def _potential_energy(scenario, config):
    """gas.potential_energy of the scenario's bubbles at ``config``."""
    return gas_mod.potential_energy([b.gas for b in scenario.bubbles], scenario.p_infinity,
                                    scenario.surface_tension, config)


def _ahat_jacobian(A):
    """Parameter Jacobian of the extended kinetic matrix B A B^T of the
    added mass ``A``, exact in every column and solved with its LU alone
    (potential.added_mass_jacobian).

    Cavity mode differentiates the basis-extended matrix, which depends on
    the configuration through the projector B B^T; unbounded mode has
    B = I.  A named pass-through so that the benchmark's tracer
    (perfbench/tracing.py) can time the Jacobian by this name."""
    return pot.added_mass_jacobian(A)


def _acceleration(scenario, A, qdot):
    """Flat acceleration vector from the (constrained) Euler-Lagrange
    equations, at the configuration of the added mass ``A``."""
    config = A.config
    dA = _ahat_jacobian(A)
    pe = _potential_energy(scenario, config)
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
    """Packed (p,) acceleration of the given state, in its velocity's slots."""
    config, qd = state.config, state.velocity
    report = check_admissible(config, min(scenario.mesh_level, 2))
    if not report.ok:
        raise BubbleDynError(f"state not admissible: {report.violations}")
    if scenario.domain_is_bounded and not volume_flux(config, qd)[1]:
        raise CompatibilityError("velocity violates the cavity volume constraint")
    return _acceleration(scenario, mass_at(scenario, config), qd)


# ---------------------------------------------------------------------------
# diagnostics


def _bubble_size(shape) -> float:
    if isinstance(shape, SphereParams):
        return shape.radius
    return float(shape.semi_axes()[0])


def energies(scenario, state: State, mass):
    """(kinetic, potential, total) of a state with its added mass ``mass``
    (mass_at)."""
    qd = state.velocity
    ke = 0.5 * float(qd @ mass.kinetic @ qd)
    pe = _potential_energy(scenario, state.config).U
    return ke, pe, ke + pe


def kelvin_impulse(state: State):
    """r^3 c' for a single unbounded spherical bubble, else None."""
    config = state.config
    if config.bounded or config.n_bubbles != 1:
        return None
    shape = config.bubbles[0]
    if not isinstance(shape, SphereParams):
        return None
    return shape.radius ** 3 * state.velocity[:3]


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
    worst = np.inf
    for (i, j), gap in surface_gaps(config, level=1):
        other = None if j == -1 else config.bubbles[j]
        worst = min(worst, gap - _collision_threshold(scenario, config.bubbles[i], other))
    return float(worst)


@_blas.single_thread()
def integrate(scenario) -> Trajectory:
    """Integrate the reduced system with the adaptive Dormand-Prince 5(4)
    pair, sampling by dense interpolation at the scenario output cadence.
    Runs with one thread in every loaded OpenBLAS (_blas.single_thread);
    stats["blas_threads"] records the counts in force."""
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
            qdd = _acceleration(scenario, mass_at(scenario, config), qd)
        except (DegenerateShapeError, DiscretizationError, np.linalg.LinAlgError) as exc:
            return poison(f"{type(exc).__name__}: {exc}")
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
        state = State(config=config, velocity=qd, time=float(t))
        states.append(state)
        mass = mass_at(scenario, config)
        ke[k], pe[k], _ = energies(scenario, state, mass)
        if imp is not None:
            imp.append(kelvin_impulse(state))
        if cadence and k % cadence == 0:
            residuals[k] = boundary_residual(scenario, state, mass,
                                             _acceleration(scenario, mass, qd))
    stats = {"n_steps": len(sol.t) - 1, "n_rhs": n_rhs[0],
             "n_poisoned": poisoned["n"], "last_poison": poisoned["last"],
             "wall_time": time.time() - t_wall, "t_final": float(t_final),
             "solver_message": str(sol.message), "blas_threads": _blas.thread_counts()}
    return Trajectory(times=times, states=tuple(states), kinetic=ke, potential=pe,
                      total_energy=ke + pe,
                      impulse=np.array(imp) if imp is not None else None,
                      boundary_residuals=residuals, termination=termination,
                      stats=stats)


# ---------------------------------------------------------------------------
# a-posteriori interface-condition residual


def _potential_rate(mass, velocity, acceleration):
    """Time derivative of the potential at the bubbles' collocation points
    held fixed, (n,), and its gradient there with the normal part the
    imposed data, (n, 3), for the packed ``velocity`` and ``acceleration``
    at the configuration of the added mass ``mass``.  With the density
    x = X q' (X = mass.density B^T), the potential at the points moving
    with the bubbles is (S X) q', whose rate is sum_t q'_t d_t(S X) q'
    + (S X) q'' (potential._potential_rates); the frozen points see that
    minus V . grad(S x), V = c' + L (x - c) the points' velocity (L = r'/r I
    for a sphere, S' S^-1 for an ellipsoid)."""
    config, geom, B = mass.config, mass.assembly.geom, mass.basis.matrix
    n = sum(m.n_panels for m in mass.assembly.meshes[:config.n_bubbles])
    dPhi = mass.rates[0][:, :n]
    moving = velocity @ (dPhi @ velocity) + (mass.potential @ B.T)[:n] @ acceleration
    V = []
    for bubble, sl, mesh in zip(config.bubbles, config.slices(), mass.assembly.meshes):
        rate = velocity[sl]
        L = (rate[3] / bubble.radius * np.eye(3) if isinstance(bubble, SphereParams)
             else symmetric_matrix(rate[3:]) @ np.linalg.inv(bubble.shape_matrix))
        V.append(rate[:3] + (mesh.quad_points - bubble.center) @ L.T)
    u = B.T @ velocity
    _, _, grad = pot._blocked(geom.points[:n], geom, want_single=False, want_double=False,
                              density=(mass.density @ u)[:, None])
    grad, normals = grad[:, :, 0], geom.normals[:n]
    imposed = grad + (mass.data[:n] @ u - np.einsum('mk,mk->m', grad, normals))[:, None] * normals
    return moving - np.einsum('mk,mk->m', np.concatenate(V), grad), imposed


def boundary_residual(scenario, state: State, mass, acceleration) -> float:
    """Residual of the relaxed interface condition: the pressure field
    reconstructed from the unsteady Bernoulli equation, integrated against
    the normal-velocity covector directions over each bubble, normalized
    by the pressure scale (p_infinity or the largest bubble pressure) times
    the bubble area.  ``mass`` is the added mass of ``state`` (mass_at), and
    ``acceleration`` its packed (p,) acceleration, as eom_rhs returns it.

    The potential's time derivative is exact (_potential_rate), from the
    rates that ``mass`` keeps for the Jacobian.  In a cavity it holds an undetermined
    constant, which the projection onto the volume-preserving velocities
    annihilates; the bubbles' mean area then divides all integrals alike.
    """
    config, rho = state.config, scenario.liquid_density
    dphi_dt, grad = _potential_rate(mass, state.velocity, acceleration)
    pe = _potential_energy(scenario, config)
    pressure_scale = max(scenario.p_infinity, np.max(np.abs(pe.bubble_pressures)))

    meshes = mass.assembly.meshes[:config.n_bubbles]
    p_excess = np.repeat(pe.bubble_pressures - scenario.p_infinity, [m.n_panels for m in meshes])
    p_gap = -rho * (dphi_dt + 0.5 * np.einsum('ik,ik->i', grad, grad)) - p_excess
    # the basis velocities' data: the canonical directions' (block diagonal
    # over the bubbles) in unbounded liquid, their projection in a cavity
    resid = mass.data[:len(p_gap)].T @ (p_gap * mass.assembly.weights[:len(p_gap)])
    areas = np.array([m.quad_weights.sum() for m in meshes])
    if scenario.domain_is_bounded:
        resid /= areas.mean()
    else:
        resid /= np.repeat(areas, [b.dim for b in config.bubbles])
    return float(np.max(np.abs(resid))) / pressure_scale
