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
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from . import gas as gas_mod
from . import potential as pot
from ._stepper import solve_ivp
from .errors import (BubbleDynError, CompatibilityError, DegenerateShapeError,
                     DiscretizationError, IllPosedProblemError)
from .reference import minnaert_frequency
from .shapes import (Configuration, SphereParams, check_admissible, config_from_params,
                     pack_params, slot_maps, surface_gaps, volume_gradient, volume_hessian)

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

    def packed(self):
        return pack_params(self.config), self.velocity


# ---------------------------------------------------------------------------
# scenario-facing kinetic assembly


def mass_at(scenario, config, rates=True, operator=None) -> pot.AddedMassMatrix:
    """The added mass of ``config`` at the scenario's mesh levels and liquid
    density: the one assembly of a state, which its acceleration, energies
    and boundary residual all read.  Without ``rates`` it keeps no kernel
    terms for a contraction (potential.added_mass): an output row that
    takes no residual sample reads none.  ``operator`` is the run's
    (potential.Operator), which keeps its cavity wall; without one, the
    wall's own blocks are built for this call alone, to the same bits."""
    return pot.added_mass(config, scenario.mesh_level, scenario.liquid_density,
                          scenario.wall_level, rates=rates, operator=operator)


def _potential_energy(scenario, config):
    """gas.potential_energy of the scenario's bubbles at ``config``."""
    return gas_mod.potential_energy([b.gas for b in scenario.bubbles], scenario.p_infinity,
                                    scenario.surface_tension, config)


def _ahat_jacobian(A, qdot):
    """The contractions of the parameter Jacobian of the extended kinetic
    matrix B A B^T of the added mass ``A`` with the packed velocity
    ``qdot`` that the equations of motion read (potential.velocity_rates):
    (d_q' K) q' and grad_q (1/2 q'^T K q'), exact and solved with its LU
    alone, with no (p, p, p) tensor formed.

    Cavity mode differentiates the basis-extended matrix, which depends on
    the configuration through the projector B B^T; unbounded mode has
    B = I.  A named pass-through so that the benchmark's tracer
    (perfbench/tracing.py) can time the Jacobian's contraction by this
    name."""
    return pot.velocity_rates(A, qdot)


def _acceleration(scenario, A, qdot):
    """Flat acceleration vector from the Euler-Lagrange equations on the
    admissible velocities, at the configuration of the added mass ``A``,
    by one solve: q'' = B A^-1 (B^T f - A B^T q''_0) + q''_0, with B the
    basis of the admissible velocities, f = -(d_q' K) q' + grad_q (1/2
    q'^T K q') - grad U the force (its Coriolis part from the Jacobian's
    contractions with the velocity, _ahat_jacobian), and q''_0 the
    acceleration along the volume gradient that keeps a cavity's net
    volume flux at zero.  In unbounded liquid B = I and q''_0 = 0, whose
    products and sums are exact.  It checks no state: ``bubbledyn run``
    and integrate refuse the same start faults through one check
    (check_start), and eom_rhs checks the state it is given."""
    config = A.config
    rates = _ahat_jacobian(A, qdot)
    pe = _potential_energy(scenario, config)
    coriolis = rates.tangent - rates.gradient
    force = -coriolis - pe.dU_dm
    B = A.basis.matrix
    qdd0 = np.zeros(len(qdot))
    if A.basis.constrained:
        grad = A.basis.flux_covector
        qdd0 = -(qdot @ volume_hessian(config) @ qdot) / (grad @ grad) * grad
    a = np.linalg.solve(A.matrix, B.T @ force - A.matrix @ (B.T @ qdd0))
    return B @ a + qdd0


def volume_flux(config, qdot):
    """Net volume flux l . qdot of a packed velocity (l the volume
    gradient) and whether it is zero within CONSTRAINT_TOLERANCE relative
    to |l| |qdot|, the cavity's volume constraint."""
    ell = volume_gradient(config)
    flux = float(ell @ qdot)
    scale = np.linalg.norm(ell) * np.linalg.norm(qdot) + 1e-300
    return flux, abs(flux) <= max(CONSTRAINT_TOLERANCE * scale, 1e-13)


def _check_state(scenario, state: State, initial=False):
    """Raise for a state that a run may not pass through: BubbleDynError
    for an inadmissible configuration, CompatibilityError for a cavity
    velocity with net volume flux (volume_flux)."""
    when = "initial " if initial else ""
    report = check_admissible(state.config, scenario.admissibility_level)
    if not report.ok:
        raise BubbleDynError(f"{when}configuration inadmissible: {report.violations}")
    if state.config.bounded:
        flux, ok = volume_flux(state.config, state.velocity)
        if not ok:
            raise CompatibilityError(f"{when}velocity violates the cavity volume "
                                     f"constraint (net volume flux {flux:.3e})")


def eom_rhs(scenario, state: State):
    """Packed (p,) acceleration of the given state, in its velocity's slots;
    raises for an inadmissible state or a cavity velocity with net volume
    flux, as check_start does for the initial state."""
    _check_state(scenario, state)
    return _acceleration(scenario, mass_at(scenario, state.config), state.velocity)


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
    return 2.0 * np.pi / minnaert_frequency(gas, scenario.p_infinity,
                                            scenario.liquid_density, r_eq)


def characteristic_period(scenario) -> float:
    """Smallest Minnaert period over the bubbles (1 without far-field
    pressure); integration time scale estimate."""
    if not scenario.p_infinity > 0:
        return 1.0
    return min(minnaert_period(scenario, b.gas) for b in scenario.bubbles)


def _collision_threshold(scenario, s1, s2=None) -> float:
    size = _bubble_size(s1) if s2 is None else min(_bubble_size(s1), _bubble_size(s2))
    return scenario.collision_gap_fraction * size


def collision_margin(scenario, config) -> float:
    """Smallest (gap - threshold) over bubble pairs and walls: the collision
    event's value, which a run must start above."""
    worst = np.inf
    for (i, j), gap in surface_gaps(config, scenario.admissibility_level):
        other = None if j == -1 else config.bubbles[j]
        worst = min(worst, gap - _collision_threshold(scenario, config.bubbles[i], other))
    return float(worst)


def check_start(scenario) -> State:
    """The scenario's initial state, once it is one a run may start from:
    admissible and, in a cavity, volume preserving (the state check of
    eom_rhs), and outside the collision threshold (collision_margin > 0),
    since the collision event fires on a sign change only.  Raises
    BubbleDynError, CompatibilityError for the volume flux; integrate and
    ``bubbledyn run`` refuse the same start faults through it."""
    state = scenario.initial_state()
    _check_state(scenario, state, initial=True)
    margin = collision_margin(scenario, state.config)
    if not margin > 0:
        raise BubbleDynError(f"initial configuration inside the collision threshold "
                             f"(smallest gap less threshold {margin:.3e})")
    return state


@_lapack.single_thread()
def integrate(scenario, start=None) -> Trajectory:
    """Integrate the reduced system with the adaptive Dormand-Prince 5(4)
    pair (_stepper: scipy RK45's steps and controller, bit for bit), stopped
    by the collision and degeneracy events, sampling by dense interpolation
    at the scenario output cadence.  The initial state must pass
    check_start, the start check that ``bubbledyn run`` makes too, so both
    refuse the same start faults.  A poisoned RHS call (NaN) makes the
    controller reject the trial step and shrink it; stats["n_rejected"]
    counts the rejected trials, so that n_rhs = 1 + 6 (n_steps + n_rejected).
    Runs with one thread in the OpenBLAS the solver calls
    (_lapack.single_thread); stats["blas_threads"] records the count in force.

    Every state is assembled once, the start state too: the first RHS call,
    at the initial state, also takes output row 0 (the dense output at
    t = 0 is the initial state bit for bit), its energies and, at cadence,
    its residual from the call's acceleration and contraction, and hands
    its added mass to ``start``, if given, before the first step; the mass
    is then dropped.  Every added mass of the run reads its cavity wall
    from the run's one operator (potential.Operator)."""
    state0 = check_start(scenario)
    config0 = state0.config
    operator = pot.Operator(config0.domain)
    q0, qd0 = state0.packed()
    p = config0.dim
    sizes0 = np.array([_bubble_size(b) for b in config0.bubbles])
    n_rhs = [0]
    poisoned = {"n": 0, "last": None}
    cadence = scenario.residual_cadence
    row0 = {}
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
            report = check_admissible(config, scenario.admissibility_level)
            if not report.ok:
                return poison(f"state not admissible: {report.violations}")
            mass = mass_at(scenario, config, operator=operator)
            qdd = _acceleration(scenario, mass, qd)
        except (DegenerateShapeError, DiscretizationError, IllPosedProblemError,
                np.linalg.LinAlgError) as exc:
            return poison(f"{type(exc).__name__}: {exc}")
        if n_rhs[0] == 1:
            # the initial state: output row 0, and the start hook
            row0["row"] = sample(State(config=config, velocity=qd.copy()), mass, qdd,
                                  bool(cadence))
            if start is not None:
                start(mass)
        return np.concatenate([qd, qdd])

    def sample(state, mass, qdd=None, residual=False):
        """Output row of ``state`` with its added mass: the state, its
        kinetic and potential energy and, with ``residual``, its boundary
        residual from the acceleration ``qdd`` (computed if None), else NaN."""
        ke, pe, _ = energies(scenario, state, mass)
        resid = np.nan
        if residual:
            if qdd is None:
                qdd = _acceleration(scenario, mass, state.velocity)
            resid = boundary_residual(scenario, state, mass, qdd)
        return state, ke, pe, resid

    def ev_collision(t, y):
        q, _ = split(y)
        try:
            return collision_margin(scenario, config_from_params(config0, q))
        except DegenerateShapeError:
            return -1.0

    def ev_degenerate(t, y):
        q, _ = split(y)
        try:
            config = config_from_params(config0, q)
        except DegenerateShapeError:
            return -1.0
        return min(_bubble_size(b) - DEGENERACY_FRACTION * s0
                   for b, s0 in zip(config.bubbles, sizes0))

    h0 = min(1e-3 * characteristic_period(scenario), 0.1 * scenario.t_end)
    sol = solve_ivp(rhs, (0.0, scenario.t_end), np.concatenate([q0, qd0]),
                    rtol=scenario.rel_tol, atol=scenario.abs_tol, first_step=h0,
                    events=[ev_collision, ev_degenerate])
    if len(sol.t) == 1:
        # not one step, so no state to sample: the initial RHS itself failed
        raise BubbleDynError(f"no step from the initial state ({sol.message}); "
                             f"last poisoned RHS: {poisoned['last']}")

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
    for k, t in enumerate(times):
        if k == 0:
            row = row0.pop("row")
        else:
            q, qd = split(sol.sol(t))
            config = config_from_params(config0, q)
            # one row's added mass at a time, dropped with the row; only a
            # residual sample contracts its rates
            residual = bool(cadence) and k % cadence == 0
            mass = mass_at(scenario, config, rates=residual, operator=operator)
            row = sample(State(config=config, velocity=qd), mass, residual=residual)
        state, ke[k], pe[k], residuals[k] = row
        states.append(state)
        if imp is not None:
            imp.append(kelvin_impulse(state))
    stats = {"n_steps": len(sol.t) - 1, "n_rejected": sol.n_rejected, "n_rhs": n_rhs[0],
             "n_poisoned": poisoned["n"], "last_poison": poisoned["last"],
             "wall_time": time.time() - t_wall, "t_final": float(t_final),
             "solver_message": str(sol.message), "blas_threads": _lapack.thread_counts()}
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
    with the bubbles is (S X) q', whose rate is psi + (S X) q'', with
    psi = sum_t q'_t d_t(S X) q' the potential of potential.velocity_rates,
    which the state's acceleration has already taken; the frozen points see
    that minus V . grad(S x), V = c' + L (x - c) the points' velocity,
    L = sum_t q'_t G_t over the bubble's slot maps (shapes.slot_maps)."""
    config, B = mass.config, mass.basis.matrix
    n = mass.assembly.blocks[config.n_bubbles - 1].stop
    moving = (pot.velocity_rates(mass, velocity).potential[:n]
              + (mass.potential @ B.T)[:n] @ acceleration)
    V = []
    for bubble, sl, mesh in zip(config.bubbles, config.slices(), mass.assembly.meshes):
        rate = velocity[sl]
        L = np.tensordot(rate[3:], slot_maps(bubble), 1)
        V.append(rate[:3] + (mesh.quad_points - bubble.center) @ L.T)
    grad, imposed = pot._basis_gradients(mass, B.T @ velocity)
    return moving - np.einsum('mk,mk->m', np.concatenate(V), grad), imposed


def boundary_residual(scenario, state: State, mass, acceleration) -> float:
    """Residual of the relaxed interface condition: the pressure field
    reconstructed from the unsteady Bernoulli equation, integrated against
    the normal-velocity covector directions over each bubble, normalized
    by the pressure scale (p_infinity or the largest bubble pressure) times
    the bubble area.  ``mass`` is the added mass of ``state`` (mass_at), and
    ``acceleration`` its packed (p,) acceleration, as eom_rhs returns it.

    The potential's time derivative is exact (_potential_rate), from the
    velocity's rates that ``mass`` keeps from the acceleration.  In a
    cavity it holds an undetermined
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
    if config.bounded:
        resid /= areas.mean()
    else:
        resid /= np.repeat(areas, [b.dim for b in config.bubbles])
    return float(np.max(np.abs(resid))) / pressure_scale
