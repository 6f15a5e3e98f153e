"""Closed-form single-bubble model in unbounded liquid: explicit velocity
potential and the radial/translational ODEs.  Serves as the independent
oracle for the boundary-element pipeline.

Translation coefficient.  With kappa defined by c'' = -kappa (r'/r) c',
the Euler-Lagrange equations of the kinetic energy
T = (pi/3) rho r^3 |c'|^2 + 2 pi rho r^3 r'^2 (the exact sphere added
masses) give kappa = 3, equivalent to conservation of the impulse r^3 c'.
A finite-difference Euler-Lagrange oracle (see tests) confirms this; the
literature sometimes prints the variant kappa = 3/2, which remains
available for comparison as ``coefficient="paper_printed"`` and is not
asserted as correct anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .gas import BubbleGasState, bubble_pressure, free_energy

KAPPA_RESOLVED = 3.0
KAPPA_PAPER_PRINTED = 1.5

_COEFFICIENTS = {"resolved": KAPPA_RESOLVED, "paper_printed": KAPPA_PAPER_PRINTED}


def translation_coefficient(name: str) -> float:
    try:
        return _COEFFICIENTS[name]
    except KeyError:
        raise ValueError(f"unknown translation coefficient {name!r}; "
                         f"choose from {sorted(_COEFFICIENTS)}")


@dataclass(frozen=True)
class SingleBubbleState:
    c: np.ndarray
    c_dot: np.ndarray
    r: float
    r_dot: float

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c_dot", np.asarray(self.c_dot, dtype=float))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "r_dot", float(self.r_dot))
        if self.r <= 0:
            raise ValueError(f"bubble radius must be > 0, got {self.r}")

    def pack(self) -> np.ndarray:
        return np.concatenate([self.c, [self.r], self.c_dot, [self.r_dot]])

    @staticmethod
    def unpack(y) -> "SingleBubbleState":
        y = np.asarray(y, dtype=float)
        return SingleBubbleState(c=y[:3], r=y[3], c_dot=y[4:7], r_dot=y[7])


def analytic_potential(state: SingleBubbleState, x):
    """Velocity potential of a pulsating translating sphere,

        phi = -r^2 r' / |x-c| - (r^3 / 2|x-c|^3) c'.(x-c),

    and its gradient.  Points must lie outside (or on) the bubble."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    rel = x - state.c
    d = np.linalg.norm(rel, axis=1)
    if np.any(d < state.r * (1.0 - 1e-12)):
        raise ValueError("evaluation point inside the bubble")
    r, rd, cd = state.r, state.r_dot, state.c_dot
    cdot_rel = rel @ cd
    phi = -r * r * rd / d - 0.5 * r ** 3 * cdot_rel / d ** 3
    grad = (r * r * rd / d ** 3)[:, None] * rel \
        - 0.5 * r ** 3 * (cd[None, :] / (d ** 3)[:, None]
                          - 3.0 * (cdot_rel / d ** 5)[:, None] * rel)
    if single:
        return phi[0], grad[0]
    return phi, grad


def closed_form_rhs(state: SingleBubbleState, gas: BubbleGasState,
                    p_infinity: float, liquid_density: float,
                    surface_tension: float = 0.0,
                    coefficient: str = "resolved"):
    """Accelerations (r_ddot, c_ddot) of the single-bubble model.

    Radial equation (the Rayleigh-Plesset equation plus the translation
    coupling):  r r'' + (3/2) r'^2 = |c'|^2/4 + (p_B - p_inf - 2 sigma/r)/rho.
    Translation:  c'' = -kappa (r'/r) c'.
    """
    kappa = translation_coefficient(coefficient)
    r, rd, cd = state.r, state.r_dot, state.c_dot
    vol = 4.0 * np.pi * r ** 3 / 3.0
    p_b = bubble_pressure(gas, vol)
    r_ddot = (0.25 * np.dot(cd, cd)
              + (p_b - p_infinity - 2.0 * surface_tension / r) / liquid_density
              - 1.5 * rd * rd) / r
    c_ddot = -kappa * (rd / r) * cd
    return r_ddot, c_ddot


def minnaert_frequency(gas: BubbleGasState, p_infinity: float,
                       liquid_density: float, r_eq: float) -> float:
    """Angular frequency of small radial oscillations about equilibrium,
    omega = sqrt(3 gamma p_inf / (rho r_eq^2))."""
    vol = 4.0 * np.pi * r_eq ** 3 / 3.0
    p_b = bubble_pressure(gas, vol)
    if abs(p_b - p_infinity) > 1e-6 * max(p_infinity, p_b):
        warnings.warn(f"r_eq={r_eq} is not the equilibrium radius "
                      f"(p_B={p_b:.6g} vs p_inf={p_infinity:.6g})")
    return float(np.sqrt(3.0 * gas.law.gamma * p_infinity
                         / (liquid_density * r_eq ** 2)))


def total_energy(state: SingleBubbleState, gas: BubbleGasState,
                 p_infinity: float, liquid_density: float,
                 surface_tension: float = 0.0) -> float:
    """Conserved energy of the resolved model: kinetic (added-mass) plus
    gas, far-field pressure and surface contributions."""
    r = state.r
    vol = 4.0 * np.pi * r ** 3 / 3.0
    kinetic = (2.0 * np.pi * liquid_density * r ** 3 * state.r_dot ** 2
               + (np.pi / 3.0) * liquid_density * r ** 3
               * np.dot(state.c_dot, state.c_dot))
    U = (gas.mass * float(free_energy(gas.law, gas.mass / vol))
         + p_infinity * vol + surface_tension * 4.0 * np.pi * r * r)
    return float(kinetic + U)


def integrate_single(state0: SingleBubbleState, gas: BubbleGasState,
                     p_infinity: float, liquid_density: float,
                     surface_tension: float = 0.0, t_end: float = 1.0,
                     coefficient: str = "resolved", rtol: float = 1e-10,
                     atol: float = 1e-12, t_eval=None):
    """Integrate the closed-form model; returns the scipy solution object
    with dense output (state layout: cx, cy, cz, r, vcx, vcy, vcz, vr).
    The oracle stays on scipy's integrator, independent of the solver's
    own stepper; it imports scipy.integrate here, so that importing the
    package does not."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        s = SingleBubbleState.unpack(y)
        r_dd, c_dd = closed_form_rhs(s, gas, p_infinity, liquid_density,
                                     surface_tension, coefficient)
        return np.concatenate([s.c_dot, [s.r_dot], c_dd, [r_dd]])

    sol = solve_ivp(rhs, (0.0, t_end), state0.pack(), method="RK45",
                    rtol=rtol, atol=atol, dense_output=True, t_eval=t_eval)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol
