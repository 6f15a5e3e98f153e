"""Benchmark workloads: seeded scenario generators, the extra `bubbledyn
run` arguments each workload uses, and the accuracy ceilings its runs
must meet.

A generator draws its jitter from ``numpy.random.default_rng([seed, rep])``,
so a repetition's inputs depend only on the seed and the repetition index.
The jitter keeps every configuration admissible (wide gaps between the
bubbles and to the cavity wall) and, in the cavity, volume compatible.

End times sit in the middle of a plateau of the adaptive step count:
across the jitter range every run takes the same number of accepted
steps, so `n_rhs` is a property of the code and not of the draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAMMA = 1.4
# gas mass with equilibrium radius 1 for K = 1, gamma = 1.4, p_inf = 1
UNIT_MASS = 4.0 * math.pi / 3.0
# Minnaert period of that bubble, omega^2 = 3 gamma p_inf / (rho r_eq^2)
PERIOD = 2.0 * math.pi / math.sqrt(3.0 * GAMMA)


def _gas():
    return {"kind": "polytropic", "K": 1.0, "gamma": GAMMA}


def _doc(domain, bubbles, solver, t_end, output_dt, surface_tension=0.0):
    return {"schema_version": 1,
            "liquid": {"density": 1.0, "p_infinity": 1.0},
            "surface_tension": surface_tension,
            "domain": domain,
            "bubbles": bubbles,
            "solver": solver,
            "time": {"t_end": t_end, "output_dt": output_dt}}


def sphere_l2(rng):
    """Acceptance-3 setup at level 2: r about 1.2, c' about 0.1 in a random
    direction, rtol 1e-6, output every period/40; four output intervals
    (four accepted steps)."""
    r = 1.2 * (1.0 + rng.uniform(-0.02, 0.02))
    direction = rng.normal(size=3)
    vc = 0.1 * (1.0 + rng.uniform(-0.05, 0.05)) * direction / np.linalg.norm(direction)
    bubble = {"shape": {"type": "sphere", "center": rng.uniform(-0.1, 0.1, 3).tolist(),
                        "radius": r},
              "velocity": {"center": vc.tolist(), "radius": rng.uniform(-0.01, 0.01)},
              "gas": _gas(), "mass": UNIT_MASS}
    output_dt = PERIOD / 40
    return _doc({"type": "unbounded"}, [bubble],
                {"mesh_level": 2, "rel_tol": 1e-6, "abs_tol": 1e-8},
                t_end=4 * output_dt, output_dt=output_dt)


def cavity_pair_l1(rng):
    """The shipped two_bubble_cavity scenario (bubbles and wall at level 1,
    rtol 1e-10) with jittered positions, radii and radial rates;
    vr2 = -vr1 (r1/r2)^2 keeps the total volume fixed.  Three accepted
    steps."""
    r1, r2 = 0.8 * (1.0 + rng.uniform(-0.02, 0.02, 2))
    vr1 = 0.25 * (1.0 + rng.uniform(-0.05, 0.05))
    vr2 = -vr1 * (r1 / r2) ** 2
    bubbles = []
    for sign, r, vr in ((-1.0, r1, vr1), (1.0, r2, vr2)):
        center = np.array([sign * 1.4, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, 3)
        bubbles.append({"shape": {"type": "sphere", "center": center.tolist(),
                                  "radius": r},
                        "velocity": {"center": [0.0, 0.0, 0.0], "radius": vr},
                        "gas": _gas(), "mass": UNIT_MASS * 0.8 ** 3})
    return _doc({"type": "cavity_sphere", "center": [0.0, 0.0, 0.0], "radius": 4.0},
                bubbles, {"mesh_level": 1, "wall_level": 1,
                          "rel_tol": 1e-10, "abs_tol": 1e-12},
                t_end=0.01, output_dt=0.0025)


def ellipsoid_pair_l1(rng):
    """Two unbounded non-spherical ellipsoids at level 1 with surface
    tension on: 18 shape parameters, so 36 FD sides per RHS.  Two accepted
    steps."""
    bubbles = []
    for sign, axes in ((-1.0, (1.0, 0.9, 0.85)), (1.0, (0.9, 1.0, 0.95))):
        S = np.diag(np.array(axes) * (1.0 + rng.uniform(-0.03, 0.03, 3)))
        S[0, 1] = S[1, 0] = rng.uniform(-0.03, 0.03)
        rate = np.diag(rng.uniform(-0.05, 0.05, 3))
        center = np.array([sign * 1.5, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, 3)
        vc = np.array([-sign * 0.05, 0.0, 0.0]) + rng.uniform(-0.01, 0.01, 3)
        bubbles.append({"shape": {"type": "ellipsoid", "center": center.tolist(),
                                  "matrix": S.tolist()},
                        "velocity": {"center": vc.tolist(), "matrix": rate.tolist()},
                        "gas": _gas(), "mass": UNIT_MASS * 0.9})
    return _doc({"type": "unbounded"}, bubbles,
                {"mesh_level": 1, "rel_tol": 1e-8, "abs_tol": 1e-10},
                t_end=0.015, output_dt=0.005, surface_tension=0.05)


@dataclass(frozen=True)
class Workload:
    generate: Callable        # numpy Generator -> scenario document
    run_args: tuple           # extra `bubbledyn run` arguments
    energy_ceiling: float     # max |E(t) - E(0)| / |E(0)| a run may show


# Energy ceilings sit 40x or more above the largest drift seen in the
# baseline runs (BASELINE.md).  The pair workloads sample the boundary
# residual once, at t = 0 (cadence longer than the run), so the residual's
# layers are timed on every workload; sphere_l2 samples every fourth row.
WORKLOADS = {
    "sphere_l2": Workload(sphere_l2, ("--residual-cadence", "4"), 2e-7),
    "cavity_pair_l1": Workload(cavity_pair_l1, ("--residual-cadence", "5"), 1e-9),
    "ellipsoid_pair_l1": Workload(ellipsoid_pair_l1, ("--residual-cadence", "4"), 1e-12),
}


def generate(name, seed, rep):
    return WORKLOADS[name].generate(np.random.default_rng([seed, rep]))
