"""Scenario document: JSON ingestion, validation with field-anchored
messages, canonical serialization, and construction of the initial state."""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .dynamics import State
from .errors import BubbleDynError
from .gas import BubbleGasState, GasLaw
from .shapes import (MAX_MESH_LEVEL, CavityMesh, CavitySphere, Configuration,
                     EllipsoidParams, SphereParams, Unbounded, load_off, symmetric_matrix,
                     symmetric_slots)

SCHEMA_VERSION = 1
# most output rows a document may ask for: a run integrates to t_end first
# and then assembles one added mass per row but row 0, which reuses the
# first RHS's: rows - 1 of floor(t_end / output_dt) + 1 rows (one more for
# a final time off the grid)
MAX_OUTPUT_ROWS = 10 ** 6


class ScenarioError(BubbleDynError, ValueError):
    """Scenario document failed to parse or validate."""


@dataclass(frozen=True)
class BubbleSpec:
    """A bubble's shape, its gas and its velocity: the packed parameter
    rates, in the slots of ``shape.pack()``."""

    shape: object             # SphereParams | EllipsoidParams
    velocity: np.ndarray
    gas: BubbleGasState


@dataclass(frozen=True)
class Scenario:
    liquid_density: float
    p_infinity: float
    surface_tension: float
    domain: object
    bubbles: tuple
    mesh_level: int = 2
    wall_level: int | None = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    collision_gap_fraction: float = 0.02
    residual_cadence: int = 0
    t_end: float = 1.0
    output_dt: float = 0.05

    @property
    def admissibility_level(self) -> int:
        """Mesh level of the admissibility checks: the solver's, at most 2."""
        return min(self.mesh_level, 2)

    def configuration(self) -> Configuration:
        return Configuration(bubbles=tuple(b.shape for b in self.bubbles),
                             domain=self.domain)

    def initial_state(self) -> State:
        return State(config=self.configuration(),
                     velocity=np.concatenate([b.velocity for b in self.bubbles]))


def _expect(cond, path, message):
    if not cond:
        raise ScenarioError(f"{path}: {message}")


def _get(d, key, path, typ=None, default=_expect):
    if key not in d:
        if default is not _expect:
            return default
        raise ScenarioError(f"{path}.{key}: missing required field")
    val = d[key]
    if typ is not None and not isinstance(val, typ):
        raise ScenarioError(f"{path}.{key}: expected {typ}, got {type(val).__name__}")
    return val


def _finite(x) -> bool:
    """Whether ``x`` is a finite number: not a boolean, NaN or infinity
    (which Python's json reads), nor an integer beyond the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _integer(d, key, path, default=_expect):
    val = _get(d, key, path, default=default)
    if isinstance(val, bool) or not isinstance(val, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {val!r}")
    return val


def _number(d, key, path, default=_expect, positive=False, nonnegative=False):
    val = _get(d, key, path, default=default)
    if not _finite(val):
        raise ScenarioError(f"{path}.{key}: expected a finite number, got {val!r}")
    val = float(val)
    if positive and not val > 0:
        raise ScenarioError(f"{path}.{key}: must be > 0, got {val}")
    if nonnegative and val < 0:
        raise ScenarioError(f"{path}.{key}: must be >= 0, got {val}")
    return val


def _vector3(d, key, path, default=_expect):
    val = _get(d, key, path, default=default)
    if not (isinstance(val, list) and len(val) == 3 and all(map(_finite, val))):
        raise ScenarioError(f"{path}.{key}: expected a list of 3 finite numbers")
    return np.array(val, dtype=float)


def _matrix3(val, path):
    if not (isinstance(val, list) and len(val) == 3
            and all(isinstance(row, list) and len(row) == 3 and all(map(_finite, row))
                    for row in val)):
        raise ScenarioError(f"{path}: expected a 3x3 matrix (list of 3 rows of 3 "
                            "finite numbers)")
    return np.array(val, dtype=float)


def _parse_domain(d, path, base_dir):
    kind = _get(d, "type", path, str)
    if kind == "unbounded":
        return Unbounded()
    if kind == "cavity_sphere":
        return CavitySphere(center=_vector3(d, "center", path, default=[0.0, 0.0, 0.0]),
                            radius=_number(d, "radius", path, positive=True))
    if kind == "cavity_mesh":
        if "path" in d:
            p = d["path"]
            if not os.path.isabs(p):
                p = os.path.join(base_dir, p)
            try:
                return load_off(p)
            except (OSError, ValueError) as exc:
                raise ScenarioError(f"{path}.path: cannot load OFF mesh: {exc}")
        if "vertices" in d and "triangles" in d:
            for key in ("vertices", "triangles"):
                rows = d[key]
                _expect(isinstance(rows, list) and all(
                    isinstance(row, list) and all(map(_finite, row)) for row in rows),
                    f"{path}.{key}", "expected a list of rows of finite numbers")
            try:
                return CavityMesh(vertices=d["vertices"], triangles=d["triangles"])
            except ValueError as exc:
                # the message starts with the field's name
                raise ScenarioError(f"{path}.{exc}") from None
        raise ScenarioError(f"{path}: cavity_mesh needs 'path' or inline "
                            "'vertices' and 'triangles'")
    raise ScenarioError(f"{path}.type: unknown domain type {kind!r}")


def _parse_bubble(d, path):
    shape_d = _get(d, "shape", path, dict)
    kind = _get(shape_d, "type", f"{path}.shape", str)
    vel_d = _get(d, "velocity", path, dict, default={})
    try:
        if kind == "sphere":
            shape = SphereParams(center=_vector3(shape_d, "center", f"{path}.shape"),
                                 radius=_number(shape_d, "radius", f"{path}.shape",
                                                positive=True))
        elif kind == "ellipsoid":
            shape = EllipsoidParams(
                center=_vector3(shape_d, "center", f"{path}.shape"),
                shape_matrix=_matrix3(_get(shape_d, "matrix", f"{path}.shape"),
                                      f"{path}.shape.matrix"))
        else:
            raise ScenarioError(f"{path}.shape.type: unknown shape type {kind!r}")
    except BubbleDynError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"{path}.shape: {exc}")
    velocity = _vector3(vel_d, "center", f"{path}.velocity", default=[0.0, 0.0, 0.0])
    if kind == "sphere":
        velocity = np.append(velocity, _number(vel_d, "radius", f"{path}.velocity",
                                               default=0.0))
    else:
        rate = _matrix3(vel_d.get("matrix", [[0.0] * 3] * 3), f"{path}.velocity.matrix")
        _expect(np.linalg.norm(rate - rate.T) <= 1e-8 * max(1.0, np.linalg.norm(rate)),
                f"{path}.velocity.matrix", "must be symmetric")
        velocity = np.append(velocity, symmetric_slots(0.5 * (rate + rate.T)))
    gas_d = _get(d, "gas", path, dict)
    gas_kind = _get(gas_d, "kind", f"{path}.gas", str, default="polytropic")
    _expect(gas_kind == "polytropic", f"{path}.gas.kind",
            f"unknown gas law {gas_kind!r} (only 'polytropic' is available)")
    gamma = _number(gas_d, "gamma", f"{path}.gas")
    _expect(gamma >= 1.0, f"{path}.gas.gamma", f"must be >= 1, got {gamma}")
    K = _number(gas_d, "K", f"{path}.gas", positive=True)
    mass = _number(d, "mass", path, positive=True)
    return BubbleSpec(shape=shape, velocity=velocity,
                      gas=BubbleGasState(mass=mass, law=GasLaw(K=K, gamma=gamma)))


def scenario_from_dict(doc: dict, base_dir: str = ".") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("document root: expected a JSON object")
    version = _integer(doc, "schema_version", "document", default=SCHEMA_VERSION)
    _expect(version == SCHEMA_VERSION, "schema_version",
            f"unsupported version {version} (this build reads {SCHEMA_VERSION})")
    liquid = _get(doc, "liquid", "document", dict)
    density = _number(liquid, "density", "liquid", positive=True)
    p_inf = _number(liquid, "p_infinity", "liquid", nonnegative=True)
    sigma = _number(doc, "surface_tension", "document", default=0.0, nonnegative=True)
    domain = _parse_domain(_get(doc, "domain", "document", dict,
                                default={"type": "unbounded"}),
                           "domain", base_dir)
    bubbles_doc = _get(doc, "bubbles", "document", list)
    _expect(len(bubbles_doc) >= 1, "bubbles", "need at least one bubble")
    bubbles = tuple(_parse_bubble(b, f"bubbles[{i}]")
                    for i, b in enumerate(bubbles_doc))
    solver = _get(doc, "solver", "document", dict, default={})
    mesh_level = _integer(solver, "mesh_level", "solver", default=2)
    _expect(0 <= mesh_level <= MAX_MESH_LEVEL, "solver.mesh_level",
            f"must be in [0, {MAX_MESH_LEVEL}]")
    wall_level = _get(solver, "wall_level", "solver", default=None)
    if wall_level is not None:
        wall_level = _integer(solver, "wall_level", "solver")
        _expect(0 <= wall_level <= MAX_MESH_LEVEL, "solver.wall_level",
                f"must be an integer in [0, {MAX_MESH_LEVEL}]")
    residual_cadence = _integer(solver, "residual_cadence", "solver", default=0)
    _expect(residual_cadence >= 0, "solver.residual_cadence",
            f"must be >= 0, got {residual_cadence}")
    timing = _get(doc, "time", "document", dict)
    t_end = _number(timing, "t_end", "time", positive=True)
    output_dt = _number(timing, "output_dt", "time", positive=True)
    _expect(t_end / output_dt <= MAX_OUTPUT_ROWS - 2, "time.output_dt",
            f"t_end / output_dt = {t_end / output_dt:.3g} asks for more than "
            f"{MAX_OUTPUT_ROWS} output rows")
    return Scenario(
        liquid_density=density, p_infinity=p_inf, surface_tension=sigma,
        domain=domain, bubbles=bubbles, mesh_level=mesh_level,
        wall_level=wall_level,
        rel_tol=_number(solver, "rel_tol", "solver", default=1e-8, positive=True),
        abs_tol=_number(solver, "abs_tol", "solver", default=1e-10, positive=True),
        collision_gap_fraction=_number(solver, "collision_gap_fraction", "solver",
                                       default=0.02, positive=True),
        residual_cadence=residual_cadence,
        t_end=t_end, output_dt=output_dt)


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}")
    return scenario_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def _shape_to_dict(shape):
    if isinstance(shape, SphereParams):
        return {"type": "sphere", "center": list(shape.center),
                "radius": shape.radius}
    return {"type": "ellipsoid", "center": list(shape.center),
            "matrix": [list(row) for row in shape.shape_matrix]}


def _velocity_to_dict(shape, vel):
    if isinstance(shape, SphereParams):
        return {"center": list(vel[:3]), "radius": float(vel[3])}
    return {"center": list(vel[:3]),
            "matrix": [list(row) for row in symmetric_matrix(vel[3:])]}


def _domain_to_dict(domain):
    if isinstance(domain, Unbounded):
        return {"type": "unbounded"}
    if isinstance(domain, CavitySphere):
        return {"type": "cavity_sphere", "center": list(domain.center),
                "radius": domain.radius}
    out = {"type": "cavity_mesh"}
    if domain.path:
        out["path"] = domain.path
    else:
        out["vertices"] = [list(v) for v in domain.vertices]
        out["triangles"] = [[int(i) for i in t] for t in domain.triangles]
    return out


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical document form; floats survive the JSON round trip exactly."""
    return {
        "schema_version": SCHEMA_VERSION,
        "liquid": {"density": s.liquid_density, "p_infinity": s.p_infinity},
        "surface_tension": s.surface_tension,
        "domain": _domain_to_dict(s.domain),
        "bubbles": [
            {"shape": _shape_to_dict(b.shape),
             "velocity": _velocity_to_dict(b.shape, b.velocity),
             "gas": {"kind": "polytropic", "K": b.gas.law.K, "gamma": b.gas.law.gamma},
             "mass": b.gas.mass}
            for b in s.bubbles],
        "solver": {"mesh_level": s.mesh_level, "wall_level": s.wall_level,
                   "rel_tol": s.rel_tol, "abs_tol": s.abs_tol,
                   "collision_gap_fraction": s.collision_gap_fraction,
                   "residual_cadence": s.residual_cadence},
        "time": {"t_end": s.t_end, "output_dt": s.output_dt},
    }
