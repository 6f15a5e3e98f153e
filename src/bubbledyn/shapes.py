"""Admissible bubble shape families (spheres, ellipsoids), their surface
meshes, normal-velocity covectors and geometric measures, and the basis of
the admissible (in a cavity, volume-preserving) velocities.

All meshes are affine images of one fixed reference icosphere per refinement
level, so every derived quantity varies smoothly with the shape parameters
and finite differences across nearby parameter values are well defined.

Parameter packing convention (used throughout the package):
    sphere     -> (cx, cy, cz, r)                       4 slots
    ellipsoid  -> (cx, cy, cz, s11, s12, s13, s22, s23, s33)   9 slots
Off-diagonal tangent slots hold the matrix entry itself; the corresponding
symmetric perturbation matrix carries the entry in both (i,j) and (j,i).

Adding a shape family means providing a params dataclass (dim, pack,
unpack, bounding_radius, validation in __post_init__), a matching tangent
type, and branches in surface_mesh (map the reference icosphere, supply
on-surface quadrature data), normal_velocity, normal_velocity_basis,
measures and tangent_like.
Everything downstream works on packed vectors and meshes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import ellipeinc, ellipkinc

from .errors import DegenerateShapeError, UnsupportedConfigurationError

# eigenvalue ratio below which an ellipsoid matrix is rejected as degenerate
DEGENERACY_RATIO = 1e-10
# relative step for finite-difference measure gradients (central differences)
MEASURE_FD_STEP = 1e-5
_MAX_LEVEL = 7

_SYM_INDEX = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# reference icosphere


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts[0])
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [5, 4, 9], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return verts, faces


def _subdivide(verts, faces):
    verts = list(verts)
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            m = verts[i] + verts[j]
            m /= np.linalg.norm(m)
            verts.append(m)
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return np.array(verts), np.array(out, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def reference_icosphere(level: int):
    """Unit icosphere at the given subdivision level.

    Returns read-only (vertices, triangles); 20 * 4**level triangles, all
    vertices exactly on the unit sphere.  Triangles are oriented outward.
    """
    if not 0 <= level <= _MAX_LEVEL:
        raise ValueError(f"level must be in [0, {_MAX_LEVEL}], got {level}")
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    verts.setflags(write=False)
    faces.setflags(write=False)
    return verts, faces


def _solid_angles_from(verts, faces, origin):
    """Signed solid angle of each triangle as seen from ``origin``."""
    r0 = verts[faces[:, 0]] - origin
    r1 = verts[faces[:, 1]] - origin
    r2 = verts[faces[:, 2]] - origin
    l0 = np.linalg.norm(r0, axis=1)
    l1 = np.linalg.norm(r1, axis=1)
    l2 = np.linalg.norm(r2, axis=1)
    num = np.einsum('ij,ij->i', r0, np.cross(r1, r2))
    den = (l0 * l1 * l2
           + np.einsum('ij,ij->i', r0, r1) * l2
           + np.einsum('ij,ij->i', r1, r2) * l0
           + np.einsum('ij,ij->i', r2, r0) * l1)
    return 2.0 * np.arctan2(num, den)


@functools.lru_cache(maxsize=None)
def _reference_quadrature(level: int):
    """Per-face unit directions and exact spherical patch solid angles."""
    verts, faces = reference_icosphere(level)
    omega = _solid_angles_from(verts, faces, np.zeros(3))
    fc = (verts[faces[:, 0]] + verts[faces[:, 1]] + verts[faces[:, 2]]) / 3.0
    ydir = fc / np.linalg.norm(fc, axis=1)[:, None]
    omega.setflags(write=False)
    ydir.setflags(write=False)
    return ydir, omega


# ---------------------------------------------------------------------------
# shape parameters and tangent vectors


@dataclass(frozen=True)
class SphereParams:
    """Sphere of radius ``radius`` centred at ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))
        if self.center.shape != (3,):
            raise DegenerateShapeError("sphere center must be a 3-vector")
        if not np.isfinite(self.radius) or self.radius <= 0.0:
            raise DegenerateShapeError(f"sphere radius must be > 0, got {self.radius}")

    @property
    def dim(self) -> int:
        return 4

    def pack(self) -> np.ndarray:
        return np.concatenate([self.center, [self.radius]])

    @staticmethod
    def unpack(q) -> "SphereParams":
        q = np.asarray(q, dtype=float)
        return SphereParams(center=q[:3], radius=q[3])

    def bounding_radius(self) -> float:
        return self.radius


@dataclass(frozen=True)
class EllipsoidParams:
    """Ellipsoid {c + S y, |y| = 1} with S symmetric positive definite."""

    center: np.ndarray
    shape_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        S = np.asarray(self.shape_matrix, dtype=float)
        if self.center.shape != (3,) or S.shape != (3, 3):
            raise DegenerateShapeError("ellipsoid needs 3-vector center and 3x3 matrix")
        asym = np.linalg.norm(S - S.T)
        if asym > 1e-8 * max(1.0, np.linalg.norm(S)):
            raise DegenerateShapeError(f"shape matrix not symmetric (|S - S^T| = {asym:.2e})")
        S = 0.5 * (S + S.T)
        eig = np.linalg.eigvalsh(S)
        if eig[0] <= DEGENERACY_RATIO * eig[-1] or eig[0] <= 0.0:
            raise DegenerateShapeError(f"shape matrix eigenvalues {eig} are degenerate")
        object.__setattr__(self, "shape_matrix", S)

    @property
    def dim(self) -> int:
        return 9

    def pack(self) -> np.ndarray:
        S = self.shape_matrix
        return np.concatenate([self.center, [S[i, j] for i, j in _SYM_INDEX]])

    @staticmethod
    def unpack(q) -> "EllipsoidParams":
        q = np.asarray(q, dtype=float)
        S = np.empty((3, 3))
        for val, (i, j) in zip(q[3:], _SYM_INDEX):
            S[i, j] = val
            S[j, i] = val
        return EllipsoidParams(center=q[:3], shape_matrix=S)

    def semi_axes(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.shape_matrix)

    def bounding_radius(self) -> float:
        return float(self.semi_axes()[-1])


ShapeParams = Union[SphereParams, EllipsoidParams]


@dataclass(frozen=True)
class SphereTangent:
    """Tangent (center rate, radius rate) to the sphere family."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))

    def pack(self) -> np.ndarray:
        return np.concatenate([self.center, [self.radius]])


@dataclass(frozen=True)
class EllipsoidTangent:
    """Tangent (center rate, symmetric matrix rate) to the ellipsoid family."""

    center: np.ndarray
    shape_matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        Sd = np.asarray(self.shape_matrix, dtype=float)
        if np.linalg.norm(Sd - Sd.T) > 1e-8 * max(1.0, np.linalg.norm(Sd)):
            raise DegenerateShapeError("tangent matrix must be symmetric")
        object.__setattr__(self, "shape_matrix", 0.5 * (Sd + Sd.T))

    def pack(self) -> np.ndarray:
        Sd = self.shape_matrix
        return np.concatenate([self.center, [Sd[i, j] for i, j in _SYM_INDEX]])


TangentVector = Union[SphereTangent, EllipsoidTangent]


def tangent_like(shape: ShapeParams, q) -> TangentVector:
    """Build the tangent vector of ``shape``'s family from packed slots."""
    q = np.asarray(q, dtype=float)
    if isinstance(shape, SphereParams):
        return SphereTangent(center=q[:3], radius=q[3])
    Sd = np.zeros((3, 3))
    for val, (i, j) in zip(q[3:], _SYM_INDEX):
        Sd[i, j] = val
        Sd[j, i] = val
    return EllipsoidTangent(center=q[:3], shape_matrix=Sd)


# ---------------------------------------------------------------------------
# fluid domain


@dataclass(frozen=True)
class Unbounded:
    """Liquid fills all of space outside the bubbles."""


@dataclass(frozen=True)
class CavitySphere:
    """Liquid bounded by a fixed spherical wall."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0.0:
            raise DegenerateShapeError("cavity radius must be > 0")


@dataclass(frozen=True)
class CavityMesh:
    """Liquid bounded by a fixed triangulated wall (e.g. read from an OFF file)."""

    vertices: np.ndarray
    triangles: np.ndarray
    path: str = ""

    def __post_init__(self):
        """Finite (n, 3) vertices and integer-valued (m, 3) triangles with
        indices in [0, n); a ValueError otherwise, its message led by the
        field's name."""
        verts = _rows_of_three("vertices", self.vertices)
        tris = _rows_of_three("triangles", self.triangles)
        if np.any(tris != np.round(tris)):
            raise ValueError("triangles: vertex indices must be integers")
        if tris.min() < 0 or tris.max() >= len(verts):
            raise ValueError(f"triangles: vertex indices must lie in [0, {len(verts)})")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris.astype(np.int64))


def _rows_of_three(name, rows) -> np.ndarray:
    """``rows`` as a float (k, 3) array, k > 0, of finite numbers."""
    try:
        a = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected rows of 3 numbers") from None
    if a.ndim != 2 or a.shape[1] != 3 or not len(a):
        raise ValueError(f"{name}: expected rows of 3 numbers, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name}: entries must be finite")
    return a


Domain = Union[Unbounded, CavitySphere, CavityMesh]


@dataclass(frozen=True)
class Configuration:
    """Ordered tuple of bubble shapes plus the fluid domain."""

    bubbles: tuple
    domain: Domain = field(default_factory=Unbounded)

    def __post_init__(self):
        object.__setattr__(self, "bubbles", tuple(self.bubbles))
        if len(self.bubbles) == 0:
            raise DegenerateShapeError("configuration needs at least one bubble")

    @property
    def n_bubbles(self) -> int:
        return len(self.bubbles)

    @property
    def bounded(self) -> bool:
        return not isinstance(self.domain, Unbounded)

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.bubbles)

    def slices(self):
        """Per-bubble slices into the packed parameter vector."""
        out, i = [], 0
        for b in self.bubbles:
            out.append(slice(i, i + b.dim))
            i += b.dim
        return out


def pack_params(config: Configuration) -> np.ndarray:
    return np.concatenate([b.pack() for b in config.bubbles])


def config_from_params(config: Configuration, q) -> Configuration:
    """Same families and domain as ``config``, parameter values from ``q``."""
    q = np.asarray(q, dtype=float)
    bubbles = []
    for b, sl in zip(config.bubbles, config.slices()):
        bubbles.append(type(b).unpack(q[sl]))
    return Configuration(bubbles=tuple(bubbles), domain=config.domain)


def pack_tangents(tangents) -> np.ndarray:
    return np.concatenate([t.pack() for t in tangents])


def tangents_from_vector(config: Configuration, qdot):
    qdot = np.asarray(qdot, dtype=float)
    return tuple(tangent_like(b, qdot[sl]) for b, sl in zip(config.bubbles, config.slices()))


# ---------------------------------------------------------------------------
# surface meshes


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated bubble or wall surface with solver quadrature data.

    ``centroid``/``area``/``normal`` describe the flat triangles.  The
    quadrature fields hold the on-surface collocation points, true surface
    normals and patch weights used by the boundary-element solver; for
    analytic surfaces the weights are exact patch measures (solid-angle
    based), for ingested wall meshes they fall back to the flat values.
    ``closure`` is the Gauss-identity value of the own-surface double-layer
    row sum: +1/2 for bubbles, -1/2 for cavity walls (normals point into
    the fluid on both).  ``shape`` is the shape the mesh was built from:
    the bubble parameters, or the cavity domain of a wall.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    centroid: np.ndarray
    area: np.ndarray
    normal: np.ndarray
    quad_points: np.ndarray
    quad_normals: np.ndarray
    quad_weights: np.ndarray
    level: int
    closure: float
    shape: ShapeParams | Domain

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    def triangle_corners(self):
        v, f = self.vertices, self.triangles
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def edge_length(self) -> float:
        """Maximum edge length, the mesh resolution measure."""
        p0, p1, p2 = self.triangle_corners()
        return float(max(np.linalg.norm(p1 - p0, axis=1).max(),
                         np.linalg.norm(p2 - p1, axis=1).max(),
                         np.linalg.norm(p0 - p2, axis=1).max()))

    def covering_radius(self) -> float:
        """Every surface point lies within this distance of a quadrature
        point (panel corners bound their flat triangles by convexity)."""
        p0, p1, p2 = self.triangle_corners()
        return float(max(np.linalg.norm(p - self.quad_points, axis=1).max()
                         for p in (p0, p1, p2)))


def _flat_data(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    p1 = vertices[triangles[:, 1]]
    p2 = vertices[triangles[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(cross, axis=1)
    return (p0 + p1 + p2) / 3.0, 0.5 * two_area, cross / two_area[:, None]


def surface_mesh(shape: ShapeParams, level: int) -> SurfaceMesh:
    """Mesh of a bubble surface: the reference icosphere mapped by the shape.

    Vertex count depends only on ``level``; vertices land exactly on the
    analytic surface, quadrature weights are exact spherical patch measures
    pushed forward by the shape map.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    ref_verts, ref_faces = reference_icosphere(level)
    ydir, omega = _reference_quadrature(level)
    if isinstance(shape, SphereParams):
        verts = shape.center + shape.radius * ref_verts
        qpts = shape.center + shape.radius * ydir
        qnrm = ydir
        qw = omega * shape.radius ** 2
    elif isinstance(shape, EllipsoidParams):
        S = shape.shape_matrix
        verts = shape.center + ref_verts @ S.T
        qpts = shape.center + ydir @ S.T
        sinv_y = ydir @ np.linalg.inv(S).T
        nrm_len = np.linalg.norm(sinv_y, axis=1)
        qnrm = sinv_y / nrm_len[:, None]
        qw = omega * np.linalg.det(S) * nrm_len
    else:
        raise TypeError(f"unsupported shape family: {type(shape).__name__}")
    centroid, area, normal = _flat_data(verts, ref_faces)
    return SurfaceMesh(vertices=verts, triangles=ref_faces, centroid=centroid,
                       area=area, normal=normal, quad_points=qpts,
                       quad_normals=qnrm, quad_weights=qw, level=level, closure=0.5,
                       shape=shape)


def wall_mesh(domain: Domain, level: int) -> SurfaceMesh:
    """Cavity wall mesh with normals pointing into the fluid."""
    if isinstance(domain, CavitySphere):
        ref_verts, ref_faces = reference_icosphere(level)
        ydir, omega = _reference_quadrature(level)
        # reversed orientation: flat and quadrature normals point inward
        faces = ref_faces[:, [0, 2, 1]]
        verts = domain.center + domain.radius * ref_verts
        centroid, area, normal = _flat_data(verts, faces)
        return SurfaceMesh(vertices=verts, triangles=faces, centroid=centroid,
                           area=area, normal=normal,
                           quad_points=domain.center + domain.radius * ydir,
                           quad_normals=-ydir,
                           quad_weights=omega * domain.radius ** 2,
                           level=level, closure=-0.5, shape=domain)
    if isinstance(domain, CavityMesh):
        verts, faces = domain.vertices, domain.triangles
        p0, p1, p2 = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
        areas2 = np.linalg.norm(np.cross(p1 - p0, p2 - p0), axis=1)
        if areas2.min() <= 1e-12 * areas2.max():
            raise DegenerateShapeError(
                f"wall mesh has degenerate triangles (min/max area ratio "
                f"{areas2.min() / areas2.max():.2e})")
        centroid, area, normal = _flat_data(verts, faces)
        # orient so normals point into the fluid (toward the interior)
        signed_vol = np.einsum('ij,ij->i', centroid, normal) @ area / 3.0
        if signed_vol > 0.0:
            faces = faces[:, [0, 2, 1]]
            centroid, area, normal = _flat_data(verts, faces)
        return SurfaceMesh(vertices=verts, triangles=faces, centroid=centroid,
                           area=area, normal=normal, quad_points=centroid,
                           quad_normals=normal, quad_weights=area,
                           level=-1, closure=-0.5, shape=domain)
    raise TypeError("unbounded domain has no wall mesh")


def load_off(path: str) -> CavityMesh:
    """Read an ASCII OFF triangle mesh."""
    with open(path) as fh:
        tokens = []
        for line in fh:
            line = line.split('#', 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise ValueError(f"{path}: not an ASCII OFF file")
    pos = 1

    def take(n):
        nonlocal pos
        if n < 0 or pos + n > len(tokens):
            raise ValueError(f"{path}: OFF file ends early or has a negative count")
        pos += n
        return tokens[pos - n:pos]

    nv, nf, _ = (int(t) for t in take(3))  # the edge count is not used
    verts = np.array(take(3 * nv), dtype=float).reshape(nv, 3)
    faces = []
    for _ in range(nf):
        cnt = int(take(1)[0])
        if cnt != 3:
            raise ValueError(f"{path}: only triangle faces supported, got {cnt}-gon")
        faces.append([int(t) for t in take(3)])
    return CavityMesh(vertices=verts, triangles=np.array(faces, dtype=np.int64), path=path)


# ---------------------------------------------------------------------------
# normal velocity


def normal_velocity(shape: ShapeParams, mdot: TangentVector, x, n):
    """Normal speed of the surface point ``x`` induced by the parameter
    velocity ``mdot``: c'.n + r' for spheres, c'.n + S' S^-1 (x-c).n for
    ellipsoids.  Accepts single points or (M, 3) arrays."""
    x = np.asarray(x, dtype=float)
    n = np.asarray(n, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    n = np.atleast_2d(n)
    if isinstance(shape, SphereParams):
        out = n @ mdot.center + mdot.radius
    else:
        Sinv = np.linalg.inv(shape.shape_matrix)
        rel = (x - shape.center) @ Sinv.T @ mdot.shape_matrix.T
        out = n @ mdot.center + np.einsum('ij,ij->i', rel, n)
    return out[0] if single else out


def normal_velocity_basis(shape: ShapeParams, x, n) -> np.ndarray:
    """(M, dim) matrix whose column j is the normal velocity at the points
    ``x`` (normals ``n``) of the packed unit tangent e_j; normal_velocity
    is linear in the tangent, so it equals this matrix times the packed
    tangent."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    if isinstance(shape, SphereParams):
        return np.column_stack([n, np.ones(len(n))])
    u = (x - shape.center) @ np.linalg.inv(shape.shape_matrix).T
    # slot (i, j) perturbs S_ij and S_ji: n_i u_j + n_j u_i (once on the diagonal)
    cols = [n[:, i] * u[:, j] + (n[:, j] * u[:, i] if i != j else 0.0)
            for i, j in _SYM_INDEX]
    return np.column_stack([n, *cols])


# ---------------------------------------------------------------------------
# measures


def _ellipsoid_area(semi_axes) -> float:
    """Surface area of a triaxial ellipsoid (Legendre form)."""
    c, b, a = np.sort(np.asarray(semi_axes, dtype=float))  # a >= b >= c
    if (a - c) <= 1e-9 * a:
        r = (a + b + c) / 3.0
        return 4.0 * np.pi * r * r
    cos_phi = np.clip(c / a, -1.0, 1.0)
    phi = np.arccos(cos_phi)
    sin_phi = np.sin(phi)
    m = (a * a * (b * b - c * c)) / (b * b * (a * a - c * c))
    F = ellipkinc(phi, m)
    E = ellipeinc(phi, m)
    return float(2.0 * np.pi * c * c
                 + (2.0 * np.pi * a * b / sin_phi)
                 * (E * sin_phi ** 2 + F * cos_phi ** 2))


def fd_gradient(fun, q0, rel_step):
    """Central differences of ``fun`` (scalar or array valued) at ``q0``,
    the package's one finite-difference routine; entry or row i is the
    derivative along slot i, with step ``rel_step * (1 + |q0[i]|)``."""
    rows = []
    for i in range(len(q0)):
        h = rel_step * (1.0 + abs(q0[i]))
        qp, qm = q0.copy(), q0.copy()
        qp[i] += h
        qm[i] -= h
        rows.append((fun(qp) - fun(qm)) / (2.0 * h))
    return np.array(rows)


@dataclass(frozen=True)
class Measures:
    volume: float
    area: float
    d_volume_dm: np.ndarray
    d_area_dm: np.ndarray


def measures(shape: ShapeParams) -> Measures:
    """Volume, area and their packed parameter gradients.

    Sphere gradients are analytic.  Ellipsoid volume gradient is analytic
    ((4pi/3) det S against S^-1, off-diagonal slots doubled); the area
    gradient uses central differences with relative step 1e-5.
    """
    if isinstance(shape, SphereParams):
        r = shape.radius
        dvol = np.array([0.0, 0.0, 0.0, 4.0 * np.pi * r * r])
        darea = np.array([0.0, 0.0, 0.0, 8.0 * np.pi * r])
        return Measures(volume=4.0 * np.pi * r ** 3 / 3.0, area=4.0 * np.pi * r * r,
                        d_volume_dm=dvol, d_area_dm=darea)
    S = shape.shape_matrix
    det = np.linalg.det(S)
    Sinv = np.linalg.inv(S)
    vol = 4.0 * np.pi * det / 3.0
    dvol = np.zeros(9)
    for k, (i, j) in enumerate(_SYM_INDEX):
        dvol[3 + k] = vol * Sinv[i, j] * (1.0 if i == j else 2.0)

    def area_of(q):
        return _ellipsoid_area(EllipsoidParams.unpack(q).semi_axes())

    q0 = shape.pack()
    darea = np.zeros(9)
    darea[3:] = fd_gradient(lambda m: area_of(np.r_[q0[:3], m]), q0[3:], MEASURE_FD_STEP)
    return Measures(volume=vol, area=_ellipsoid_area(shape.semi_axes()),
                    d_volume_dm=dvol, d_area_dm=darea)


def volume_gradient(config: Configuration) -> np.ndarray:
    """Packed gradient of the total bubble volume (the cavity flux covector)."""
    return np.concatenate([measures(b).d_volume_dm for b in config.bubbles])


def volume_hessian(config: Configuration) -> np.ndarray:
    """Hessian of the total bubble volume, in closed form (block diagonal
    over bubbles): 8 pi r in a sphere's radius slot; for an ellipsoid, the
    rate of its gradient vol S^-1_ij (doubled off the diagonal) along slot
    E, vol (tr(S^-1 E) S^-1 - S^-1 E S^-1)_ij."""
    H = np.zeros((config.dim, config.dim))
    for b, sl in zip(config.bubbles, config.slices()):
        if isinstance(b, SphereParams):
            H[sl.start + 3, sl.start + 3] = 8.0 * np.pi * b.radius
            continue
        Sinv = np.linalg.inv(b.shape_matrix)
        vol = 4.0 * np.pi * np.linalg.det(b.shape_matrix) / 3.0
        for n, (k, l) in enumerate(_SYM_INDEX):
            E = np.zeros((3, 3))
            E[k, l] = E[l, k] = 1.0  # slot (k, l) moves S_kl and S_lk
            dgrad = vol * (np.trace(Sinv @ E) * Sinv - Sinv @ E @ Sinv)
            for m, (i, j) in enumerate(_SYM_INDEX):
                H[sl.start + 3 + m, sl.start + 3 + n] = dgrad[i, j] * (1.0 if i == j else 2.0)
    return 0.5 * (H + H.T)


@dataclass(frozen=True)
class ConstraintBasis:
    """Orthonormal basis of the admissible velocity subspace.

    Unbounded: the identity.  Cavity: the kernel of the volume-flux
    covector l(mdot) = sum_k dvol_k . mdot_k, built from the Householder
    reflection mapping l/|l| to -e_p (smooth on the admissible set because
    the last covector slot is always positive)."""

    matrix: np.ndarray          # (p, p) unbounded, (p, p - 1) in a cavity
    flux_covector: np.ndarray | None

    @property
    def constrained(self) -> bool:
        return self.flux_covector is not None


def constraint_basis(config: Configuration) -> ConstraintBasis:
    p = config.dim
    if not config.bounded:
        return ConstraintBasis(matrix=np.eye(p), flux_covector=None)
    ell = volume_gradient(config)
    norm = np.linalg.norm(ell)
    if norm < 1e-14:
        raise UnsupportedConfigurationError(
            "volume-flux covector vanishes; constrained dynamics undefined")
    u = ell / norm
    v = u.copy()
    v[-1] += 1.0
    H = np.eye(p) - 2.0 * np.outer(v, v) / (v @ v)
    return ConstraintBasis(matrix=H[:, :p - 1], flux_covector=ell)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class Violation:
    kind: str          # "overlap" | "outside-cavity"
    pair: tuple        # bubble indices, -1 for the wall
    gap: float


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    violations: tuple
    min_gap: float

    def __bool__(self):
        return self.ok


def _pair_gap(b1: ShapeParams, b2: ShapeParams, level: int = 2) -> float:
    """Lower bound on the surface-surface distance of two bubbles.

    Sphere-sphere is exact; any pair involving an ellipsoid uses mesh point
    clouds minus an edge-length safety margin (conservative: may flag
    near-misses, never misses an overlap by more than the margin)."""
    if isinstance(b1, SphereParams) and isinstance(b2, SphereParams):
        return float(np.linalg.norm(b1.center - b2.center) - b1.radius - b2.radius)
    m1 = surface_mesh(b1, level)
    m2 = surface_mesh(b2, level)
    d = np.linalg.norm(m1.quad_points[:, None, :] - m2.quad_points[None, :, :], axis=2)
    margin = m1.covering_radius() + m2.covering_radius()
    gap = float(d.min() - margin)
    # centers inside the other bubble mean full overlap regardless of clouds
    if _contains_point(b1, b2.center) or _contains_point(b2, b1.center):
        gap = min(gap, -max(b1.bounding_radius(), b2.bounding_radius()))
    return gap


def _contains_point(shape: ShapeParams, x) -> bool:
    if isinstance(shape, SphereParams):
        return bool(np.linalg.norm(x - shape.center) < shape.radius)
    y = np.linalg.solve(shape.shape_matrix, np.asarray(x) - shape.center)
    return bool(np.linalg.norm(y) < 1.0)


def _wall_gap(domain: Domain, bubble: ShapeParams, level: int = 2) -> float:
    """Lower bound on the bubble-wall clearance (negative if outside/touching)."""
    if isinstance(domain, CavitySphere):
        if isinstance(bubble, SphereParams):
            return float(domain.radius - np.linalg.norm(bubble.center - domain.center)
                         - bubble.radius)
        mesh = surface_mesh(bubble, level)
        d = np.linalg.norm(mesh.quad_points - domain.center, axis=1)
        return float(domain.radius - d.max())
    if isinstance(domain, CavityMesh):
        wall = wall_mesh(domain, level)
        mesh = surface_mesh(bubble, level)
        # inside test via winding: total wall solid angle from the center is
        # -4pi for interior points (inward normals)
        omega = _solid_angles_from(wall.vertices, wall.triangles,
                                   np.asarray(bubble.center, dtype=float)).sum()
        if omega > -2.0 * np.pi:
            return float(-bubble.bounding_radius())
        d = np.linalg.norm(wall.quad_points[:, None, :] - mesh.quad_points[None, :, :],
                           axis=2)
        return float(d.min() - wall.covering_radius() - mesh.covering_radius())
    return np.inf


def check_admissible(config: Configuration, level: int = 2) -> AdmissibilityReport:
    """Pairwise disjointness and cavity containment with reported gaps."""
    violations = []
    gaps = [np.inf]
    nb = config.n_bubbles
    for i in range(nb):
        for j in range(i + 1, nb):
            gap = _pair_gap(config.bubbles[i], config.bubbles[j], level)
            gaps.append(gap)
            if gap <= 0.0:
                violations.append(Violation(kind="overlap", pair=(i, j), gap=gap))
    if config.bounded:
        for i in range(nb):
            gap = _wall_gap(config.domain, config.bubbles[i], level)
            gaps.append(gap)
            if gap <= 0.0:
                violations.append(Violation(kind="outside-cavity", pair=(i, -1), gap=gap))
    return AdmissibilityReport(ok=not violations, violations=tuple(violations),
                               min_gap=float(min(gaps)))
