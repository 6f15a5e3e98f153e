"""Admissible bubble shape families (spheres, ellipsoids), their surface
meshes, normal-velocity covectors and geometric measures, and the basis of
the admissible (in a cavity, volume-preserving) velocities.

All meshes are affine images of one fixed reference icosphere per refinement
level, so the panel count and connectivity depend only on the level and
every derived quantity is a smooth function of the shape parameters, whose
rates the package takes in closed form.

Parameter packing convention (used throughout the package):
    sphere     -> (cx, cy, cz, r)                       4 slots
    ellipsoid  -> (cx, cy, cz, s11, s12, s13, s22, s23, s33)   9 slots
A velocity or acceleration is the packed vector of parameter rates in the
same slots.  An off-diagonal slot holds the matrix entry itself, so its
unit rate moves both (i, j) and (j, i) (SLOT_MATRICES), and the slot
gradient of a function of the matrix is slot_sum of its matrix gradient.

Adding a shape family means providing a params dataclass (dim, pack,
unpack, bounding_radius, validation in __post_init__) and branches in
surface_mesh (map the reference icosphere, supply on-surface quadrature
data), normal_velocity_basis, measures (volume, area and
their exact slot gradients) and volume_hessian; the Jacobian of the
equations of motion also needs the linear maps by which the family's
surface points move along its slots (slot_maps) and the rates of its
normals, patch weights and flat areas along them (potential._slot_motion).
Everything else downstream works on packed vectors and meshes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Union

import numpy as np

from .errors import DegenerateShapeError, UnsupportedConfigurationError

# eigenvalue ratio below which an ellipsoid matrix is rejected as degenerate
DEGENERACY_RATIO = 1e-10
# finest mesh level: of a reference icosphere, and of the mesh_level,
# wall_level and convergence levels a scenario may ask for
MAX_MESH_LEVEL = 6

# the slots (i, j), i <= j, of a symmetric 3x3 matrix, in packing order
SLOTS = np.array([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])
_SYM_ROWS, _SYM_COLS = SLOTS.T


def symmetric_matrix(slots) -> np.ndarray:
    """Symmetric 3x3 matrix from its six slots (s11, s12, s13, s22, s23, s33)."""
    M = np.empty((3, 3))
    M[_SYM_ROWS, _SYM_COLS] = slots
    M[_SYM_COLS, _SYM_ROWS] = slots
    return M


def symmetric_slots(M) -> np.ndarray:
    """The six slots (upper triangle) of a symmetric 3x3 matrix."""
    return np.asarray(M, dtype=float)[_SYM_ROWS, _SYM_COLS]


# the unit matrices E of the six slots: slot (i, j) moves S_ij and S_ji
SLOT_MATRICES = np.array([symmetric_matrix(e) for e in np.eye(6)])


def slot_sum(Q) -> np.ndarray:
    """The (..., 3, 3) tensors Q on the six slots, each off-diagonal entry
    plus its transpose, (..., 6): Q : T = slot_sum(Q) @ symmetric_slots(T)
    for a symmetric T, so slot_sum of a matrix gradient is the gradient
    in the slots."""
    k, l = _SYM_ROWS, _SYM_COLS
    return np.where(k == l, Q[..., k, l], Q[..., k, l] + Q[..., l, k])


def _cross(a, b):
    """a x b over the last axis, broadcast: the products and differences of
    np.cross (the same bits) without its axis handling."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


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
    if not 0 <= level <= MAX_MESH_LEVEL:
        raise ValueError(f"level must be in [0, {MAX_MESH_LEVEL}], got {level}")
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


class MeshSymmetry(NamedTuple):
    """A group of rotations that maps a mesh onto itself, and its action on
    the panels, all read-only.  Every panel j is
    perm[element[j], representatives[source[j]]]: one group element per
    panel, so that a row filled in from its orbit's representative comes
    from one fixed rotation where several carry the representative onto
    it (three on an orbit of 20 among 60 rotations)."""

    rotations: np.ndarray        # (G, 3, 3), the identity first
    perm: np.ndarray             # (G, N): rotation g carries panel i onto perm[g, i]
    representatives: np.ndarray  # (R,) one panel per orbit, its smallest
    element: np.ndarray          # (N,) the first g carrying its representative onto j
    source: np.ndarray           # (N,) index of j's representative in representatives


def _frames(u, v):
    """Right-handed orthonormal frames (..., 3, 3), by columns: u, the part
    of v normal to u, and their cross product."""
    e1 = u / np.linalg.norm(u, axis=-1, keepdims=True)
    e2 = v - np.sum(v * e1, axis=-1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)
    return np.stack([e1, e2, np.cross(e1, e2)], axis=-1)


@functools.lru_cache(maxsize=None)
def icosphere_symmetry(level: int) -> MeshSymmetry:
    """The 60 rotations of the icosahedral group, which map the reference
    icosphere of every level onto itself, and their action on its panels.

    Rotation g = 3 f + k carries corner 0 of face 0 onto corner k of face f
    and corner 1 onto corner k + 1, so it carries every face i onto some
    face f with corner 0 on corner s of f (the shift).  Subdivision keeps
    that action: the corner child k < 3 of i (the child at i's corner k)
    goes onto child (k + s) mod 3 of f, the centre child onto f's, each
    with the same shift."""
    verts, faces = reference_icosphere(0)
    edges = verts[faces], verts[faces[:, [1, 2, 0]]]
    frames = _frames(*(e.reshape(-1, 3) for e in edges))
    rotations = frames @ frames[0].T
    rotations[0] = np.eye(3)
    vertex = np.argmax(verts @ rotations.transpose(0, 2, 1) @ verts.T, axis=2)
    image = vertex[:, faces]                          # (60, 20, 3)
    keys = (1 << faces).sum(axis=1)                   # a face by its corner set
    order = np.argsort(keys)
    perm = order[np.searchsorted(keys[order], (1 << image).sum(axis=2))]
    shift = np.argmax(faces[perm] == image[..., :1], axis=2)
    child = np.arange(4)
    for _ in range(level):
        moved = np.where(child < 3, (child + shift[..., None]) % 3, 3)
        perm = (4 * perm[..., None] + moved).reshape(len(perm), -1)
        shift = np.repeat(shift, 4, axis=1)
    orbit_min = perm.min(axis=0)
    reps, source = np.unique(orbit_min, return_inverse=True)
    element = np.argmax(perm[:, orbit_min] == np.arange(perm.shape[1]), axis=0)
    arrays = (rotations, perm, reps, element, source)
    for a in arrays:
        a.setflags(write=False)
    return MeshSymmetry(*arrays)


# ---------------------------------------------------------------------------
# shape parameters


def _validate_ball(ball, name):
    """Coerce a ball's ``center`` and ``radius`` (a frozen dataclass's) to
    floats; a DegenerateShapeError, its message led by ``name``, unless the
    centre is a finite 3-vector and the radius finite and > 0."""
    object.__setattr__(ball, "center", np.asarray(ball.center, dtype=float))
    object.__setattr__(ball, "radius", float(ball.radius))
    if ball.center.shape != (3,) or not np.isfinite(ball.center).all():
        raise DegenerateShapeError(f"{name} center must be a finite 3-vector")
    if not np.isfinite(ball.radius) or ball.radius <= 0.0:
        raise DegenerateShapeError(f"{name} radius must be > 0, got {ball.radius}")


@dataclass(frozen=True)
class SphereParams:
    """Sphere of radius ``radius`` centred at ``center``."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        _validate_ball(self, "sphere")

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
        if (self.center.shape != (3,) or S.shape != (3, 3)
                or not (np.isfinite(self.center).all() and np.isfinite(S).all())):
            raise DegenerateShapeError("ellipsoid needs finite 3-vector center and 3x3 matrix")
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
        return np.concatenate([self.center, symmetric_slots(self.shape_matrix)])

    @staticmethod
    def unpack(q) -> "EllipsoidParams":
        q = np.asarray(q, dtype=float)
        return EllipsoidParams(center=q[:3], shape_matrix=symmetric_matrix(q[3:]))

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """S^-1, computed on first use and kept."""
        return np.linalg.inv(self.shape_matrix)

    def semi_axes(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.shape_matrix)

    def bounding_radius(self) -> float:
        return float(self.semi_axes()[-1])


ShapeParams = Union[SphereParams, EllipsoidParams]


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
        _validate_ball(self, "cavity")


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


# ---------------------------------------------------------------------------
# surface meshes


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated bubble or wall surface with solver quadrature data.

    ``centroid``/``area``/``normal`` describe the flat triangles; they are
    computed from ``vertices`` and ``triangles`` on first read and kept,
    since the solver reads them of some meshes only.  The quadrature
    fields hold the on-surface collocation points, true surface
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
    quad_points: np.ndarray
    quad_normals: np.ndarray
    quad_weights: np.ndarray
    level: int
    closure: float
    shape: ShapeParams | Domain

    @property
    def n_panels(self) -> int:
        return len(self.triangles)

    @functools.cached_property
    def _flat(self):
        # threads reading it at once may each compute it: equal data
        return _flat_data(self.vertices, self.triangles)

    centroid = property(lambda self: self._flat[0])
    area = property(lambda self: self._flat[1])
    normal = property(lambda self: self._flat[2])

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
    cross = _cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(cross, axis=1)
    return (p0 + p1 + p2) / 3.0, 0.5 * two_area, cross / two_area[:, None]


def surface_mesh(shape: ShapeParams, level: int) -> SurfaceMesh:
    """Mesh of a bubble surface: the reference icosphere mapped by the shape.

    Vertex count depends only on ``level``; vertices land exactly on the
    analytic surface, quadrature weights are exact spherical patch measures
    pushed forward by the shape map.
    """
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
        sinv_y = ydir @ shape.inverse.T
        nrm_len = np.linalg.norm(sinv_y, axis=1)
        qnrm = sinv_y / nrm_len[:, None]
        qw = omega * np.linalg.det(S) * nrm_len
    else:
        raise TypeError(f"unsupported shape family: {type(shape).__name__}")
    return SurfaceMesh(vertices=verts, triangles=ref_faces, quad_points=qpts,
                       quad_normals=qnrm, quad_weights=qw, level=level, closure=0.5,
                       shape=shape)


def wall_mesh(domain: Domain, level: int) -> SurfaceMesh:
    """Cavity wall mesh with normals pointing into the fluid, closure -1/2
    and ``shape`` the domain.  A spherical wall is the mesh of the sphere
    it bounds (surface_mesh) reversed: the same vertices, points and
    weights, with its triangles' orientation and its normals flipped to
    point inward.  An ingested wall (CavityMesh, level -1) takes its flat
    triangles as panels, oriented toward the interior."""
    if isinstance(domain, CavitySphere):
        m = surface_mesh(SphereParams(center=domain.center, radius=domain.radius), level)
        return replace(m, triangles=m.triangles[:, [0, 2, 1]], quad_normals=-m.quad_normals,
                       closure=-0.5, shape=domain)
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
        return SurfaceMesh(vertices=verts, triangles=faces, quad_points=centroid,
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


def normal_velocity(shape: ShapeParams, mdot, x, n):
    """Normal speed of the surface point ``x`` induced by the packed
    parameter velocity ``mdot``: c'.n + r' for spheres, c'.n + S' S^-1
    (x-c).n for ellipsoids, S' = symmetric_matrix(mdot[3:]).  Accepts
    single points or (M, 3) arrays."""
    out = normal_velocity_basis(shape, x, n) @ mdot
    return out[0] if np.ndim(x) == 1 else out


def normal_velocity_basis(shape: ShapeParams, x, n) -> np.ndarray:
    """(M, dim) matrix whose column j is the normal velocity at the points
    ``x`` (normals ``n``) of the unit parameter rate e_j, which
    normal_velocity contracts with a packed velocity; (..., M, dim) for
    normals (..., M, 3), several at each point."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    if isinstance(shape, SphereParams):
        return np.concatenate([n, np.ones(n.shape[:-1] + (1,))], axis=-1)
    u = (x - shape.center) @ shape.inverse.T
    # the normal speed along a matrix rate E is n . E u = (n u^T) : E
    return np.concatenate([n, slot_sum(n[..., :, None] * u[:, None, :])], axis=-1)


def slot_maps(shape: ShapeParams) -> np.ndarray:
    """The linear maps G (n, 3, 3), one per slot after the centre's, by
    which every point x of the surface of ``shape`` moves, at G (x - c),
    along that slot's unit rate: a sphere's radius scales it about its
    centre, G = I / r, and an ellipsoid's slot E takes S to S + E with the
    reference direction S^-1 (x - c) fixed, G = E S^-1."""
    if isinstance(shape, SphereParams):
        return np.eye(3)[None] / shape.radius
    return SLOT_MATRICES @ shape.inverse


# ---------------------------------------------------------------------------
# measures


def _carlson_rf_rd(x, y, z):
    """Carlson's symmetric elliptic integrals R_F(x, y, z) and R_D(x, y, z)
    for x, y, z > 0 (Carlson, Numer. Algorithms 10, 1995).  One duplication
    sequence serves both; once the arguments agree to 1e-3 relative, each
    is summed by its fifth-order Taylor series, whose truncation error is
    then below 1e-18.  Scalar work on Python floats."""
    x, y, z = float(x), float(y), float(z)
    tail, weight = 0.0, 1.0
    while max(x, y, z) - min(x, y, z) > 1e-3 * min(x, y, z):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        tail += weight / (sz * (z + lam))
        weight /= 4.0
        x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
    mean = (x + y + z) / 3.0
    X, Y = 1.0 - x / mean, 1.0 - y / mean
    Z = -X - Y
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(mean)
    mean = (x + y + 3.0 * z) / 5.0
    X, Y = 1.0 - x / mean, 1.0 - y / mean
    Z = -(X + Y) / 3.0
    e2, e3 = X * Y - 6.0 * Z * Z, (3.0 * X * Y - 8.0 * Z * Z) * Z
    e4, e5 = 3.0 * (X * Y - Z * Z) * Z * Z, X * Y * Z ** 3
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, 3.0 * tail + weight * series / (mean * math.sqrt(mean))


def _ellipsoid_area(semi_axes) -> float:
    """Surface area of an ellipsoid, 4 pi abc R_G(a^-2, b^-2, c^-2), with
    2 R_G(x, y, z) = z R_F - (x - z)(y - z) R_D / 3 + sqrt(xy / z) (DLMF
    19.21.10) and z the middle argument, so that no term is negative."""
    a, b, c = sorted(map(float, semi_axes))
    x, z, y = 1.0 / (a * a), 1.0 / (b * b), 1.0 / (c * c)
    rf, rd = _carlson_rf_rd(x, y, z)
    rg = 0.5 * (z * rf - (x - z) * (y - z) * rd / 3.0 + math.sqrt(x * y / z))
    return 4.0 * math.pi * a * b * c * rg


def _ellipsoid_area_gradient(semi_axes) -> np.ndarray:
    """Partial derivatives dA/da_i of _ellipsoid_area in the semi-axes,
    (2 pi / 3) a_j a_k (u_j (d_i + d_k) + u_k (d_i + d_j)) over the cyclic
    (i, j, k), with u = a^-2 and d_m = u_m R_D(u_n, u_p, u_m) (DLMF
    19.21.12): a sum of positive terms, so thin ellipsoids lose nothing to
    cancellation."""
    a = np.asarray(semi_axes, dtype=float)
    u = 1.0 / (a * a)
    d = np.array([u[m] * _carlson_rf_rd(u[m - 2], u[m - 1], u[m])[1] for m in range(3)])
    j, k = [1, 2, 0], [2, 0, 1]
    return 2.0 * np.pi / 3.0 * a[j] * a[k] * (u[j] * (d + d[k]) + u[k] * (d + d[j]))


@dataclass(frozen=True)
class Measures:
    volume: float
    area: float
    d_volume_dm: np.ndarray
    d_area_dm: np.ndarray


def measures(shape: ShapeParams) -> Measures:
    """Volume, area and their packed parameter gradients, all in closed
    form.  An ellipsoid's volume (4 pi / 3) det S has the matrix gradient
    vol S^-1; its area, a function of the semi-axes (the eigenvalues of S,
    S = V diag(a) V^T), has V diag(dA/da) V^T; slot_sum takes each to the
    slots.
    """
    if isinstance(shape, SphereParams):
        r = shape.radius
        dvol = np.array([0.0, 0.0, 0.0, 4.0 * np.pi * r * r])
        darea = np.array([0.0, 0.0, 0.0, 8.0 * np.pi * r])
        return Measures(volume=4.0 * np.pi * r ** 3 / 3.0, area=4.0 * np.pi * r * r,
                        d_volume_dm=dvol, d_area_dm=darea)
    S = shape.shape_matrix
    vol = 4.0 * np.pi * np.linalg.det(S) / 3.0
    a, V = np.linalg.eigh(S)
    dvol = np.concatenate([np.zeros(3), slot_sum(vol * shape.inverse)])
    darea = np.concatenate([np.zeros(3), slot_sum((V * _ellipsoid_area_gradient(a)) @ V.T)])
    return Measures(volume=vol, area=_ellipsoid_area(a), d_volume_dm=dvol, d_area_dm=darea)


def volume_gradient(config: Configuration) -> np.ndarray:
    """Packed gradient of the total bubble volume (the cavity flux covector)."""
    return np.concatenate([measures(b).d_volume_dm for b in config.bubbles])


def volume_hessian(config: Configuration) -> np.ndarray:
    """Hessian of the total bubble volume, in closed form (block diagonal
    over bubbles): 8 pi r in a sphere's radius slot; for an ellipsoid, the
    slot_sum of the rate of its matrix gradient vol S^-1 along each slot
    matrix E, vol (tr(S^-1 E) S^-1 - S^-1 E S^-1)."""
    H = np.zeros((config.dim, config.dim))
    for b, sl in zip(config.bubbles, config.slices()):
        if isinstance(b, SphereParams):
            H[sl.start + 3, sl.start + 3] = 8.0 * np.pi * b.radius
            continue
        Sinv = b.inverse
        vol = 4.0 * np.pi * np.linalg.det(b.shape_matrix) / 3.0
        SE = Sinv @ SLOT_MATRICES
        dgrad = vol * (np.trace(SE, axis1=1, axis2=2)[:, None, None] * Sinv - SE @ Sinv)
        rows = slice(sl.start + 3, sl.stop)
        H[rows, rows] = slot_sum(dgrad).T
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
    """Lower bound on the bubble-wall clearance (negative if outside/touching),
    exact for a sphere."""
    if isinstance(domain, CavitySphere):
        if isinstance(bubble, SphereParams):
            return float(domain.radius - np.linalg.norm(bubble.center - domain.center)
                         - bubble.radius)
        mesh = surface_mesh(bubble, level)
        d = np.linalg.norm(mesh.quad_points - domain.center, axis=1)
        return float(domain.radius - d.max() - mesh.covering_radius())
    if isinstance(domain, CavityMesh):
        wall = wall_mesh(domain, level)
        # inside test via winding: total wall solid angle from the center is
        # -4pi for interior points (inward normals)
        omega = _solid_angles_from(wall.vertices, wall.triangles,
                                   np.asarray(bubble.center, dtype=float)).sum()
        if omega > -2.0 * np.pi:
            return float(-bubble.bounding_radius())
        # the wall's flat triangles are its exact surface
        if isinstance(bubble, SphereParams):
            return _triangle_distance(bubble.center[None], wall) - bubble.radius
        mesh = surface_mesh(bubble, level)
        return _triangle_distance(mesh.quad_points, wall) - mesh.covering_radius()
    return np.inf


def _triangle_distance(x, mesh: SurfaceMesh) -> float:
    """Distance from the points ``x`` (M, 3) to the nearest flat triangle
    of ``mesh``: to a triangle's plane where a point's foot lies inside it,
    else to the triangle's nearest edge.  Every (M, T) term is a
    point-triangle product, as in the panel integrals."""
    corners, n = mesh.triangle_corners(), mesh.normal
    xx = np.einsum('mk,mk->m', x, x)[:, None]
    inside = np.ones((len(x), len(n)), dtype=bool)
    edge_sq = np.full(inside.shape, np.inf)
    for a, b in zip(corners, corners[1:] + corners[:1]):
        e, m = b - a, _cross(n, b - a)      # m: in-plane, into the triangle
        along = x @ e.T - np.einsum('tk,tk->t', a, e)          # (x - a).e
        ee = np.einsum('tk,tk->t', e, e)
        t = np.clip(along / ee, 0.0, 1.0)
        # |x - a - t e|^2 = |x - a|^2 - t (2 (x - a).e - t |e|^2)
        sq = xx - 2.0 * (x @ a.T) + np.einsum('tk,tk->t', a, a) - t * (2.0 * along - t * ee)
        edge_sq = np.minimum(edge_sq, sq)
        inside &= x @ m.T >= np.einsum('tk,tk->t', a, m)
    plane = np.abs(x @ n.T - np.einsum('tk,tk->t', corners[0], n))
    return float(np.where(inside, plane, np.sqrt(np.maximum(edge_sq, 0.0))).min())


def surface_gaps(config: Configuration, level: int = 2):
    """Yield (pair, gap) for every bubble pair (i, j), i < j, then, in a
    cavity, for every bubble and the wall, pair (i, -1)."""
    nb = config.n_bubbles
    for i in range(nb):
        for j in range(i + 1, nb):
            yield (i, j), _pair_gap(config.bubbles[i], config.bubbles[j], level)
    if config.bounded:
        for i in range(nb):
            yield (i, -1), _wall_gap(config.domain, config.bubbles[i], level)


def check_admissible(config: Configuration, level: int = 2) -> AdmissibilityReport:
    """Pairwise disjointness and cavity containment with reported gaps."""
    violations = []
    gaps = [np.inf]
    for pair, gap in surface_gaps(config, level):
        gaps.append(gap)
        if gap <= 0.0:
            kind = "outside-cavity" if pair[1] == -1 else "overlap"
            violations.append(Violation(kind=kind, pair=pair, gap=gap))
    return AdmissibilityReport(ok=not violations, violations=tuple(violations),
                               min_gap=float(min(gaps)))
