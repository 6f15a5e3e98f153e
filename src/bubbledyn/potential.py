"""Single-layer boundary-element solver for the exterior (or cavity)
Laplace Neumann problems, and the added-mass Gram matrix built from the
basis potentials.

Discretization.  Collocation points sit on the true surfaces (spherical
patch quadrature pushed through the shape map), with exact patch weights.
The double-layer matrix uses the exact flat-panel integral, which for a
constant density is the panel's signed solid angle; its own-surface
diagonal is closed through the Gauss identity (row sum +1/2 on a bubble,
-1/2 on a cavity wall), so the constant-density mode is reproduced
exactly.  The adjoint double-layer operator K' with kernel d/dn(x) G(x,y),
G = -1/(4 pi |x-y|), is discretized through its adjointness with respect
to the weighted surface inner product, K'_ij = w_j K_ji / w_i.  The
single-layer matrix uses the exact flat-panel integral (edge logs plus
solid angle) scaled by the patch/flat measure ratio; the self term is the
analytic flat-triangle formula.

The exterior Neumann condition, with all normals pointing into the fluid,
becomes the second-kind collocation system

    (1/2 I + K') q = g,

whose solution for the unit-sphere monopole (g = 1) is the exact constant
density q = 1 with boundary potential -1.  In a bounded cavity the system
is structurally rank-deficient by one (the equilibrium density); the data
is shifted to exact discrete compatibility before the solve, which keeps
the LU solution's spurious component invisible to all boundary
functionals.

Block structure.  The surfaces (bubbles, then the wall) split both
matrices into blocks.  Block (a, b) of S holds the integrals from the
points of surface a over the panels of surface b; block (a, b) of
1/2 I + K' is the weighted transpose of the double-layer integrals from
the points of b over the panels of a.  Either block depends on surfaces a
and b alone, so the assembly is built block by block and a block is
reused wherever it is exactly the same:

* Own-surface blocks are invariant under translation, and under scaling
  except for S, which scales with the length.  A sphere's (or spherical
  wall's) self-blocks are therefore those of the unit sphere of the same
  level and orientation, with S times the radius; the unit pair is
  computed once per (level, orientation) and kept read-only.
* A configuration that differs from an assembled base in some bubbles (an
  FD side of the added-mass Jacobian moves one) copies the base and
  recomputes only the rows and columns of those bubbles, and not even
  their self-blocks when they only translated.  Blocks between unchanged
  surfaces, the wall-wall block among them, are never rebuilt.
* A lone sphere's 1/2 I + K' is the unit sphere's block itself, so its LU
  factorization is kept with the unit pair and serves every lone sphere
  of the level: one factorization per level in a one-sphere run.

Every block integrates over the panels of one surface, and the terms of
the flat-panel integrals that depend on those panels alone (corner dots
and crosses, unit normals, edge lengths and in-plane edge normals) are
computed once per surface, when its PanelGeometry is built, leaving point-
panel products to each block.  An assembly keeps one PanelGeometry per
surface; a configuration assembled from a base takes the mesh and the
PanelGeometry of every unchanged surface from it, so an FD side builds
both only for the bubble it moves.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (BubbleDynError, CompatibilityError, DegenerateShapeError,
                     DiscretizationError, IllPosedProblemError)
from .shapes import (CavityMesh, CavitySphere, Configuration, EllipsoidParams,
                     SphereParams, config_from_params, normal_velocity_basis,
                     pack_params, surface_mesh, wall_mesh)

# relative FD step for the added-mass parameter Jacobian
JACOBIAN_FD_STEP = 1e-4
# relative net-flux threshold for the cavity compatibility check
FLUX_TOLERANCE = 1e-8
_ROW_BLOCK = 2048


def thread_count() -> int:
    """Worker cap from BUBBLEDYN_THREADS (default 1, sequential).  Jacobian
    columns are independent and evaluated on a thread pool when the cap
    allows; the heavy kernels (BLAS, LAPACK, ufuncs) release the GIL.
    Anything but an integer >= 1 raises BubbleDynError."""
    raw = os.environ.get("BUBBLEDYN_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise BubbleDynError(f"BUBBLEDYN_THREADS must be an integer >= 1, got {raw!r}")
    return n


def _map_workers(fn, items):
    """Map preserving order, threaded when BUBBLEDYN_THREADS > 1."""
    n = min(thread_count(), len(items))
    if n <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# panel data and panel integrals


def _frozen(a):
    """Read-only view of ``a``."""
    view = np.asarray(a).view()
    view.flags.writeable = False
    return view


# fields of PanelGeometry that hold one entry per panel, with the panel axis
_PER_PANEL = {"points": 0, "normals": 0, "weights": 0, "lift": 0, "corners": 1,
              "corner_sq": 1, "corner_dots": 1, "detv": 0, "cross_sum": 0,
              "unit_normal": 0, "plane_offset": 0, "edge_length": 1,
              "edge_normal": 1, "edge_offset": 1}


@dataclass(frozen=True)
class PanelGeometry:
    """Panel data of one or more surfaces: the collocation quadrature and
    every term of the flat-panel integrals that depends on the panels
    alone.  Built eagerly and read-only; a multi-surface geometry is the
    concatenation of its surfaces' (see join_panels)."""

    meshes: tuple
    points: np.ndarray        # (N, 3) collocation points on the true surfaces
    normals: np.ndarray       # (N, 3) surface normals, into the fluid
    weights: np.ndarray       # (N,) patch quadrature weights
    lift: np.ndarray          # patch weight / flat triangle area
    corners: np.ndarray       # (3, N, 3) corners p0, p1, p2
    corner_sq: np.ndarray     # (3, N) |p_i|^2
    corner_dots: np.ndarray   # (3, N) p0.p1, p1.p2, p2.p0
    detv: np.ndarray          # (N,) p0 . (p1 x p2)
    cross_sum: np.ndarray     # (N, 3) p1 x p2 + p2 x p0 + p0 x p1
    unit_normal: np.ndarray   # (N, 3) flat-panel unit normal nh
    plane_offset: np.ndarray  # (N,) p0 . nh
    edge_length: np.ndarray   # (3, N) lengths of edges p0p1, p1p2, p2p0
    edge_normal: np.ndarray   # (3, N, 3) in-plane edge normals mhat = eh x nh
    edge_offset: np.ndarray   # (3, N) a . mhat, a the edge's first corner
    offsets: np.ndarray       # surface block offsets, len(meshes) + 1
    closures: np.ndarray      # per-surface Gauss row-sum values
    bounded: bool

    @property
    def n_panels(self) -> int:
        return len(self.weights)

    def block(self, k) -> slice:
        return slice(self.offsets[k], self.offsets[k + 1])


def _cross(a, b):
    """a x b over the last axis, broadcast: the products and differences of
    np.cross (the same bits) without its axis handling."""
    return np.stack([a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1],
                     a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2],
                     a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]], axis=-1)


def _dot(u, v):
    return np.einsum('...k,...k->...', u, v)


def surface_panels(mesh) -> PanelGeometry:
    """Panel data of one surface."""
    corners = np.stack(mesh.triangle_corners())
    ends = corners[[1, 2, 0]]          # edges p0p1, p1p2, p2p0 run corners -> ends
    p0, p1, p2 = corners
    cross12 = _cross(p1 - p0, p2 - p0)
    nh = cross12 / np.linalg.norm(cross12, axis=1)[:, None]
    c01, c12, c20 = _cross(corners, ends)
    edges = ends - corners
    length = np.linalg.norm(edges, axis=2)
    mhat = _cross(edges / length[:, :, None], nh)
    arrays = dict(
        points=mesh.quad_points, normals=mesh.quad_normals, weights=mesh.quad_weights,
        lift=mesh.quad_weights / mesh.area, corners=corners,
        corner_sq=_dot(corners, corners), corner_dots=_dot(corners, ends),
        detv=_dot(p0, c12), cross_sum=c12 + c20 + c01, unit_normal=nh,
        plane_offset=_dot(p0, nh), edge_length=length, edge_normal=mhat,
        edge_offset=_dot(corners, mhat))
    return PanelGeometry(meshes=(mesh,), offsets=_frozen([0, mesh.n_panels]),
                         closures=_frozen([mesh.closure]), bounded=mesh.closure < 0,
                         **{k: _frozen(v) for k, v in arrays.items()})


def join_panels(parts) -> PanelGeometry:
    """Concatenation of per-surface panel data, in surface order."""
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    arrays = {name: _frozen(np.concatenate([getattr(p, name) for p in parts], axis=axis))
              for name, axis in _PER_PANEL.items()}
    return PanelGeometry(meshes=sum((p.meshes for p in parts), ()),
                         offsets=_frozen(np.cumsum([0] + [p.n_panels for p in parts])),
                         closures=_frozen(np.concatenate([p.closures for p in parts])),
                         bounded=any(p.bounded for p in parts), **arrays)


def _panel_blocks(x, geom: PanelGeometry, want_single, want_double, density=None):
    """Exact flat-panel integrals from points ``x`` over all panels.

    Returns (S, K, grad) where S holds integrals of G = -1/(4 pi |x-y|)
    (lifted to the patch measure), K integrals of the double-layer kernel
    d/dn(y) G (the signed solid angle / 4 pi, lifted), and grad, when a
    ``density`` is given, the x-gradient of the single-layer potential
    S @ density, contracted with the density panel by panel so that no
    (M, N, 3) tensor is formed.  Unwanted outputs are None.  The
    panel-only terms come precomputed with ``geom``; what is left is
    point-panel products and elementwise work.
    """
    p0, p1, p2 = geom.corners
    x = np.asarray(x, dtype=float)
    M, N = len(x), geom.n_panels
    xx = np.einsum('mk,mk->m', x, x)[:, None]
    xv0, xv1, xv2 = x @ p0.T, x @ p1.T, x @ p2.T
    q0, q1, q2 = geom.corner_sq
    l0 = np.sqrt(np.maximum(xx - 2 * xv0 + q0[None], 0.0))
    l1 = np.sqrt(np.maximum(xx - 2 * xv1 + q1[None], 0.0))
    l2 = np.sqrt(np.maximum(xx - 2 * xv2 + q2[None], 0.0))

    # signed solid angle (van Oosterom-Strackee, expanded so that only
    # point-panel GEMMs appear)
    num = geom.detv[None] - x @ geom.cross_sum.T
    c01, c12, c20 = geom.corner_dots
    d01 = c01[None] - xv0 - xv1 + xx
    d12 = c12[None] - xv1 - xv2 + xx
    d20 = c20[None] - xv2 - xv0 + xx
    den = l0 * l1 * l2 + d01 * l2 + d12 * l0 + d20 * l1
    omega = 2.0 * np.arctan2(num, den)

    K = omega * (geom.lift[None] / (4.0 * np.pi)) if want_double else None

    S = grad = None
    if want_single or density is not None:
        nh = geom.unit_normal
        if want_single:
            I = np.zeros((M, N))
        if density is not None:
            # grad_x of the panel integral is omega nh - sum_e L_e mhat_e;
            # c carries the density and the lifted kernel constant
            c = (np.asarray(density, dtype=float) * (-geom.lift / (4.0 * np.pi)))[:, None]
            grad = omega @ (c * nh)
        for (la, lb), le, mhat, am in zip(((l0, l1), (l1, l2), (l2, l0)), geom.edge_length,
                                          geom.edge_normal, geom.edge_offset):
            # stable symmetric form of the edge log integral of 1/|x-y|
            ssum = la + lb
            L = np.log((ssum + le[None]) / np.maximum(ssum - le[None], 1e-300))
            if want_single:
                d = x @ mhat.T - am[None]
                I -= d * L
            if density is not None:
                grad -= L @ (c * mhat)
        if want_single:
            h = x @ nh.T - geom.plane_offset[None]
            I += h * omega
            S = I * (-geom.lift[None] / (4.0 * np.pi))
    return S, K, grad


def _blocked(x, geom, **kw):
    """Row-blocked wrapper around _panel_blocks to bound peak memory."""
    M = len(x)
    if M <= _ROW_BLOCK:
        return _panel_blocks(x, geom, **kw)
    outs = [_panel_blocks(x[i:i + _ROW_BLOCK], geom, **kw)
            for i in range(0, M, _ROW_BLOCK)]
    return tuple(None if parts[0] is None else np.concatenate(parts)
                 for parts in zip(*outs))


def _self_blocks(panels: PanelGeometry):
    """Own-surface blocks (1/2 I + K', S) of one surface, from its panel
    data.

    The double-layer block uses the point kernel (whose weighted transpose
    collapses to the plain adjoint kernel and preserves the sphere's
    constant-density mode exactly), its diagonal closed by the Gauss row
    identity.
    """
    S, _, _ = _blocked(panels.points, panels, want_single=True, want_double=False)
    pts, w = panels.points, panels.weights
    dx = pts[:, None, :] - pts[None, :, :]
    r = np.linalg.norm(dx, axis=2)
    np.fill_diagonal(r, 1.0)
    K = np.einsum('ijk,jk->ij', -dx, panels.normals) / (4.0 * np.pi * r ** 3)
    K *= w[None, :]
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, panels.meshes[0].closure - K.sum(axis=1))
    A = K.T * (w[None, :] / w[:, None])
    A[np.diag_indices_from(A)] += 0.5
    return A, S


class _Factorization:
    """LU factorization of a collocation matrix with the matrix's 1-norm;
    the reciprocal condition estimate is computed on first request and
    kept.  The LU arrays are read-only."""

    def __init__(self, A):
        try:
            lu, piv = sla.lu_factor(A, check_finite=False)
        except (ValueError, sla.LinAlgError) as exc:
            raise IllPosedProblemError(f"collocation matrix factorization failed: {exc}")
        lu.setflags(write=False)
        piv.setflags(write=False)
        self.lu = (lu, piv)
        self.anorm = np.abs(A).sum(axis=0).max()
        self._rcond = None

    def rcond(self) -> float:
        # threads asking at once may each compute it: the same value
        if self._rcond is None:
            gecon = sla.get_lapack_funcs(("gecon",), (self.lu[0],))[0]
            rc, _ = gecon(self.lu[0], self.anorm, norm="1")
            self._rcond = float(rc)
        return self._rcond


class _UnitSphere:
    """Read-only self-blocks (A, S) of the unit sphere at the origin at one
    level and orientation, and the factorization of A, built on first use.
    A lone sphere's collocation matrix is this A itself."""

    def __init__(self, level: int, wall: bool):
        unit = (wall_mesh(CavitySphere(center=np.zeros(3), radius=1.0), level) if wall
                else surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level))
        self.A, self.S = _self_blocks(surface_panels(unit))
        self.A.setflags(write=False)
        self.S.setflags(write=False)
        self._lu = None

    def factorization(self) -> _Factorization:
        with _UNIT_SPHERE_LOCK:
            if self._lu is None:
                self._lu = _Factorization(self.A)
        return self._lu


_UNIT_SPHERE_BLOCKS = {}
_UNIT_SPHERE_LOCK = threading.Lock()


def _unit_sphere_blocks(level: int, wall: bool) -> _UnitSphere:
    """The unit sphere's blocks, oriented as a bubble or (``wall``) as a
    cavity wall; built on first use, one per (level, orientation) and
    process."""
    key = (level, wall)
    with _UNIT_SPHERE_LOCK:
        unit = _UNIT_SPHERE_BLOCKS.get(key)
        if unit is None:
            unit = _UNIT_SPHERE_BLOCKS[key] = _UnitSphere(level, wall)
    return unit


def _change(old, new) -> str:
    """How surface ``new`` differs from ``old``: 'same', 'moved' (a bubble
    translated, shape unchanged) or 'changed'.  None stands for a surface
    of unknown shape and always counts as changed."""
    if old is None or new is None:
        return "changed"
    if old is new:
        return "same"
    if type(old) is type(new) and isinstance(old, (SphereParams, EllipsoidParams)):
        a, b = old.pack(), new.pack()
        if np.array_equal(a[3:], b[3:]):
            return "same" if np.array_equal(a[:3], b[:3]) else "moved"
    return "changed"


class _Assembly:
    """Collocation system of one set of surfaces: the matrices
    (1/2 I + K', S), built block by block, the panel data of each surface,
    and the LU factorization of 1/2 I + K', built by the first solve.

    ``surfaces`` names the shape behind each mesh (bubble parameters, the
    cavity domain, or None when unknown).  With ``base``, an assembly of
    the same surfaces at the same levels at another configuration, a
    surface that did not change keeps the base's mesh and panel data (the
    mesh passed for it is not used), the blocks between such surfaces are
    copied, and only the rows and columns of changed surfaces are
    recomputed; a bubble that only moved keeps its self-blocks.

    A lone sphere (one surface, a spherical bubble) is its unit sphere's
    self-blocks: A is the cached unit-sphere A itself, S is r S_unit, and
    the factorization is the one the cache keeps for that A, so a run
    factors it once per level.  Its panel data, which no block reads, is
    built only on request.  Everything is read-only once built.
    """

    def __init__(self, meshes, surfaces=None, base=None):
        meshes = tuple(meshes)
        n = len(meshes)
        self.surfaces = tuple(surfaces) if surfaces is not None else (None,) * n
        if base is None:
            changes = ["changed"] * n
        else:
            changes = [_change(old, new) for old, new in zip(base.surfaces, self.surfaces)]
        self.meshes = tuple(base.meshes[k] if changes[k] == "same" else meshes[k]
                            for k in range(n))
        self.bounded = any(m.closure < 0 for m in self.meshes)
        self.weights = np.concatenate([m.quad_weights for m in self.meshes])
        self._lu = None
        self._unit = None
        self._panels = self._geom = None
        if n == 1 and isinstance(self.surfaces[0], SphereParams):
            self._unit = _unit_sphere_blocks(self.meshes[0].level, False)
            self.A = self._unit.A
            self.S = self.surfaces[0].radius * self._unit.S
            self.S.setflags(write=False)
            return
        self._panels = parts = tuple(base.panels[k] if changes[k] == "same"
                                     else surface_panels(meshes[k]) for k in range(n))
        offsets = np.cumsum([0] + [m.n_panels for m in self.meshes])
        blocks = [slice(offsets[k], offsets[k + 1]) for k in range(n)]
        if base is None:
            A = np.empty((offsets[-1], offsets[-1]))
            S = np.empty_like(A)
        else:
            A, S = base.A.copy(), base.S.copy()
        for a in range(n):
            for b in range(n):
                if a == b or (changes[a] == "same" and changes[b] == "same"):
                    continue
                # points of a over panels of b: S block (a, b), and the
                # double-layer integrals whose weighted transpose is block (b, a)
                S_ab, K_ab, _ = _blocked(parts[a].points, parts[b],
                                         want_single=True, want_double=True)
                S[blocks[a], blocks[b]] = S_ab
                A[blocks[b], blocks[a]] = (
                    K_ab.T * (parts[a].weights[None, :] / parts[b].weights[:, None]))
        for k in range(n):
            if changes[k] != "changed":
                continue
            blk = blocks[k]
            shape = self.surfaces[k]
            if isinstance(shape, (SphereParams, CavitySphere)):
                unit = _unit_sphere_blocks(self.meshes[k].level,
                                           isinstance(shape, CavitySphere))
                A[blk, blk] = unit.A
                S[blk, blk] = shape.radius * unit.S
            else:
                A[blk, blk], S[blk, blk] = _self_blocks(parts[k])
        A.setflags(write=False)
        S.setflags(write=False)
        self.A, self.S = A, S

    @property
    def panels(self):
        """Panel data of each surface.  Built with the blocks; only a lone
        sphere, whose blocks read none, builds it here on first use."""
        # threads asking at once may each build it: equal data
        if self._panels is None:
            self._panels = tuple(surface_panels(m) for m in self.meshes)
        return self._panels

    @property
    def geom(self) -> PanelGeometry:
        """All surfaces' panel data joined, built on first use."""
        if self._geom is None:
            self._geom = join_panels(self.panels)
        return self._geom

    def factorization(self) -> _Factorization:
        if self._lu is None:
            self._lu = (self._unit.factorization() if self._unit is not None
                        else _Factorization(self.A))
        return self._lu

    def rcond(self) -> float:
        return self.factorization().rcond()

    def solve(self, g):
        """Solve for one or more data vectors (columns of g); returns the
        densities and the boundary potentials."""
        lu = self.factorization()
        g = np.asarray(g, dtype=float)
        rhs = g.reshape(len(self.A), -1)
        if self.bounded:
            # structural one-dim kernel: data must be (and is made exactly)
            # flux free in the discrete weighted sense
            w = self.weights
            flux = w @ rhs
            scale = np.abs(rhs).max(axis=0) * w.sum() + 1e-300
            bad = np.abs(flux) > FLUX_TOLERANCE * scale
            if np.any(bad):
                raise CompatibilityError(
                    f"cavity boundary data has net flux {flux[bad][0]:.3e}; "
                    "volume compatibility violated")
            # constant shift to exact discrete compatibility (O(h^2) data
            # perturbation, keeps the near-null mode out of the LU solution)
            rhs = rhs - flux[None, :] / w.sum()
        q = sla.lu_solve(lu.lu, rhs, check_finite=False)
        if not np.all(np.isfinite(q)):
            raise IllPosedProblemError("collocation solve produced non-finite density",
                                       condition=1.0 / max(lu.rcond(), 1e-300))
        if not self.bounded:
            rc = lu.rcond()
            if rc < 1e-13:
                raise IllPosedProblemError(
                    f"collocation matrix numerically singular (rcond={rc:.2e})",
                    condition=1.0 / max(rc, 1e-300))
        phi = self.S @ q
        return (q.reshape(g.shape), phi.reshape(g.shape))

    def meshes_for(self, surfaces, level, wall_level=None):
        """Meshes of ``surfaces`` (a nearby configuration's): this
        assembly's own where a surface is unchanged, new ones elsewhere."""
        return tuple(mesh if _change(old, new) == "same" else _mesh(new, level, wall_level)
                     for old, new, mesh in zip(self.surfaces, surfaces, self.meshes))


def _surfaces(config: Configuration):
    """Shape behind each mesh of configuration_meshes(config)."""
    return config.bubbles + ((config.domain,) if config.bounded else ())


# ---------------------------------------------------------------------------
# problems and solutions


@dataclass(frozen=True)
class NeumannProblem:
    """Neumann data (normal velocity at the collocation points) on the
    union of bubble surfaces plus, in cavity mode, the wall (data 0).
    ``shapes``, when given, names the shape behind each mesh (bubble
    parameters or the cavity domain) so that the solver can reuse the
    self-blocks it knows for them."""

    meshes: tuple
    boundary_data: np.ndarray
    shapes: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "meshes", tuple(self.meshes))
        if self.shapes is not None:
            object.__setattr__(self, "shapes", tuple(self.shapes))
            if len(self.shapes) != len(self.meshes):
                raise ValueError(f"{len(self.shapes)} shapes for {len(self.meshes)} meshes")
        g = np.asarray(self.boundary_data, dtype=float)
        object.__setattr__(self, "boundary_data", g)
        n = sum(m.n_panels for m in self.meshes)
        if g.shape != (n,):
            raise ValueError(f"boundary data length {g.shape} != panel count {n}")


@dataclass(frozen=True)
class PotentialSolution:
    """Single-layer density with cached boundary values of the potential."""

    density: np.ndarray
    meshes: tuple
    boundary_potential: np.ndarray
    boundary_data: np.ndarray
    geometry: PanelGeometry
    condition: float | None = None


def solve_neumann(problem: NeumannProblem) -> PotentialSolution:
    """Solve the collocation system for one data vector."""
    asm = _Assembly(problem.meshes, problem.shapes)
    q, phi = asm.solve(problem.boundary_data)
    return PotentialSolution(density=q, meshes=problem.meshes,
                             boundary_potential=phi,
                             boundary_data=problem.boundary_data,
                             geometry=asm.geom, condition=1.0 / max(asm.rcond(), 1e-300))


def evaluate(solution: PotentialSolution, points):
    """Potential and gradient at field points by direct kernel summation.

    Accuracy degrades within about one panel diameter of a surface; use
    boundary_potential / surface_gradient for on-surface values.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    geom = solution.geometry
    qw = solution.density * geom.weights
    dx = pts[:, None, :] - geom.points[None, :, :]
    r = np.linalg.norm(dx, axis=2)
    phi = (-1.0 / (4.0 * np.pi)) * (qw / r).sum(axis=1)
    grad = (dx / (4.0 * np.pi * r ** 3)[:, :, None] * qw[None, :, None]).sum(axis=1)
    return phi, grad


def boundary_potential_at(solution: PotentialSolution, points):
    """Potential at points on or near the surfaces via exact panel integrals."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    S, _, _ = _blocked(pts, solution.geometry, want_single=True, want_double=False)
    return S @ solution.density


def surface_gradient(solution: PotentialSolution, impose_data: bool = True):
    """Fluid-side gradient of the potential at the collocation points.

    Exact flat-panel gradients capture the single-layer jump because the
    curved collocation points sit on the fluid side of the panel planes.
    With ``impose_data`` the normal component is replaced by the imposed
    Neumann data, which it approximates, keeping the boundary condition
    exact while the tangential part comes from the representation.
    """
    geom = solution.geometry
    _, _, g = _blocked(geom.points, geom, want_single=False, want_double=False,
                       density=solution.density)
    if not impose_data:
        return g
    normal_part = np.einsum('mk,mk->m', g, geom.normals)
    return g + (solution.boundary_data - normal_part)[:, None] * geom.normals


# ---------------------------------------------------------------------------
# basis potentials and added mass


def _mesh(shape, level: int, wall_level=None):
    """Mesh of a bubble, or of the wall of a cavity domain."""
    if isinstance(shape, (CavitySphere, CavityMesh)):
        return wall_mesh(shape, level if wall_level is None else wall_level)
    return surface_mesh(shape, level)


def configuration_meshes(config: Configuration, level: int, wall_level=None):
    """Bubble meshes plus the wall mesh in cavity mode."""
    return tuple(_mesh(s, level, wall_level) for s in _surfaces(config))


def _direction_data(config, meshes, directions):
    """Boundary data matrix (N, n_dirs) for packed tangent directions: the
    block-diagonal normal-velocity basis of the bubbles times the direction
    matrix, zero on the wall."""
    basis = sla.block_diag(*(normal_velocity_basis(b, m.quad_points, m.quad_normals)
                             for b, m in zip(config.bubbles, meshes)))
    G = np.zeros((sum(m.n_panels for m in meshes), len(directions)))
    G[:len(basis)] = basis @ np.column_stack(directions)
    return G


def canonical_directions(config: Configuration):
    return list(np.eye(config.dim))


def basis_potentials(config: Configuration, level: int, directions=None,
                     wall_level=None):
    """One PotentialSolution per tangent direction (canonical by default).

    In cavity mode the caller must pass directions spanning the constraint
    hyperplane; incompatible directions raise CompatibilityError.
    """
    meshes = configuration_meshes(config, level, wall_level)
    if directions is None:
        directions = canonical_directions(config)
    asm = _Assembly(meshes, _surfaces(config))
    G = _direction_data(config, meshes, directions)
    Q, Phi = asm.solve(G)
    return [PotentialSolution(density=Q[:, j], meshes=meshes,
                              boundary_potential=Phi[:, j], boundary_data=G[:, j],
                              geometry=asm.geom)
            for j in range(len(directions))]


@dataclass(frozen=True)
class AddedMassMatrix:
    """Gram matrix of the basis potential gradients, scaled by the liquid
    density.  ``asymmetry`` is the relative reciprocity defect before
    symmetrization; ``eigenvalues`` the spectrum after.  ``assembly``
    holds the collocation system it was computed from (matrices and
    factorization), the ``base`` from which added_mass assembles a nearby
    configuration."""

    matrix: np.ndarray
    directions: tuple
    liquid_density: float
    asymmetry: float
    eigenvalues: np.ndarray
    assembly: _Assembly = field(repr=False, compare=False)

    @property
    def condition(self) -> float:
        return float(self.eigenvalues[-1] / self.eigenvalues[0])

    @property
    def collocation_condition(self) -> float:
        """1-norm condition estimate of the collocation matrix; the
        estimate is computed once per factorization."""
        return 1.0 / max(self.assembly.rcond(), 1e-300)


def _gram(asm, config, directions, liquid_density):
    G = _direction_data(config, asm.meshes, directions)
    _, Phi = asm.solve(G)
    raw = -liquid_density * (Phi.T * asm.weights[None, :]) @ G
    scale = np.abs(raw).max() + 1e-300
    asym = float(np.abs(raw - raw.T).max() / scale)
    A = 0.5 * (raw + raw.T)
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0.0:
        raise DiscretizationError(
            f"added-mass matrix not positive definite at level {asm.meshes[0].level}; "
            f"eigenvalues {eig}", eigenvalues=eig)
    return AddedMassMatrix(matrix=A, directions=tuple(map(np.asarray, directions)),
                           liquid_density=liquid_density, asymmetry=asym,
                           eigenvalues=eig, assembly=asm)


def added_mass(config: Configuration, level: int, liquid_density: float = 1.0,
               directions=None, wall_level=None,
               base: AddedMassMatrix | None = None) -> AddedMassMatrix:
    """Added-mass matrix A_ij = -rho * sum(phi^i g_j w) over the bubble
    panels (Green reduction of the volume Gram integral), symmetrized.

    With ``base``, an added-mass matrix of the same bubbles and domain at
    the same levels, the meshes, panel data and collocation blocks of
    surfaces that did not change are taken from its assembly instead of
    rebuilt.
    """
    surfaces = _surfaces(config)
    if base is None:
        meshes = configuration_meshes(config, level, wall_level)
    else:
        meshes = base.assembly.meshes_for(surfaces, level, wall_level)
    if directions is None:
        directions = canonical_directions(config)
    asm = _Assembly(meshes, surfaces, None if base is None else base.assembly)
    return _gram(asm, config, directions, liquid_density)


def added_mass_jacobian(config: Configuration, level: int,
                        liquid_density: float = 1.0, step: float = JACOBIAN_FD_STEP,
                        wall_level=None, basis=None,
                        base: AddedMassMatrix | None = None) -> np.ndarray:
    """Central-difference parameter Jacobian of the kinetic matrix
    B A_red B^T, shape (p, p, p) with the first index the differentiated
    parameter.

    ``basis(config)`` gives B, a (p, m) matrix whose columns are the
    directions of the reduced added mass A_red; by default B = I and the
    kinetic matrix is the canonical added mass.  ``base`` is A_red at
    ``config`` (computed here when not given): every FD side assembles from
    it, and a one-sided difference reuses it.

    Center derivatives of a single unbounded bubble vanish identically
    (the discretization is exactly translation invariant) and are skipped.
    Steps that leave the admissible set fall back to one-sided differences
    with a warning.
    """
    from .shapes import check_admissible  # local import to keep module load light

    def kinetic(cfg, A=None):
        """A_red at cfg (assembled from ``base`` unless given) and B A_red B^T."""
        B = None if basis is None else basis(cfg)
        if A is None:
            A = added_mass(cfg, level, liquid_density, wall_level=wall_level, base=base,
                           directions=None if B is None else list(B.T))
        return A, A.matrix if B is None else B @ A.matrix @ B.T

    base, K0 = kinetic(config, base)  # from scratch when no base is given
    q0 = pack_params(config)
    p = len(q0)
    dA = np.zeros((p, p, p))

    def column(k):
        h = step * (1.0 + abs(q0[k]))
        sides = []
        for sgn in (+1.0, -1.0):
            q = q0.copy()
            q[k] += sgn * h
            try:
                cfg = config_from_params(config, q)
            except DegenerateShapeError:
                cfg = None
            if cfg is not None and not check_admissible(cfg, min(level, 2)).ok:
                cfg = None
            sides.append(None if cfg is None else kinetic(cfg)[1])
        Kp, Km = sides
        if Kp is None and Km is None:
            raise DiscretizationError(
                f"cannot take FD step in parameter {k}: both sides inadmissible")
        if Kp is None or Km is None:
            warnings.warn(f"one-sided difference for added-mass Jacobian entry {k}: "
                          "central step leaves the admissible set")
            return (Kp - K0) / h if Km is None else (K0 - Km) / h
        return (Kp - Km) / (2.0 * h)

    skip_centers = config.n_bubbles == 1 and not config.bounded
    params = [k for k in range(p) if not (skip_centers and k < 3)]
    for k, col in zip(params, _map_workers(column, params)):
        dA[k] = col
    return dA
