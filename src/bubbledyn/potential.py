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
reused wherever it is exactly the same.  Which shape lies behind a
surface, the assembly reads from its mesh (SurfaceMesh.shape):

* Own-surface blocks are invariant under translation, and under scaling
  except for S, which scales with the length.  A sphere's (or spherical
  wall's) self-blocks are therefore those of the unit sphere of the same
  level and orientation, with S times the radius; the unit pair is
  computed once per (level, orientation) and kept read-only.
* A configuration that differs from an assembled base in some bubbles (an
  FD side of the added-mass Jacobian changes one ellipsoid's shape)
  copies the base and recomputes only the rows and columns of those
  bubbles.  Blocks between unchanged surfaces, the wall-wall block among
  them, are never rebuilt.
* A lone sphere's 1/2 I + K' is the unit sphere's block itself, so its LU
  factorization is kept with the unit pair and serves every lone sphere
  of the level, in a run or in a single solve_neumann: one factorization
  per level in a one-sphere run.

Every block integrates over the panels of one surface, and the terms of
the flat-panel integrals that depend on those panels alone (corner dots
and crosses, unit normals, edge lengths and in-plane edge normals) are
computed once per surface, when its PanelGeometry is built, leaving point-
panel products to each block.  An assembly keeps one PanelGeometry per
surface; a configuration assembled from a base takes the mesh and the
PanelGeometry of every unchanged surface from it, so an FD side builds
both only for the bubble it changes.

Added mass and its Jacobian.  The added mass is taken along the basis B
of the admissible velocities that the configuration fixes
(shapes.constraint_basis; B = I in unbounded liquid), and the reduced
equations of motion need the parameter derivatives of its kinetic matrix
B A B^T.  Along a bubble translation or a sphere radius they are exact
derivatives of the discrete operator: only the moved bubble's blocks
change, by directional derivatives of the flat-panel integrals (the solid
angle's is the edge form of van Oosterom and Strackee, IEEE TBME 30,
1983), so the derivative needs the base assembly and its LU and no other.
Only the six matrix slots of an ellipsoid are central differences
(shapes.fd_gradient), each side assembled from the base; a side outside
the admissible set raises.  The Jacobian takes the added mass alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import CompatibilityError, DiscretizationError, IllPosedProblemError
from .shapes import (CavityMesh, CavitySphere, Configuration, ConstraintBasis,
                     EllipsoidParams, SphereParams, config_from_params, constraint_basis,
                     fd_gradient, normal_velocity_basis, pack_params, surface_mesh,
                     volume_gradient, volume_hessian, wall_mesh)

# relative FD step for the ellipsoid matrix-slot columns of the added-mass Jacobian
JACOBIAN_FD_STEP = 1e-4
# relative net-flux threshold for the cavity compatibility check
FLUX_TOLERANCE = 1e-8
_ROW_BLOCK = 2048


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
              "edge_normal": 1, "edge_offset": 1, "edge_vector": 1, "edge_cross": 1}


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
    edge_vector: np.ndarray   # (3, N, 3) b - a, the edge a -> b
    edge_cross: np.ndarray    # (3, N, 3) a x b

    @property
    def n_panels(self) -> int:
        return len(self.weights)


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
    edge_cross = _cross(corners, ends)
    c01, c12, c20 = edge_cross
    edges = ends - corners
    length = np.linalg.norm(edges, axis=2)
    mhat = _cross(edges / length[:, :, None], nh)
    arrays = dict(
        points=mesh.quad_points, normals=mesh.quad_normals, weights=mesh.quad_weights,
        lift=mesh.quad_weights / mesh.area, corners=corners,
        corner_sq=_dot(corners, corners), corner_dots=_dot(corners, ends),
        detv=_dot(p0, c12), cross_sum=c12 + c20 + c01, unit_normal=nh,
        plane_offset=_dot(p0, nh), edge_length=length, edge_normal=mhat,
        edge_offset=_dot(corners, mhat), edge_vector=edges, edge_cross=edge_cross)
    return PanelGeometry(meshes=(mesh,), **{k: _frozen(v) for k, v in arrays.items()})


def join_panels(parts) -> PanelGeometry:
    """Concatenation of per-surface panel data, in surface order."""
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    arrays = {name: _frozen(np.concatenate([getattr(p, name) for p in parts], axis=axis))
              for name, axis in _PER_PANEL.items()}
    return PanelGeometry(meshes=sum((p.meshes for p in parts), ()), **arrays)


def _panel_blocks(x, geom: PanelGeometry, want_single, want_double, density=None,
                  directions=None):
    """Exact flat-panel integrals from points ``x`` over all panels.

    Returns (S, K, grad) where S holds integrals of G = -1/(4 pi |x-y|)
    (lifted to the patch measure), K integrals of the double-layer kernel
    d/dn(y) G (the signed solid angle / 4 pi, lifted), and grad, when a
    ``density`` is given, the x-gradient of the single-layer potential
    S @ density, contracted with the density panel by panel so that no
    (M, N, 3) tensor is formed.  Unwanted outputs are None.  The
    panel-only terms come precomputed with ``geom``; what is left is
    point-panel products and elementwise work.

    With ``directions``, an (n, M, 3) array of per-point vector fields V,
    two more outputs follow, each (n, M, N): the directional derivatives
    d_V S and d_V K of the blocks as every point x_m moves along V_m.  The
    single layer's is omega V.nh - sum_e L_e V.mhat_e; the solid angle's
    is the edge (Biot-Savart) sum over edges a -> b of
    f_e V.((a - x) x (b - x)), f_e = (l_a + l_b) / (l_a l_b (l_a l_b + d_ab)),
    with d_ab = (a - x).(b - x).
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

    S = grad = dS = dK = None
    if want_single or density is not None or directions is not None:
        nh = geom.unit_normal
        if want_single:
            I = np.zeros((M, N))
        if density is not None:
            # grad_x of the panel integral is omega nh - sum_e L_e mhat_e;
            # c carries the density and the lifted kernel constant
            c = (np.asarray(density, dtype=float) * (-geom.lift / (4.0 * np.pi)))[:, None]
            grad = omega @ (c * nh)
        if directions is not None:
            Ls, fs = [], []
        for (la, lb), dab, le, mhat, am, edge, ab in zip(
                ((l0, l1), (l1, l2), (l2, l0)), (d01, d12, d20), geom.edge_length,
                geom.edge_normal, geom.edge_offset, geom.edge_vector, geom.edge_cross):
            # stable symmetric form of the edge log integral of 1/|x-y|
            ssum = la + lb
            L = np.log((ssum + le[None]) / np.maximum(ssum - le[None], 1e-300))
            if want_single:
                d = x @ mhat.T - am[None]
                I -= d * L
            if density is not None:
                grad -= L @ (c * mhat)
            if directions is not None:
                lab = la * lb
                Ls.append(L)
                fs.append(ssum / (lab * (lab + dab)))
        if want_single:
            h = x @ nh.T - geom.plane_offset[None]
            I += h * omega
            S = I * (-geom.lift[None] / (4.0 * np.pi))
        if directions is not None:
            dS, dK = _directional(x, geom, omega, np.hstack(Ls), np.hstack(fs),
                                  np.asarray(directions, dtype=float))
            return S, K, grad, dS, dK
    return S, K, grad


def _directional(x, geom, omega, L, f, V):
    """d_V S and d_V K of _panel_blocks from the point-panel terms omega,
    L and f (the three edges' side by side, (M, 3N)), one direction at a
    time so that the (M, N) temporaries stay in cache.  Per direction, one
    product with [nh, mhat_e] gives V.nh and V.mhat_e, and one with
    [a x b; -(b - a)] gives V.((a - x) x (b - x)) = V.(a x b) - (V x x).(b - a)
    for the three edges."""
    M, N = omega.shape
    normals = np.concatenate([geom.unit_normal.T, *geom.edge_normal.transpose(0, 2, 1)],
                             axis=1)
    crosses = np.concatenate([np.vstack([ab.T, -edge.T]) for ab, edge
                              in zip(geom.edge_cross, geom.edge_vector)], axis=1)
    dS = np.empty((len(V), M, N))
    dK = np.empty_like(dS)
    for v, dS_v, dK_v in zip(V, dS, dK):
        vn = v @ normals
        dS_v[...] = omega * vn[:, :N] - (L * vn[:, N:]).reshape(M, 3, N).sum(axis=1)
        dK_v[...] = (f * (np.hstack([v, _cross(v, x)]) @ crosses)).reshape(M, 3, N).sum(axis=1)
    dS *= -geom.lift / (4.0 * np.pi)
    dK *= geom.lift / (4.0 * np.pi)
    return dS, dK


def _blocked(x, geom, **kw):
    """Row-blocked wrapper around _panel_blocks to bound peak memory."""
    M = len(x)
    if M <= _ROW_BLOCK:
        return _panel_blocks(x, geom, **kw)
    V = kw.pop("directions", None)
    outs = [_panel_blocks(x[i:i + _ROW_BLOCK], geom, **kw,
                          **({} if V is None else {"directions": V[:, i:i + _ROW_BLOCK]}))
            for i in range(0, M, _ROW_BLOCK)]
    # rows are the second-to-last axis of every output
    return tuple(None if parts[0] is None else np.concatenate(parts, axis=parts[0].ndim - 2)
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


def _same(old, new) -> bool:
    """Whether shape ``new`` is shape ``old``: the same object, or bubbles
    of one family with equal parameters."""
    if old is new:
        return True
    return (type(old) is type(new) and isinstance(old, (SphereParams, EllipsoidParams))
            and np.array_equal(old.pack(), new.pack()))


class _Assembly:
    """Collocation system of one set of surfaces: the matrices
    (1/2 I + K', S), built block by block, the panel data of each surface,
    and the LU factorization of 1/2 I + K', built by the first solve.

    The shape behind each surface is its mesh's ``shape``.  With ``base``,
    an assembly of the same surfaces at the same levels at another
    configuration, a surface whose shape did not change keeps the base's
    mesh and panel data (the mesh passed for it is not used), the blocks
    between such surfaces are copied, and only the rows and columns of
    changed surfaces are recomputed.

    A lone sphere (one surface, a spherical bubble) is its unit sphere's
    self-blocks: A is the cached unit-sphere A itself, S is r S_unit, and
    the factorization is the one the cache keeps for that A, so a run
    factors it once per level.  Its panel data, which no block reads, is
    built only on request.  Everything is read-only once built.
    """

    def __init__(self, meshes, base=None):
        meshes = tuple(meshes)
        n = len(meshes)
        same = ([False] * n if base is None
                else [_same(old.shape, new.shape) for old, new in zip(base.meshes, meshes)])
        self.meshes = tuple(base.meshes[k] if same[k] else meshes[k] for k in range(n))
        self.bounded = any(m.closure < 0 for m in self.meshes)
        self.weights = np.concatenate([m.quad_weights for m in self.meshes])
        self._lu = None
        self._unit = None
        self._panels = self._geom = None
        if n == 1 and isinstance(self.meshes[0].shape, SphereParams):
            self._unit = _unit_sphere_blocks(self.meshes[0].level, False)
            self.A = self._unit.A
            self.S = self.meshes[0].shape.radius * self._unit.S
            self.S.setflags(write=False)
            return
        self._panels = parts = tuple(base.panels[k] if same[k] else surface_panels(meshes[k])
                                     for k in range(n))
        offsets = np.cumsum([0] + [m.n_panels for m in self.meshes])
        blocks = [slice(offsets[k], offsets[k + 1]) for k in range(n)]
        if base is None:
            A = np.empty((offsets[-1], offsets[-1]))
            S = np.empty_like(A)
        else:
            A, S = base.A.copy(), base.S.copy()
        for a in range(n):
            for b in range(n):
                if a == b or (same[a] and same[b]):
                    continue
                # points of a over panels of b: S block (a, b), and the
                # double-layer integrals whose weighted transpose is block (b, a)
                S_ab, K_ab, _ = _blocked(parts[a].points, parts[b],
                                         want_single=True, want_double=True)
                S[blocks[a], blocks[b]] = S_ab
                A[blocks[b], blocks[a]] = (
                    K_ab.T * (parts[a].weights[None, :] / parts[b].weights[:, None]))
        for k in range(n):
            if same[k]:
                continue
            blk = blocks[k]
            shape = self.meshes[k].shape
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

    def meshes_for(self, config, level, wall_level=None):
        """Meshes of ``config``, a configuration near this assembly's: this
        assembly's own where a shape is unchanged, new ones elsewhere."""
        return tuple(mesh if _same(mesh.shape, new) else _mesh(new, level, wall_level)
                     for new, mesh in zip(_surfaces(config), self.meshes))


def _surfaces(config: Configuration):
    """Shape behind each mesh of configuration_meshes(config)."""
    return config.bubbles + ((config.domain,) if config.bounded else ())


# ---------------------------------------------------------------------------
# problems and solutions


@dataclass(frozen=True)
class NeumannProblem:
    """Neumann data (normal velocity at the collocation points) on the
    union of bubble surfaces plus, in cavity mode, the wall (data 0)."""

    meshes: tuple
    boundary_data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "meshes", tuple(self.meshes))
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
    asm = _Assembly(problem.meshes)
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
    """Boundary data matrix (N, n) for the packed tangent directions that
    are the columns of ``directions`` (p, n): the block-diagonal
    normal-velocity basis of the bubbles times ``directions``, zero on the
    wall."""
    basis = sla.block_diag(*(normal_velocity_basis(b, m.quad_points, m.quad_normals)
                             for b, m in zip(config.bubbles, meshes)))
    G = np.zeros((sum(m.n_panels for m in meshes), directions.shape[1]))
    G[:len(basis)] = basis @ directions
    return G


def basis_potentials(config: Configuration, level: int, wall_level=None):
    """One PotentialSolution per column of shapes.constraint_basis(config):
    per packed parameter in unbounded liquid, per volume-preserving basis
    velocity (p - 1 of them) in a cavity."""
    meshes = configuration_meshes(config, level, wall_level)
    asm = _Assembly(meshes)
    G = _direction_data(config, meshes, constraint_basis(config).matrix)
    Q, Phi = asm.solve(G)
    return [PotentialSolution(density=Q[:, j], meshes=meshes,
                              boundary_potential=Phi[:, j], boundary_data=G[:, j],
                              geometry=asm.geom)
            for j in range(G.shape[1])]


@dataclass(frozen=True)
class AddedMassMatrix:
    """Gram matrix of the basis potential gradients along the columns of
    ``basis`` (shapes.constraint_basis of ``config``), scaled by the
    liquid density.  ``asymmetry`` is the relative reciprocity defect
    before symmetrization; ``eigenvalues`` the spectrum after.
    ``assembly`` holds the collocation system it was computed from
    (meshes, matrices and factorization), the ``base`` from which
    added_mass assembles a nearby configuration; ``data``, ``density`` and
    ``potential`` are the basis velocities' boundary data, densities and
    boundary potentials, one column per basis column (read-only)."""

    matrix: np.ndarray
    basis: ConstraintBasis
    liquid_density: float
    asymmetry: float
    eigenvalues: np.ndarray
    config: Configuration = field(repr=False, compare=False)
    assembly: _Assembly = field(repr=False, compare=False)
    data: np.ndarray = field(repr=False, compare=False)
    density: np.ndarray = field(repr=False, compare=False)
    potential: np.ndarray = field(repr=False, compare=False)

    @property
    def condition(self) -> float:
        return float(self.eigenvalues[-1] / self.eigenvalues[0])

    @property
    def collocation_condition(self) -> float:
        """1-norm condition estimate of the collocation matrix; the
        estimate is computed once per factorization."""
        return 1.0 / max(self.assembly.rcond(), 1e-300)

    @property
    def kinetic(self) -> np.ndarray:
        """The kinetic matrix over all packed velocities: B A B^T with B
        the basis matrix, ``matrix`` itself in unbounded liquid (B = I)."""
        B = self.basis.matrix
        return B @ self.matrix @ B.T if self.basis.constrained else self.matrix


def _gram(asm, config, basis, liquid_density):
    G = _direction_data(config, asm.meshes, basis.matrix)
    Q, Phi = asm.solve(G)
    raw = -liquid_density * (Phi.T * asm.weights[None, :]) @ G
    scale = np.abs(raw).max() + 1e-300
    asym = float(np.abs(raw - raw.T).max() / scale)
    A = 0.5 * (raw + raw.T)
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0.0:
        raise DiscretizationError(
            f"added-mass matrix not positive definite at level {asm.meshes[0].level}; "
            f"eigenvalues {eig}", eigenvalues=eig)
    return AddedMassMatrix(matrix=A, basis=basis,
                           liquid_density=liquid_density, asymmetry=asym,
                           eigenvalues=eig, config=config, assembly=asm,
                           **{name: _frozen(a) for name, a in
                              (("data", G), ("density", Q), ("potential", Phi))})


def added_mass(config: Configuration, level: int, liquid_density: float = 1.0,
               wall_level=None, base: AddedMassMatrix | None = None) -> AddedMassMatrix:
    """Added-mass matrix A_ij = -rho * sum(phi^i g_j w) over the bubble
    panels (Green reduction of the volume Gram integral), symmetrized,
    with i and j running over the columns of shapes.constraint_basis(config):
    the packed parameters in unbounded liquid, an orthonormal basis of the
    volume-preserving velocities in a cavity.  ``kinetic`` is the matrix
    over all packed velocities.

    With ``base``, an added-mass matrix of the same bubbles and domain at
    the same levels, the meshes, panel data and collocation blocks of
    surfaces that did not change are taken from its assembly instead of
    rebuilt.
    """
    if base is None:
        meshes = configuration_meshes(config, level, wall_level)
    else:
        meshes = base.assembly.meshes_for(config, level, wall_level)
    asm = _Assembly(meshes, None if base is None else base.assembly)
    return _gram(asm, config, constraint_basis(config), liquid_density)


def _projector_derivatives(config, slots):
    """Derivatives of the projector P = I - l l^T / |l|^2 onto the
    volume-preserving velocities (l the volume gradient) along the
    parameter slots ``slots``, from the volume Hessian, (len(slots), p, p);
    None in unbounded liquid, where P = I."""
    if not config.bounded:
        return None
    ell = volume_gradient(config)
    n2 = ell @ ell
    L = np.outer(ell, ell) / n2
    dP = []
    for dl in volume_hessian(config)[:, slots].T:
        dP.append(2.0 * (dl @ ell) / n2 * L - (np.outer(dl, ell) + np.outer(ell, dl)) / n2)
    return np.array(dP)


def _exact_slots(config):
    """Packed parameter slots of every bubble centre and sphere radius."""
    return [sl.start + j for b, sl in zip(config.bubbles, config.slices())
            for j in range(4 if isinstance(b, SphereParams) else 3)]


def _center_and_radius_columns(mass):
    """Exact derivatives of the kinetic matrix of the added mass ``mass``
    along _exact_slots(mass.config); returns (n_slots, p, p).

    The kinetic matrix is K = sym(-rho (S X)^T W G P) with X = M^-1 G P,
    M = 1/2 I + K' and S the assembled matrices, W the quadrature weights,
    G the canonical direction data and P = B B^T the projector onto the
    volume-preserving velocities (I in unbounded liquid), B the basis
    matrix; G P is flux free at every configuration, so the constant
    potential that the cavity system leaves undetermined never shows.
    Along a slot, with the base LU,

        dX = M^-1 (G dP - dM X),
        dK = sym(-rho [(dS X + S dX)^T W G P + (S X)^T dW G P
                       + (S X)^T W G dP]),

    with no flux shift on the derivative solve: its data is not flux free,
    and shifting it would bias dK.  G itself does not change along these
    slots.  Only the moved bubble's rows and columns of M and S change,
    and dM X and dS X are formed block by block from the directional
    derivatives of the cross blocks (_panel_blocks ``directions``):

    * translating bubble k along axis e: +d_e where k owns the points,
      -d_e where it owns the panels; self-blocks and weights are fixed;
    * the radius r of sphere k: d_V with V = (x - c)/r where k owns the
      points; where it owns the panels, the scaling laws of the panel
      integrals about c (degree 1 for S, 0 for the solid angle) give
      dS = (S - d_{x-c} S)/r and dK = -d_{x-c} K/r; the self-blocks give
      dS_kk = S_kk/r, dM_kk = 0; and the weights dw_k = 2 w_k/r, which
      enter the weighted transpose in M and the Gram matrix.
    """
    config, asm, rho = mass.config, mass.assembly, mass.liquid_density
    p, nb = config.dim, config.n_bubbles
    slots = _exact_slots(config)
    dP = _projector_derivatives(config, slots)
    B = mass.basis.matrix
    # G P, X and S X from the solution for G B
    GP, X, Phi = mass.data @ B.T, mass.density @ B.T, mass.potential @ B.T
    index = {slot: t for t, slot in enumerate(slots)}
    w = asm.weights
    offsets = np.cumsum([0] + [m.n_panels for m in asm.meshes])
    blocks = [slice(offsets[k], offsets[k + 1]) for k in range(len(asm.meshes))]
    dSX = np.zeros((len(slots), len(w), p))
    dMX = np.zeros_like(dSX)
    dw = np.zeros((len(slots), len(w)))
    for k, (bubble, sl) in enumerate(zip(config.bubbles, config.slices())):
        if isinstance(bubble, SphereParams):
            t, blk, r = index[sl.start + 3], blocks[k], bubble.radius
            dSX[t, blk] = asm.S[blk, blk] @ X[blk] / r
            dw[t, blk] = 2.0 * w[blk] / r

    # each ordered pair of surfaces (a, b) with a bubble among them: the
    # derivatives of the block of a's points over b's panels along the
    # three axes (a's translations, and b's with the sign flipped) and the
    # radial fields of the spheres.  A lone surface has no such pair (and
    # a lone sphere no panel data).
    parts = asm.panels if len(asm.meshes) > 1 else ()
    for a, b in ((a, b) for a in range(len(parts)) for b in range(len(parts)) if a != b):
        x = parts[a].points
        fields = [np.broadcast_to(e, x.shape) for e in np.eye(3)]
        uses = []  # (slot, field, sign, sphere radius for a radius slot)
        for k, sign in ((a, 1.0), (b, -1.0)):
            if k >= nb:
                continue
            bubble, start = config.bubbles[k], config.slices()[k].start
            uses += [(start + j, j, sign, None) for j in range(3)]
            if isinstance(bubble, SphereParams):
                uses.append((start + 3, len(fields), sign, bubble.radius))
                # a sphere's points move along its normals (x - c)/r
                fields.append(asm.meshes[k].quad_normals if k == a else x - bubble.center)
        Da, Db = blocks[a], blocks[b]
        _, _, _, dS, dK = _blocked(x, parts[b], want_single=False, want_double=False,
                                   directions=np.stack(fields))
        dS_X = dS @ X[Db]
        dK_X = (dK.transpose(0, 2, 1) @ (w[Da, None] * X[Da])) / w[Db, None]
        for slot, i, sign, r in uses:
            t = index[slot]
            if r is not None and sign < 0:
                # the radius of sphere b, whose panels scale about its centre
                dSX[t, Da] += (asm.S[Da, Db] @ X[Db] - dS_X[i]) / r
                dMX[t, Db] -= dK_X[i] / r
            else:
                dSX[t, Da] += sign * dS_X[i]
                dMX[t, Db] += sign * dK_X[i]
            if r is not None:
                # w_a (a's radius) or 1 / w_b (b's) in the weighted transpose
                dMX[t, Db] += sign * 2.0 / r * (asm.A[Db, Da] @ X[Da])

    GdP = None
    if dP is not None:
        GdP = _direction_data(config, asm.meshes, np.eye(p))[None] @ dP
    rhs = -dMX if GdP is None else GdP - dMX
    dPhi = dSX
    if rhs.any():  # a lone unbounded bubble's is zero
        dX = sla.lu_solve(asm.factorization().lu,
                          rhs.transpose(1, 0, 2).reshape(len(w), -1), check_finite=False)
        if not np.all(np.isfinite(dX)):
            raise IllPosedProblemError("added-mass Jacobian solve produced non-finite values")
        dPhi = dSX + (asm.S @ dX).reshape(len(w), len(slots), p).transpose(1, 0, 2)
    raw = dPhi.transpose(0, 2, 1) @ (w[:, None] * GP) + Phi.T @ (dw[:, :, None] * GP)
    if GdP is not None:
        raw += Phi.T @ (w[:, None] * GdP)
    raw *= -rho
    return 0.5 * (raw + raw.transpose(0, 2, 1))


def added_mass_jacobian(mass: AddedMassMatrix) -> np.ndarray:
    """Parameter Jacobian of the kinetic matrix of ``mass``
    (AddedMassMatrix.kinetic), shape (p, p, p) with the first index the
    differentiated parameter, at the configuration, level and liquid
    density of ``mass``.

    The columns of every bubble centre and every sphere radius are exact
    derivatives of the discrete kinetic matrix, from the assembly of
    ``mass`` and its LU alone (_center_and_radius_columns).  The six matrix
    slots of an ellipsoid are central differences (shapes.fd_gradient)
    with step ``JACOBIAN_FD_STEP * (1 + |q_k|)``, every side assembled from
    ``mass``.  A degenerate side raises DegenerateShapeError and an
    inadmissible one DiscretizationError: the state is closer to contact
    than the step, and the caller rejects it.
    """
    from .shapes import check_admissible  # local import to keep module load light

    config, level = mass.config, mass.assembly.meshes[0].level
    q0 = pack_params(config)
    p = len(q0)
    dA = np.zeros((p, p, p))
    exact = _exact_slots(config)
    dA[exact] = _center_and_radius_columns(mass)
    slots = [k for k in range(p) if k not in exact]

    def kinetic(values):
        q = q0.copy()
        q[slots] = values
        cfg = config_from_params(config, q)
        report = check_admissible(cfg, min(level, 2))
        if not report.ok:
            raise DiscretizationError(f"FD side outside the admissible set: "
                                      f"{report.violations}")
        return added_mass(cfg, level, mass.liquid_density, base=mass).kinetic

    if slots:
        dA[slots] = fd_gradient(kinetic, q0[slots], JACOBIAN_FD_STEP)
    return dA
