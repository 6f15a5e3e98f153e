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
and b alone, so the assembly is built block by block.  Which shape lies
behind a surface, the assembly reads from its mesh (SurfaceMesh.shape):

* Own-surface blocks are invariant under translation, and under scaling
  except for S, which scales with the length.  A sphere's (or spherical
  wall's) self-blocks are therefore those of the unit sphere of the same
  level and orientation, with S times the radius; the unit pair is
  computed once per (level, orientation) and kept read-only.
* A lone sphere's 1/2 I + K' is the unit sphere's block itself, so its LU
  factorization is kept with the unit pair and serves every lone sphere
  of the level, whether its added mass or a solve_neumann asks: one
  factorization per level in a one-sphere run.

Every block integrates over the panels of one surface, and the terms of
the flat-panel integrals that depend on those panels alone (corner dots
and crosses, unit normals, edge lengths and in-plane edge normals) are
computed once per surface, when its PanelGeometry is built, leaving point-
panel products to each block.  An assembly keeps one PanelGeometry per
surface.

Added mass and its Jacobian.  The added mass is taken along the basis B
of the admissible velocities that the configuration fixes
(shapes.constraint_basis; B = I in unbounded liquid), and the reduced
equations of motion need the parameter derivatives of its kinetic matrix
B A B^T.  Every column comes from one formula: the rates of the
collocation matrices, the weights and the direction data along the slot,
applied to the base solution and solved with the base LU, so an
equations-of-motion call assembles and factors one matrix.  Along every
slot the rates are exact derivatives of the discrete operator: only the
moved bubble's blocks change, by the rates of the flat-panel integrals as
the collocation points move (the solid angle's in the edge form of van
Oosterom and Strackee, IEEE TBME 30, 1983) and as the panels deform
(Wilton et al., IEEE TAP 32, 1984; Graglia, IEEE TAP 41, 1993).  A
translation moves a bubble rigidly, a sphere radius scales it, and an
ellipsoid matrix slot deforms it, moving its points and corners alike by
one linear map.  The rates come contracted with the densities: no rate
block is formed per slot.  The single layer's point rates are the
gradient of S X, a panel's deformation by the linear map G its
symmetric tensor T (G : T), and the solid angle's rates the moments of
its edge terms over the points, so each block takes one kernel pass
plus products whose width grows with the number of parameters, not with
the number of slots.  The Jacobian takes the added mass alone and builds
no mesh.  It contracts the rates of the basis potentials, which the
added mass keeps once built (AddedMassMatrix.rates), so that the boundary
residual's exact time derivative of the potential reads the same rates.

One public solve, solve_neumann, takes arbitrary data on given meshes;
the added mass solves for the basis velocities' data itself and keeps
the densities and boundary potentials.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import _blas
from .errors import CompatibilityError, DiscretizationError, IllPosedProblemError
from .shapes import (CavityMesh, CavitySphere, Configuration, ConstraintBasis, SphereParams,
                     constraint_basis, normal_velocity_basis, surface_mesh, symmetric_matrix,
                     volume_gradient, volume_hessian, wall_mesh)

# relative net-flux threshold for the cavity compatibility check
FLUX_TOLERANCE = 1e-8
_ROW_BLOCK = 2048
# the components (k, l), k <= l, of a symmetric 3x3 tensor, in the order
# of shapes.symmetric_matrix's slots
_PAIRS = np.array([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)])


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


def _add_products(out, term, factors, X):
    """out (M, c, p) += term @ (factors[:, u, None] X) for every column u
    of the (K, c) factors, with the (M, K) term and the columns X (K, p):
    one product of width p per component, on the solver's one BLAS thread
    (README, Threads)."""
    out += np.matmul(term, factors.T[:, :, None] * X).transpose(1, 0, 2)


def _panel_blocks(x, geom: PanelGeometry, want_single, want_double, density=None,
                  tensor=None, moments=None, degree=1):
    """Exact flat-panel integrals from points ``x`` over all panels.

    Returns (S, K, grad) where S holds integrals of G = -1/(4 pi |x-y|)
    (lifted to the patch measure), K integrals of the double-layer kernel
    d/dn(y) G (the signed solid angle / 4 pi, lifted), and grad, when a
    ``density`` (N, p) is given, the x-gradient of the single-layer
    potential S @ density, contracted with the density panel by panel so
    that no (M, N, 3) tensor is formed: (M, 3, p).  Unwanted outputs are
    None.  The panel-only terms come precomputed with ``geom``; what is
    left is point-panel products and elementwise work.

    With ``tensor`` or ``moments`` two more outputs follow, the terms of
    the blocks' rates as the points and panels move, contracted on the
    way so that no rate block (M, N) is formed per motion:

    * T, (M, 6, p), for a ``tensor`` (N, p): sum_n T(x_m, n) tensor_n with
      the lifted kernel factor, T_kl on _PAIRS.  Deformed about x by the
      linear map G (its corners moving by G (y - x)), a panel's integral
      of 1/|x - y| changes by G : T with the symmetric tensor
          T = h omega nh nh^T + h (nh g^T + g nh^T)
              - sum_e d_e L_e mhat_e mhat_e^T + sum_e (l_b - l_a) sym(eh_e mhat_e^T),
      g = -sum_e L_e mhat_e, h = (x - p0).nh, d_e = (x - a).mhat_e, eh_e
      the unit edge a -> b and l_a, l_b the distances from x to its ends
      (trace T = the integral itself).
    * F, (3, N, J, p) for ``moments`` Y (M, p): per edge and panel, the
      sums over the points of f_e m_j(x) Y, with the monomials
      m = (1, x_k) and, for ``degree`` 2, x_k x_l on _PAIRS (J = 4 or 10),
      where f_e = (l_a + l_b) / (l_a l_b (l_a l_b + d_ab)) and
      d_ab = (a - x).(b - x).  A point moving along V changes the solid
      angle by the edge (Biot-Savart) sum over edges a -> b of
      f_e V.((a - x) x (b - x)), and
      V.((a - x) x (b - x)) = V.(a x b) - (V x x).(b - a), so for affine
      fields V the rates of Y^T K are F contracted with per-panel
      coefficients.  With a ``tensor`` too (the panels deform), F is
      followed by Fa, the same sums (J = 4) of g_a = 1 / (l_a D_e),
      D_e = l_a l_b + d_ab; the corners a and b moving by W_a and W_b
      change the solid angle by -(g_a W_a + g_b W_b).((a - x) x (b - x))
      along the edge, and g_a + g_b = f_e.
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

    S = grad = T = F = Fa = None
    rates = tensor is not None or moments is not None
    if want_single or density is not None or rates:
        nh = geom.unit_normal
        scale = -geom.lift / (4.0 * np.pi)
        if want_single:
            I = np.zeros((M, N))
        if density is not None:
            # grad_x of the panel integral is omega nh - sum_e L_e mhat_e;
            # c carries the density and the lifted kernel constant
            c = np.asarray(density, dtype=float) * scale[:, None]
            grad = np.zeros((M, 3, c.shape[1]))
            _add_products(grad, omega, nh, c)
        if tensor is not None:
            # the terms of T with their per-panel factors on _PAIRS, each
            # applied as soon as it is formed: h omega here, and h L_e,
            # d_e L_e and l_b - l_a per edge
            k, l = _PAIRS.T
            h = x @ nh.T - geom.plane_offset[None]
            Xs = np.asarray(tensor, dtype=float) * scale[:, None]
            T = np.zeros((M, 6, Xs.shape[1]))
            _add_products(T, h * omega, nh[:, k] * nh[:, l], Xs)
        if moments is not None:
            Y = np.asarray(moments, dtype=float)
            mono = [np.ones(M), *x.T]
            if degree == 2:
                mono += [x[:, k] * x[:, l] for k, l in _PAIRS]
            mono = np.stack(mono, axis=1)
            F = np.zeros((3, N, len(mono.T), Y.shape[1]))
            if tensor is not None:
                Fa = np.zeros((3, N, 4, Y.shape[1]))
        for e, ((la, lb), dab, le, mhat, am, edge) in enumerate(zip(
                ((l0, l1), (l1, l2), (l2, l0)), (d01, d12, d20), geom.edge_length,
                geom.edge_normal, geom.edge_offset, geom.edge_vector)):
            # stable symmetric form of the edge log integral of 1/|x-y|
            ssum = la + lb
            L = np.log((ssum + le[None]) / np.maximum(ssum - le[None], 1e-300))
            if want_single or tensor is not None:
                d = x @ mhat.T - am[None]
            if want_single:
                I -= d * L
            if density is not None:
                _add_products(grad, L, -mhat, c)
            if tensor is not None:
                eh = edge / le[:, None]
                _add_products(T, h * L, -(nh[:, k] * mhat[:, l] + mhat[:, k] * nh[:, l]), Xs)
                _add_products(T, d * L, -mhat[:, k] * mhat[:, l], Xs)
                _add_products(T, lb - la, 0.5 * (eh[:, k] * mhat[:, l] + eh[:, l] * mhat[:, k]),
                              Xs)
            if moments is not None:
                # 1 / (l_a l_b D_e), times l_a + l_b for f_e and l_b for g_a
                inv = la * lb
                inv *= inv + dab
                np.divide(1.0, inv, out=inv)
                _add_products(F[e], (ssum * inv).T, mono, Y)
                if tensor is not None:
                    _add_products(Fa[e], (lb * inv).T, mono[:, :4], Y)
        if want_single:
            h = x @ nh.T - geom.plane_offset[None]
            I += h * omega
            S = I * (-geom.lift[None] / (4.0 * np.pi))
    return (S, K, grad, T, F, Fa) if rates else (S, K, grad)


def _blocked(x, geom, moments=None, **kw):
    """Row-blocked wrapper around _panel_blocks to bound peak memory: the
    outputs of the points (S, K, grad, T) are stacked by rows, and the
    moments, sums over the points, added up.  With rate terms a block
    holds about twenty (rows, N) arrays, so it has at most
    _ROW_BLOCK^2 / (16 N) rows."""
    M = len(x)
    rates = moments is not None or kw.get("tensor") is not None
    step = max(1, _ROW_BLOCK ** 2 // (16 * geom.n_panels)) if rates else _ROW_BLOCK
    if M <= step:
        return _panel_blocks(x, geom, moments=moments, **kw)
    outs = [_panel_blocks(x[i:i + step], geom,
                          moments=None if moments is None else moments[i:i + step], **kw)
            for i in range(0, M, step)]
    return tuple(None if parts[0] is None else sum(parts) if k >= 4
                 else np.concatenate(parts, axis=0) for k, parts in enumerate(zip(*outs)))


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
    kept.  The LU arrays are read-only.  The LU is factored on one BLAS
    thread wherever it is asked for (inside dynamics.integrate or not), so
    that a lone sphere's, shared by every later call, has the same bits
    whoever first asked."""

    def __init__(self, A):
        try:
            with _blas.single_thread():
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


class _Assembly:
    """Collocation system of one set of surfaces: the matrices
    (1/2 I + K', S), built block by block, the panel data of each surface,
    and the LU factorization of 1/2 I + K', built by the first solve.  The
    shape behind each surface is its mesh's ``shape``.

    A lone sphere (one surface, a spherical bubble) is its unit sphere's
    self-blocks: A is the cached unit-sphere A itself, S is r S_unit, and
    the factorization is the one the cache keeps for that A, so a run
    factors it once per level.  Its panel data, which no block reads, is
    built only on request.  Everything is read-only once built.
    """

    def __init__(self, meshes):
        self.meshes = meshes = tuple(meshes)
        n = len(meshes)
        self.bounded = any(m.closure < 0 for m in meshes)
        self.weights = np.concatenate([m.quad_weights for m in meshes])
        self._lu = None
        self._unit = None
        self._panels = self._geom = None
        if n == 1 and isinstance(meshes[0].shape, SphereParams):
            self._unit = _unit_sphere_blocks(meshes[0].level, False)
            self.A = self._unit.A
            self.S = meshes[0].shape.radius * self._unit.S
            self.S.setflags(write=False)
            return
        self._panels = parts = tuple(surface_panels(m) for m in meshes)
        offsets = np.cumsum([0] + [m.n_panels for m in meshes])
        blocks = [slice(offsets[k], offsets[k + 1]) for k in range(n)]
        A = np.empty((offsets[-1], offsets[-1]))
        S = np.empty_like(A)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                # points of a over panels of b: S block (a, b), and the
                # double-layer integrals whose weighted transpose is block (b, a)
                S_ab, K_ab, _ = _blocked(parts[a].points, parts[b],
                                         want_single=True, want_double=True)
                S[blocks[a], blocks[b]] = S_ab
                A[blocks[b], blocks[a]] = (
                    K_ab.T * (parts[a].weights[None, :] / parts[b].weights[:, None]))
        for mesh, part, blk in zip(meshes, parts, blocks):
            shape = mesh.shape
            if isinstance(shape, (SphereParams, CavitySphere)):
                unit = _unit_sphere_blocks(mesh.level, isinstance(shape, CavitySphere))
                A[blk, blk] = unit.A
                S[blk, blk] = shape.radius * unit.S
            else:
                A[blk, blk], S[blk, blk] = _self_blocks(part)
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


def _surfaces(config: Configuration):
    """Shape behind each mesh of configuration_meshes(config)."""
    return config.bubbles + ((config.domain,) if config.bounded else ())


# ---------------------------------------------------------------------------
# solutions for arbitrary data


@dataclass(frozen=True)
class PotentialSolution:
    """Single-layer density with cached boundary values of the potential."""

    density: np.ndarray
    meshes: tuple
    boundary_potential: np.ndarray
    boundary_data: np.ndarray
    geometry: PanelGeometry
    condition: float | None = None


def solve_neumann(meshes, boundary_data) -> PotentialSolution:
    """Solve the collocation system of the surfaces ``meshes`` (the bubbles,
    then the wall in cavity mode) for one data vector: the normal velocity
    at their collocation points, one entry per panel."""
    meshes = tuple(meshes)
    g = np.asarray(boundary_data, dtype=float)
    n = sum(m.n_panels for m in meshes)
    if g.shape != (n,):
        raise ValueError(f"boundary data length {g.shape} != panel count {n}")
    asm = _Assembly(meshes)
    q, phi = asm.solve(g)
    return PotentialSolution(density=q, meshes=meshes, boundary_potential=phi,
                             boundary_data=g, geometry=asm.geom,
                             condition=1.0 / max(asm.rcond(), 1e-300))


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
                       density=solution.density[:, None])
    g = g[:, :, 0]
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
    """Boundary data matrix (N, n) for the packed velocity directions that
    are the columns of ``directions`` (p, n): the block-diagonal
    normal-velocity basis of the bubbles times ``directions``, zero on the
    wall."""
    basis = sla.block_diag(*(normal_velocity_basis(b, m.quad_points, m.quad_normals)
                             for b, m in zip(config.bubbles, meshes)))
    G = np.zeros((sum(m.n_panels for m in meshes), directions.shape[1]))
    G[:len(basis)] = basis @ directions
    return G


@dataclass(frozen=True)
class AddedMassMatrix:
    """Gram matrix of the basis potential gradients along the columns of
    ``basis`` (shapes.constraint_basis of ``config``), scaled by the
    liquid density.  ``asymmetry`` is the relative reciprocity defect
    before symmetrization; ``eigenvalues`` the spectrum after.
    ``assembly`` holds the collocation system it was computed from
    (meshes, matrices and factorization), whose LU the rates reuse;
    ``data``, ``density`` and ``potential`` are the basis velocities'
    boundary data, densities and boundary potentials, one column per
    basis column (read-only)."""

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
        """Condition of the collocation matrix in the 1-norm, as LAPACK's
        estimate (gecon) from the LU factors: an estimate, not the exact
        condition number, which can differ in its last bits between runs
        on equal inputs.  It is computed once per factorization."""
        return 1.0 / max(self.assembly.rcond(), 1e-300)

    @property
    def kinetic(self) -> np.ndarray:
        """The kinetic matrix over all packed velocities: B A B^T with B
        the basis matrix, ``matrix`` itself in unbounded liquid (B = I)."""
        B = self.basis.matrix
        return B @ self.matrix @ B.T if self.basis.constrained else self.matrix

    @cached_property
    def rates(self):
        """The rates of the basis potentials and of the data the Gram
        matrix weighs them with, along every parameter slot
        (_potential_rates; its arrays read-only), built on first use and
        kept, as the assembly keeps its LU: the Jacobian and the boundary
        residual of one state share them."""
        return tuple(_frozen(r) if isinstance(r, np.ndarray) else r
                     for r in _potential_rates(self))


def added_mass(config: Configuration, level: int, liquid_density: float = 1.0,
               wall_level=None) -> AddedMassMatrix:
    """Added-mass matrix A_ij = -rho * sum(phi^i g_j w) over the bubble
    panels (Green reduction of the volume Gram integral), symmetrized,
    with i and j running over the columns of shapes.constraint_basis(config):
    the packed parameters in unbounded liquid, an orthonormal basis of the
    volume-preserving velocities in a cavity.  ``kinetic`` is the matrix
    over all packed velocities.
    """
    asm = _Assembly(configuration_meshes(config, level, wall_level))
    basis = constraint_basis(config)
    G = _direction_data(config, asm.meshes, basis.matrix)
    Q, Phi = asm.solve(G)
    raw = -liquid_density * (Phi.T * asm.weights[None, :]) @ G
    scale = np.abs(raw).max() + 1e-300
    asym = float(np.abs(raw - raw.T).max() / scale)
    A = 0.5 * (raw + raw.T)
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0.0:
        raise DiscretizationError(
            f"added-mass matrix not positive definite at level {level}; "
            f"eigenvalues {eig}", eigenvalues=eig)
    return AddedMassMatrix(matrix=A, basis=basis,
                           liquid_density=liquid_density, asymmetry=asym,
                           eigenvalues=eig, config=config, assembly=asm,
                           **{name: _frozen(a) for name, a in
                              (("data", G), ("density", Q), ("potential", Phi))})


def _projector_derivatives(config):
    """Derivatives of the projector P = I - l l^T / |l|^2 onto the
    volume-preserving velocities (l the volume gradient) along every
    parameter slot, from the volume Hessian, (p, p, p); None in unbounded
    liquid, where P = I."""
    if not config.bounded:
        return None
    ell = volume_gradient(config)
    n2 = ell @ ell
    L = np.outer(ell, ell) / n2
    dP = []
    for dl in volume_hessian(config).T:
        dP.append(2.0 * (dl @ ell) / n2 * L - (np.outer(dl, ell) + np.outer(ell, dl)) / n2)
    return np.array(dP)


# the unit slot matrices E of an ellipsoid's six matrix slots
_SLOT_MATRICES = np.array([symmetric_matrix(e) for e in np.eye(6)])


@dataclass(frozen=True)
class _SlotMotion:
    """How an ellipsoid's surface moves along its six matrix slots: the
    slot E = _SLOT_MATRICES[t] takes S to S + E, and every point of the
    surface c + S y (the reference direction y = S^-1 (x - c) fixed) moves
    by E y = G (x - c), G = E S^-1, its panel corners alike.  Each field
    has the slots first."""

    maps: np.ndarray        # (6, 3, 3) the linear maps G = E S^-1
    normals: np.ndarray     # (6, N, 3) rates of the unit normals
    weights: np.ndarray     # (6, N) log-rates of the patch weights
    area: np.ndarray        # (6, N) log-rates of the flat panel areas

    @property
    def lift(self):
        """Log-rates of the lift, patch weight / flat area."""
        return self.weights - self.area


def _slot_motion(bubble, panels: PanelGeometry) -> _SlotMotion:
    """_SlotMotion of the ellipsoid ``bubble`` with panel data ``panels``.

    A normal of the image surface is S^-1 u for the normal u of the
    reference surface, so with S^-1 E n the stretch of a unit normal n,
    n moves by -(I - n n^T) S^-1 E n and the length |S^-1 u|, which
    scales the patch weights det(S) |S^-1 u| omega, by -n.S^-1 E n
    relative to itself.  A flat panel's area obeys the same law with its
    flat normal nh in place of n."""
    G = _SLOT_MATRICES @ np.linalg.inv(bubble.shape_matrix)
    trace = np.trace(G, axis1=1, axis2=2)[:, None]
    n, nh = panels.normals, panels.unit_normal
    stretch = n @ G
    along = _dot(stretch, n)
    return _SlotMotion(maps=G, normals=n * along[..., None] - stretch,
                       weights=trace - along, area=trace - _dot(nh @ G, nh))


def _pair_sum(Q):
    """The components of the (..., 3, 3) tensors Q on _PAIRS, each
    off-diagonal one plus its transpose: G : T = _pair_sum(G) . T[_PAIRS]
    for a symmetric T."""
    k, l = _PAIRS.T
    return np.where(k == l, Q[..., k, l], Q[..., k, l] + Q[..., l, k])


def _edge_coefficients(A, v, geom):
    """Coefficients of V.((a - x) x (b - x)) = V.(a x b) - (V x x).(b - a)
    on the monomials of _panel_blocks ``moments`` (1, x_k, then x_k x_l on
    _PAIRS) for the affine point fields V = A x + v, (n, 3, 3) and
    (n, 3): (n, 3, N, 10) by field, edge a -> b and panel.  The quadratic
    part is -x^T Q x with the rows Q_l = (b - a) x A e_l."""
    ab, D = geom.edge_cross, geom.edge_vector
    const = (ab @ v.T).transpose(2, 0, 1)
    linear = ab @ A[:, None] - _cross(D, v[:, None, None])
    Q = _cross(D[:, :, None], A.transpose(0, 2, 1)[:, None, None])
    return np.concatenate([const[..., None], linear, -_pair_sum(Q)], axis=-1)


def _along(V, grad):
    """V . grad point by point: (n, M, 3) and (M, 3, p) to (n, M, p)."""
    return (V.transpose(1, 0, 2) @ grad).transpose(1, 0, 2)


def _on_panels(C, F):
    """Coefficients (n, 3, N, J) on moments (3, N, J, p), summed over the
    edges and monomials panel by panel: (n, N, p)."""
    n, _, N, J = C.shape
    return (C.transpose(2, 0, 1, 3).reshape(N, n, 3 * J)
            @ F.transpose(1, 0, 2, 3).reshape(N, 3 * J, -1)).transpose(1, 0, 2)


def _block_rates(x, geom, X, Y, A, v, corners=None):
    """Rates of S X and of K^T Y for the block of the points ``x`` over the
    panels ``geom``, X (N, p) the panels' densities and Y (M, p) the
    points' weighted densities: (n, M, p) and (n, N, p), one per motion,
    the lift held.  First the affine point fields V = A x + v (A and v
    (n', 3, 3) and (n', 3)) with the panels fixed; then, with
    ``corners`` = (G, c), the panels deforming by the linear maps G (six,
    their corners y moving by G (y - c)) with the points fixed.

    Everything comes from one _panel_blocks pass, contracted on the way:
    d_V (S X) = V . grad(S X); a deformation is G about each point x plus
    the shift G (x - c), so d_G (S X) = G : T - grad(S X) . G (x - c);
    and the rates of K^T Y are the moments F (Fa) contracted with the
    coefficients of the edge terms: _edge_coefficients for the point
    fields, and for the panels the same coefficients of the constant
    vectors u = G (y - c) of each edge's ends, on the moments of g_a and
    g_b = f_e - g_a, negated."""
    C = _edge_coefficients(A, v, geom)
    degree = 2 if C[..., 4:].any() else 1  # x_k x_l only for A not a multiple of I
    _, _, grad, T, F, Fa = _blocked(x, geom, want_single=False, want_double=False,
                                    density=X, tensor=None if corners is None else X,
                                    moments=Y, degree=degree)
    dS = [_along(x @ A.transpose(0, 2, 1) + v[:, None], grad)]
    dK = [_on_panels(C[..., :F.shape[2]], F)]
    if corners is not None:
        G, c = corners
        dS.append(np.tensordot(_pair_sum(G), T, axes=(1, 1))
                  - _along((x - c) @ G.transpose(0, 2, 1), grad))
        u = (geom.corners - c) @ G[:, None].transpose(0, 1, 3, 2)
        ab, D = geom.edge_cross, geom.edge_vector
        Ca, Cb = (np.concatenate([_dot(ue, ab)[..., None], -_cross(D, ue)], axis=-1)
                  for ue in (u, u[:, [1, 2, 0]]))
        dK.append(-_on_panels(Ca - Cb, Fa) - _on_panels(Cb, F[:, :, :4]))
    return (np.concatenate(dS), np.concatenate(dK) * (geom.lift / (4.0 * np.pi))[:, None])


def _own_double_layer_rates(panels: PanelGeometry, motion: _SlotMotion, X):
    """Rates of an ellipsoid's own block 1/2 I + K' (the point kernel of
    _self_blocks) along its matrix slots, applied to X: (6, N, p).

    Off the diagonal the block is g_ab w_b with the adjoint kernel
    g_ab = (x_a - x_b).n_a R_ab, R_ab = 1 / (4 pi r_ab^3), differentiated
    entry by entry; the Gauss closure makes the diagonal
    1/2 + closure - sum_j g_ja w_j, whose rate is minus the weighted column
    sum of the off-diagonal rates.  Along a slot the points move by
    G (x - c) and the normals by dn, so with d = x_a - x_b
        dg_ab = (n_a^T G + dn_a^T) d R_ab - (d^T G d) H_ab,
    H_ab = 3 g_ab / r_ab^2: the products of the three matrices d_l R and
    the six d_k d_l H (on _PAIRS) with Y = w X, and their weighted column
    sums, serve all six slots."""
    pts, n, w = panels.points, panels.normals, panels.weights
    N = len(w)
    d = pts.T[:, :, None] - pts.T[:, None, :]
    r2 = np.einsum('kab,kab->ab', d, d)
    np.fill_diagonal(r2, 1.0)
    R = 1.0 / (4.0 * np.pi * r2 ** 1.5)
    g = np.einsum('kab,ak->ab', d, n) * R
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(R, 0.0)
    H = 3.0 * g / r2
    ddH = np.empty((6, N, N))
    for out, (k, l) in zip(ddH, _PAIRS):
        np.multiply(d[k], d[l], out=out)
        out *= H
    dR = np.multiply(d, R, out=d)
    G, dw = motion.maps, motion.weights * w
    c = n @ G + motion.normals  # (6, N, 3), the factors of d_l R by slot
    Y = w[:, None] * X
    RY, HY = dR @ Y, ddH @ Y
    dgY = ((c.transpose(0, 2, 1)[..., None] * RY).sum(axis=1)
           - np.tensordot(_pair_sum(G), HY, axes=(1, 0)))
    # w^T dg
    wdg = ((w * c.transpose(2, 0, 1)) @ dR).sum(axis=0) - _pair_sum(G) @ (w @ ddH)
    return dgY + g @ (motion.weights[:, :, None] * Y) - (wdg + dw @ g)[:, :, None] * X


def _potential_rates(mass: AddedMassMatrix):
    """Rates along every parameter slot of the basis potentials S X of
    ``mass`` at its collocation points, which move with the bubbles, and of
    the data the Gram matrix weighs them with: (dPhi, dw, GdP, matrix, dGP),
    d(S X) (p, N, p), the weights' (p, N), G dP (None in unbounded liquid)
    and dG P along the ellipsoid matrix slots ``matrix`` (None if none).
    Here X = M^-1 G P, M = 1/2 I + K' and S the assembled matrices, G the
    canonical direction data and P = B B^T the projector onto the
    volume-preserving velocities (I in unbounded liquid), B the basis
    matrix.  Along every slot, with the LU of ``mass`` and no other,

        dX = M^-1 (dG P + G dP - dM X),    d(S X) = dS X + S dX,

    with no flux shift on the derivative solve: its data is not flux free,
    and shifting it would bias the rates.  Every rate is an exact
    derivative of the discrete operator; only the moved bubble's rows and
    columns of M and S change, and dM X and dS X come block by block,
    already applied to X: one _panel_blocks pass per ordered pair of
    surfaces with a bubble among them gives the rates of the cross block
    along every slot at once (_block_rates), and one more per ellipsoid
    its own S block's:

    * translating bubble k along axis e: +d_e where k owns the points,
      -d_e where it owns the panels; self-blocks, weights and G are fixed;
    * the radius r of sphere k: d_V with V = (x - c)/r where k owns the
      points; where it owns the panels, the scaling laws of the panel
      integrals about c (degree 1 for S, 0 for the solid angle) give
      dS = (S - d_{x-c} S)/r and dK = -d_{x-c} K/r; the self-blocks give
      dS_kk = S_kk/r, dM_kk = 0; and the weights dw_k = 2 w_k/r, which
      enter the weighted transpose in M and the Gram matrix;
    * the matrix slot E of ellipsoid k (_SlotMotion): points and panel
      corners move by G (x - c), G = E S^-1; where k owns the points,
      d_{G (x - c)} and the weights' rate in the weighted transpose; where
      it owns the panels, the panels' deformation, the lift's rate in S
      and the flat area's in the weighted transpose (the panel weight
      cancels there); its S self-block with points and corners moving
      together, G : T (_panel_blocks ``tensor``); its point-kernel M
      self-block entry by entry (_own_double_layer_rates); and dG from
      the normals' rate alone, since y is fixed.

    No mesh is built and no matrix assembled.
    """
    config, asm = mass.config, mass.assembly
    p, nb = config.dim, config.n_bubbles
    dP = _projector_derivatives(config)
    B = mass.basis.matrix
    X = mass.density @ B.T  # from the solution for G B
    w = asm.weights
    offsets = np.cumsum([0] + [m.n_panels for m in asm.meshes])
    blocks = [slice(offsets[k], offsets[k + 1]) for k in range(len(asm.meshes))]
    dSX = np.zeros((p, len(w), p))
    dMX = np.zeros_like(dSX)
    dw = np.zeros((p, len(w)))
    dG = np.zeros_like(dSX)
    matrix = []  # the ellipsoid matrix slots
    motions, slots = {}, {}  # per ellipsoid: its _SlotMotion and its matrix slots
    for k, (bubble, sl) in enumerate(zip(config.bubbles, config.slices())):
        blk = blocks[k]
        if isinstance(bubble, SphereParams):
            t, r = sl.start + 3, bubble.radius
            dSX[t, blk] = asm.S[blk, blk] @ X[blk] / r
            dw[t, blk] = 2.0 * w[blk] / r
            continue
        t = slots[k] = slice(sl.start + 3, sl.stop)
        matrix += range(t.start, t.stop)
        part = asm.panels[k]
        mo = motions[k] = _slot_motion(bubble, part)
        # points and corners move together: the lift's rate and G : T
        _, _, _, T, _, _ = _blocked(part.points, part, want_single=False, want_double=False,
                                    tensor=X[blk])
        dSX[t, blk] = (asm.S[blk, blk] @ (mo.lift[:, :, None] * X[blk])
                       + np.tensordot(_pair_sum(mo.maps), T, axes=(1, 1)))
        dMX[t, blk] = _own_double_layer_rates(part, mo, X[blk])
        dw[t, blk] = mo.weights * w[blk]
        for i, dn in enumerate(mo.normals):
            dG[t.start + i, blk, sl] = normal_velocity_basis(bubble, part.points, dn)

    # each ordered pair of surfaces (a, b) with a bubble among them: the
    # derivatives of the block of a's points over b's panels along the
    # three axes (a's translations, and b's with the sign flipped), the
    # radial fields of the spheres and the matrix slots of the ellipsoids
    # (a's as point velocities, b's as corner velocities).  A lone surface
    # has no such pair (and a lone sphere no panel data).
    parts = asm.panels if len(asm.meshes) > 1 else ()
    for a, b in ((a, b) for a in range(len(parts)) for b in range(len(parts)) if a != b):
        # the affine point fields A x + v: the three axes, then per bubble
        fields = [(np.zeros((3, 3)), e) for e in np.eye(3)]
        uses = []  # (slot, field, sign, sphere radius for a radius slot)
        for k, sign in ((a, 1.0), (b, -1.0)):
            if k >= nb:
                continue
            bubble, start = config.bubbles[k], config.slices()[k].start
            uses += [(start + j, j, sign, None) for j in range(3)]
            if isinstance(bubble, SphereParams):
                uses.append((start + 3, len(fields), sign, bubble.radius))
                # a's sphere moves its points along (x - c)/r; the scaling
                # law of b's panels takes the rates along x - c
                s = 1.0 / bubble.radius if k == a else 1.0
                fields.append((s * np.eye(3), -s * bubble.center))
            elif k == a:
                uses += [(start + 3 + i, len(fields) + i, sign, None) for i in range(6)]
                fields += [(G, -G @ bubble.center) for G in motions[a].maps]
        Da, Db = blocks[a], blocks[b]
        corners = (motions[b].maps, config.bubbles[b].center) if b in motions else None
        dS_X, dK_X = _block_rates(parts[a].points, parts[b], X[Db], w[Da, None] * X[Da],
                                  *map(np.array, zip(*fields)), corners)
        dK_X /= w[Db, None]
        for t, i, sign, r in uses:
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
        if a in motions:
            # w_a in the weighted transpose
            dMX[slots[a], Db] += asm.A[Db, Da] @ (motions[a].weights[:, :, None] * X[Da])
        if b in motions:
            # b's corners; its lift in S, and lift / w_b = 1 / area in M
            t, n, mo = slots[b], len(fields), motions[b]
            dSX[t, Da] += dS_X[n:] + asm.S[Da, Db] @ (mo.lift[:, :, None] * X[Db])
            dMX[t, Db] += dK_X[n:] - mo.area[:, :, None] * (asm.A[Db, Da] @ X[Da])

    dGP = dG[matrix] @ B @ B.T if matrix else None
    GdP = None if dP is None else _direction_data(config, asm.meshes, np.eye(p))[None] @ dP
    rhs = -dMX if GdP is None else GdP - dMX
    if matrix:
        rhs[matrix] += dGP
    dPhi = dSX
    if rhs.any():  # a lone unbounded sphere's is zero
        dX = sla.lu_solve(asm.factorization().lu,
                          rhs.transpose(1, 0, 2).reshape(len(w), -1), check_finite=False)
        if not np.all(np.isfinite(dX)):
            raise IllPosedProblemError("added-mass Jacobian solve produced non-finite values")
        dPhi = dSX + (asm.S @ dX).reshape(len(w), p, p).transpose(1, 0, 2)
    return dPhi, dw, GdP, matrix, dGP


def added_mass_jacobian(mass: AddedMassMatrix) -> np.ndarray:
    """Parameter Jacobian of the kinetic matrix K = sym(-rho (S X)^T W G P)
    of ``mass`` (AddedMassMatrix.kinetic; W the quadrature weights, the
    rest as in _potential_rates), shape (p, p, p) with the first index the
    differentiated parameter: along every slot

        dK = sym(-rho [d(S X)^T W G P + (S X)^T dW G P + (S X)^T W (dG P + G dP)]).

    G P is flux free at every configuration, so the constant potential
    that the cavity system leaves undetermined never shows."""
    dPhi, dw, GdP, matrix, dGP = mass.rates
    B, w = mass.basis.matrix, mass.assembly.weights
    GP, Phi = mass.data @ B.T, mass.potential @ B.T
    raw = dPhi.transpose(0, 2, 1) @ (w[:, None] * GP) + Phi.T @ (dw[:, :, None] * GP)
    if GdP is not None:
        raw += Phi.T @ (w[:, None] * GdP)
    if matrix:
        raw[matrix] += Phi.T @ (w[:, None] * dGP)
    raw *= -mass.liquid_density
    return 0.5 * (raw + raw.transpose(0, 2, 1))
