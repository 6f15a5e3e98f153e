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
  except for S, which scales with the length.  A spherical bubble's
  self-blocks are therefore those of the unit bubble of the same level,
  with S times the radius; the unit pair is computed once per level and
  kept read-only.  They are invariant under the 60 rotations that map
  the icosphere onto itself (shapes.icosphere_symmetry), so their rows
  are computed at one panel per orbit (22 of 1280 at level 3) and the
  others filled in by the rotations' panel permutations (_self_blocks).
* A cavity wall does not move, so its own blocks are a constant of the
  run: they are built with its panel data, on the wall's own panels,
  once per level, and kept read-only by the run's Operator, which no
  other run shares.  A spherical wall's take one panel per orbit of the
  same group, an ingested wall's every panel.
* A lone sphere's 1/2 I + K' is the unit sphere's block itself, so its LU
  factorization is kept with the unit pair and serves every lone sphere
  of the level, whether its added mass or a solve_neumann asks: one
  factorization per level in a one-sphere run.
* A lone sphere's solution for its four parameter rates is the unit
  sphere's, scaled: the data [n, 1] has the same bits, so the density is
  the unit's, the potential is the radius times the unit's, and the
  surface gradient is scale-free.  The unit sphere keeps that basis
  solution, built by one solve and one gradient pass per level, the pass
  again at one panel per orbit (_UnitSphere.basis), so a lone sphere's
  added mass, Jacobian and boundary-residual sample take O(N) work and
  form no N x N array; its assembly holds no S.

Every block integrates over the panels of one surface, and the terms of
the flat-panel integrals that depend on those panels alone (corner dots
and crosses, unit normals, edge lengths and in-plane edge normals) are
computed once per surface, when its PanelGeometry is built, leaving point-
panel products to each block.  An assembly keeps one PanelGeometry per
surface, the only panel format; no other module calls the panel integrals.
A cavity wall's PanelGeometry is built with its own blocks (Operator), and
the unit bubble's with its blocks (_UnitSphere).

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
translation moves a bubble rigidly; every other slot moves its points and
corners alike by one linear map G (shapes.slot_maps): I / r for a sphere
radius, which scales it, and E S^-1 for an ellipsoid matrix slot E, which
deforms it.  The rates come contracted with the densities: no rate
block is formed per slot.  The single layer's point rates are the
gradient of S X, a panel's deformation by the linear map G its
symmetric tensor T (G : T), and the solid angle's rates the moments of
its edge terms over the points, so each block takes one kernel pass
plus products whose width grows with the number of parameters, not with
the number of slots.  The Jacobian takes the added mass alone and builds
no mesh.

How a block's rates are contracted.  Every slot moves a block's points
and panels by one field [v | A | G] (_block_rates).  The kernel terms
come stacked by family (_Kernel), and each family meets its per-panel
factors (PanelGeometry) in one batched product and its cotangent weights
in one more: omega and L_e for grad(S X), ten terms for T, and f_e and
g_a for the moments, which the panels' edge maps sum into a (3, 7) array
per panel.  The slots' fields then enter through one small product, so
a pass makes the same few dozen numpy calls at every mesh level.

The equations of motion read only two contractions of the Jacobian with
the velocity v, the tangent (d_v K) v and the gradient
grad_q (1/2 v^T K v) (velocity_rates), and the boundary residual the
rate of the potentials along v applied to v.  Those take the same passes
applied to the one density X v (width one), one solve and one transposed
solve of one column, and the rows u^T d_v S and z^T d_v M that the passes
sum in the other order (_Cotangent), so that no (p, N, p) array is
formed; the added mass keeps them for the last velocity, which a state's
acceleration and residual share.

A block's rate pass reads the kernel terms of its points and panels
(_kernel), which the assembly's pass of the same block has just computed.
So an added mass with rates keeps them, for each pair of surfaces and an
ellipsoid's own block, and the rate pass reads and releases them
(_Assembly.take_terms).  They are kept only where the rate pass takes a
block in one row block (_rate_rows), every block up to level 2, and up
to what one rate pass may hold, 42 MB an assembly (_Assembly._keep).  A
block of M x N points and panels keeps 7 (M, N) planes, and 13 where
another surface's points meet an ellipsoid's panels, which deform; an
ellipsoid's own block keeps 7, not the offsets x - y of its point
kernel.  For two spheres in a cavity, bubbles and wall at level 1, that
is 2.2 MB; at level 2, 34 MB; for two ellipsoids, 2.0 MB and 33 MB.

Every solve of a collocation system goes through its _Factorization,
which owns the system's LU, solves with it and tests the results (a
non-finite value, a numerically singular matrix), so that a change to how
the system is factored or solved is made in that one class.  Every solve
returns a PotentialSolution: the data, the densities and the boundary
potentials, with the assembly that solved for them.
solve_neumann takes arbitrary data on given meshes; the added mass is the
solution for the basis velocities' data with their Gram matrix added.
evaluate reads a solution off the surfaces through the same exact panel
integrals, one pass per surface (_field), so it holds next to them;
surface_gradient and the boundary residual impose the normal data on that
pass by one formula (_impose), and a lone sphere's residual on the unit
sphere's gradient (_basis_gradients).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _lapack as sla
from ._lapack import single_thread
from .errors import CompatibilityError, DiscretizationError, IllPosedProblemError
from .shapes import (SLOTS, CavitySphere, Configuration, ConstraintBasis,
                     MeshSymmetry, SphereParams, _cross, constraint_basis, icosphere_symmetry,
                     normal_velocity_basis, slot_maps, slot_sum, surface_mesh,
                     volume_hessian, wall_mesh)

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


@dataclass(frozen=True)
class PanelGeometry:
    """Panel data of one surface: the collocation quadrature, the Gauss
    closure of its own double-layer rows, every term of the flat-panel
    integrals that depends on the panels alone, built eagerly, and the
    per-panel factors of the kernel's stacked terms (_panel_blocks), built
    on first read.  All read-only."""

    closure: float            # mesh.closure: +1/2 on a bubble, -1/2 on a wall
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

    # threads reading a factor at once may each compute it: equal data

    @cached_property
    def gradient_factors(self) -> np.ndarray:
        """(4, N, 3) nh, -mhat_e: of omega and L_e in grad_x."""
        return _frozen(np.concatenate([self.unit_normal[None], -self.edge_normal]))

    @cached_property
    def edge_map(self) -> np.ndarray:
        """(3, N, 3, 4) per edge a -> b, E = [a x b | (b - a) x]:
        (a - x) x (b - x) = E (1, x)."""
        edge_map = np.zeros(self.edge_vector.shape + (4,))
        edge_map[..., 0] = self.edge_cross
        # (b - a) x w: rows 0-2, columns 1-3, entries +-(b - a)_k
        edge_map[..., [0, 0, 1, 1, 2, 2], [2, 3, 1, 3, 1, 2]] = (
            self.edge_vector[..., [2, 1, 2, 0, 1, 0]] * [-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
        return _frozen(edge_map)

    @cached_property
    def tensor_factors(self) -> np.ndarray:
        """(10, N, 6) of the terms of T on SLOTS, c (u w^T + w u^T) / 2:
        nh nh of h omega, -2 sym(mhat_e, nh) of h L_e, -mhat_e mhat_e of
        d_e L_e and sym(eh_e, mhat_e) of l_b - l_a."""
        nh, mhat = self.unit_normal, self.edge_normal
        k, l = SLOTS.T
        u = np.concatenate([nh[None], mhat, mhat, self.edge_vector / self.edge_length[..., None]])
        w = np.concatenate([nh[None], np.broadcast_to(nh, mhat.shape), mhat, mhat])
        factors = u[..., k] * w[..., l] + u[..., l] * w[..., k]
        factors *= 0.5 * np.array([1.0, -2, -2, -2, -1, -1, -1, 1, 1, 1])[:, None, None]
        return _frozen(factors)


def _dot(u, v):
    return np.einsum('...k,...k->...', u, v)


_EYE = np.eye(3)
# a symmetric 3 x 3 matrix from its SLOTS: entry (k, l) is slot _SYM[k, l]
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
# the product m_i m_j of m = (1, x_0, x_1, x_2) as its index among the
# moments' monomials (1, x_k, then x_k x_l on SLOTS), and as a 0/1 map
# from the 16 entries of a matrix on m m^T to the ten monomials
_PRODUCTS = np.array([[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]])
_MONOMIALS = (_PRODUCTS.reshape(16, 1) == np.arange(10)).astype(float)


def surface_panels(mesh) -> PanelGeometry:
    """Panel data of one surface."""
    corners = mesh.vertices[mesh.triangles.T]
    ends = corners[[1, 2, 0]]          # edges p0p1, p1p2, p2p0 run corners -> ends
    p0 = corners[0]
    nh = mesh.normal
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
    return PanelGeometry(closure=mesh.closure, **{k: _frozen(v) for k, v in arrays.items()})


class _Cotangent(NamedTuple):
    """Weights that _panel_blocks sums its rate terms against in the other
    order, over the points where the forward outputs sum over the panels:
    ``field`` (M, 3) with the gradient terms of ``density``, ``weight``
    (M,) and ``strain`` (6, on SLOTS) with the tensor terms of ``tensor``,
    and per panel ``coeffs`` (3, N, J) and ``corner_coeffs`` (3, N, 4) with
    the moment terms f_e and g_a of ``moments`` on their monomials.  Each
    pairs with the input named, and None leaves its part out."""

    field: np.ndarray | None = None
    weight: np.ndarray | None = None
    strain: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    corner_coeffs: np.ndarray | None = None


class _Kernel(NamedTuple):
    """The elementwise terms of the flat-panel integrals from points x over
    the panels of one surface (_kernel), stacked by family, each plane
    (M, N) and per edge a -> b in the order p0p1, p1p2, p2p0.  A pass of
    _panel_blocks reads ``grad``, with ``moments`` their f_e and, with a
    ``tensor``, also g_a and ``dl``; a term no pass of the block reads is
    None."""

    grad: np.ndarray            # (4, M, N): the signed solid angle omega, then
                                # L_e, the edge log integrals of 1/|x - y|
    moments: np.ndarray | None  # (3 or 6, M, N): f_e = (l_a + l_b) / (l_a l_b D_e),
                                # then with a tensor g_a = 1 / (l_a D_e)
    dl: np.ndarray | None       # (3, M, N): l_b - l_a, l the distances from x
                                # to the corners

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self if a is not None)


def _offsets(x, points):
    """The differences x - y (3, M, N) of the points ``x`` and ``points``,
    and their squared lengths (M, N), summed over the axes in order."""
    d = np.ascontiguousarray(x.T)[:, :, None] - np.ascontiguousarray(points.T)[:, None, :]
    r2 = d[0] * d[0]
    r2 += d[1] * d[1]
    r2 += d[2] * d[2]
    return d, r2


def _kernel(x, geom: PanelGeometry, moments=False, tensor=False) -> _Kernel:
    """_Kernel of the points ``x`` over the panels ``geom``: what a
    _panel_blocks pass with ``moments`` and (panels that deform) a
    ``tensor`` reads, computed elementwise from point-panel products.
    The one producer of the kernel terms, for the assembly's pass and the
    rate pass alike."""
    M, N = len(x), geom.n_panels
    xx = np.einsum('mk,mk->m', x, x)[:, None]
    # the products x.p of each corner, where the edge logs will be
    grad = np.empty((4, M, N))
    xv = [np.matmul(x, p.T, out=out) for p, out in zip(geom.corners, grad[1:])]
    # the corner distances sqrt(max(|x|^2 - 2 x.p + |p|^2, 0)), and the
    # edges' (a - x).(b - x) = a.b - x.a - x.b + |x|^2, each operation in
    # place (the bits of the plain expressions)
    lengths = []
    for xp, q in zip(xv, geom.corner_sq):
        t = np.multiply(xp, -2.0)
        t += xx
        t += q[None]
        np.maximum(t, 0.0, out=t)
        lengths.append(np.sqrt(t, out=t))
    dots = []
    for e, c in enumerate(geom.corner_dots):
        t = np.subtract(c[None], xv[e])
        t -= xv[(e + 1) % 3]
        t += xx
        dots.append(t)
    l0, l1, l2 = lengths

    # signed solid angle (van Oosterom-Strackee, expanded so that only
    # point-panel GEMMs appear): 2 atan2(num, den)
    num = np.matmul(x, geom.cross_sum.T, out=xv[0])
    np.subtract(geom.detv[None], num, out=num)
    den = np.multiply(l0, l1)
    den *= l2
    for d, l in zip(dots, (l2, l0, l1)):
        term = np.multiply(d, l, out=xv[1])
        den += term
    omega = np.arctan2(num, den, out=grad[0])
    omega *= 2.0
    del xv, num, term, den

    ends = ((l0, l1), (l1, l2), (l2, l0))
    # l_a + l_b, kept where f_e will be
    mom = np.empty((6 if tensor else 3, M, N)) if moments else None
    sums = [np.add(la, lb, out=None if mom is None else mom[e])
            for e, (la, lb) in enumerate(ends)]
    for ssum, le, L in zip(sums, geom.edge_length, grad[1:]):
        # stable symmetric form of the edge log integral of 1/|x-y|
        t = np.subtract(ssum, le[None])
        np.maximum(t, 1e-300, out=t)
        np.add(ssum, le[None], out=L)
        L /= t
        np.log(L, out=L)
    if moments:
        for e, ((la, lb), dab) in enumerate(zip(ends, dots)):
            # 1 / (l_a l_b D_e), times l_a + l_b for f_e and l_b for g_a
            inv = np.multiply(la, lb)
            dab += inv
            inv *= dab
            np.divide(1.0, inv, out=inv)
            mom[e] *= inv
            if tensor:
                np.multiply(lb, inv, out=mom[3 + e])
    dl = None
    if tensor:
        dl = np.empty((3, M, N))
        for e, (la, lb) in enumerate(ends):
            np.subtract(lb, la, out=dl[e])
    return _Kernel(grad=grad, moments=mom, dl=dl)


def _panel_blocks(x, geom: PanelGeometry, want_single, want_double, density=None,
                  tensor=None, moments=None, degree=1, cotangent=None, kernel=None):
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
      the lifted kernel factor, T_kl on SLOTS.  Deformed about x by the
      linear map G (its corners moving by G (y - x)), a panel's integral
      of 1/|x - y| changes by G : T with the symmetric tensor
          T = h omega nh nh^T + h (nh g^T + g nh^T)
              - sum_e d_e L_e mhat_e mhat_e^T + sum_e (l_b - l_a) sym(eh_e mhat_e^T),
      g = -sum_e L_e mhat_e, h = (x - p0).nh, d_e = (x - a).mhat_e, eh_e
      the unit edge a -> b and l_a, l_b the distances from x to its ends
      (trace T = the integral itself).
    * P, (N, 3, 4, p) for ``moments`` Y (M, p), (N, 3, 7, p) with a
      ``tensor``: per panel the edge sums [P_v | P_A | P_G] that give the
      rates of Y^T K along any field [v | A | G] as [v | A | G] : P.  A
      point moving along V changes the solid angle by the edge
      (Biot-Savart) sum of f_e V.((a - x) x (b - x)) over edges a -> b,
      f_e = (l_a + l_b) / (l_a l_b D_e), D_e = l_a l_b + (a - x).(b - x),
      and (a - x) x (b - x) = E_e m, E_e the edge map and m = (1, x); so
      along A x + v it changes by [v | A] : E_e F_e, F_e the moments
      sum_m f_e m m^T Y (the x x^T block only for ``degree`` 2: a field of
      degree 1 has A a multiple of I, whose x^T E x terms cancel).  The
      corners moving by G (y - c) change it by
      -(g_a W_a + g_b W_b).((a - x) x (b - x)), g_a = 1 / (l_a D_e) and
      g_a + g_b = f_e, which is G : P_G + (G c).P_v with
      P_G = sum_e E_e (Fa_e (b - a)^T - F_e b^T), Fa the moments of g_a.

    With a ``cotangent`` (_Cotangent) two more follow, the same bilinear
    forms taken in the other order: per panel (N,), the sum over the points
    of field . (the grad term) + weight (strain : T), and per point (M,),
    the sum over the edges and panels of f_e m_j(x) coeffs and
    g_a m_j(x) corner_coeffs (j < 4).

    The elementwise terms come from _kernel, or from ``kernel``, the same
    terms of these points and panels computed before (_Assembly.take_terms).
    """
    x = np.asarray(x, dtype=float)
    M, N = len(x), geom.n_panels
    if kernel is None:
        kernel = _kernel(x, geom, moments=moments is not None, tensor=tensor is not None)
    omega, logs = kernel.grad[0], kernel.grad[1:]

    K = omega * (geom.lift[None] / (4.0 * np.pi)) if want_double else None

    S = grad = T = P = None
    cot = _Cotangent() if cotangent is None else cotangent
    panel_sum, point_sum = np.zeros(N), np.zeros(M)
    scale = -geom.lift / (4.0 * np.pi)
    if want_single:
        # h omega - sum_e d_e L_e, h = (x - p0).nh and d_e = (x - a).mhat_e
        I = np.zeros((M, N))
        for L, mhat, am in zip(logs, geom.edge_normal, geom.edge_offset):
            I -= (x @ mhat.T - am[None]) * L
        I += (x @ geom.unit_normal.T - geom.plane_offset[None]) * omega
        S = I * (-geom.lift[None] / (4.0 * np.pi))
    if density is not None:
        # grad_x of the panel integral is omega nh - sum_e L_e mhat_e; c
        # carries the density and the lifted kernel constant
        c = np.asarray(density, dtype=float) * scale[:, None]
        factors = geom.gradient_factors[..., None] * c[None, :, None]
        grad = np.matmul(kernel.grad, factors.reshape(4, N, -1)).sum(axis=0)
        grad = grad.reshape(M, 3, -1)
        if cot.field is not None:
            panel_sum += np.einsum('tkn,tnk->n', np.matmul(cot.field.T, kernel.grad),
                                   geom.gradient_factors)
    if tensor is not None:
        # the first seven terms of T, h omega, h L_e and d_e L_e, in one
        # buffer, d_e written where d_e L_e will be
        terms = np.empty((7, M, N))
        np.multiply(kernel.grad, x @ geom.unit_normal.T - geom.plane_offset[None],
                    out=terms[:4])
        d = np.matmul(x, geom.edge_normal.transpose(0, 2, 1), out=terms[4:])
        d -= geom.edge_offset[:, None]
        d *= logs
        Xs = np.asarray(tensor, dtype=float) * scale[:, None]
        factors = (geom.tensor_factors[..., None] * Xs[None, :, None]).reshape(10, N, -1)
        T = np.matmul(terms, factors[:7]).sum(axis=0)
        T += np.matmul(kernel.dl, factors[7:]).sum(axis=0)
        T = T.reshape(M, 6, -1)
        if cot.weight is not None:
            strains = geom.tensor_factors @ cot.strain
            panel_sum += (np.matmul(cot.weight, terms) * strains[:7]).sum(axis=0)
            panel_sum += (np.matmul(cot.weight, kernel.dl) * strains[7:]).sum(axis=0)
    if moments is not None:
        Y = np.asarray(moments, dtype=float)
        J = 10 if degree == 2 else 4
        mono = np.empty((M, J))
        mono[:, 0] = 1.0
        mono[:, 1:4] = x
        if degree == 2:
            mono[:, 4:] = x[:, SLOTS[:, 0]] * x[:, SLOTS[:, 1]]
        mY = (mono[:, :, None] * Y[:, None]).reshape(M, -1)
        f = kernel.moments[:3]
        F = np.matmul(f.transpose(0, 2, 1), mY).reshape(3, N, J, -1)
        # per edge and panel the moments on m m^T, then with a tensor the
        # corner moments Fa (b - a)^T - F b^T
        Z = np.zeros((3, N, 4, 7 if tensor is not None else 4, Y.shape[1]))
        if J == 10:
            Z[:, :, :, :4] = F[:, :, _PRODUCTS]
        else:
            Z[:, :, 0, :4] = F
            Z[:, :, 1:, 0] = F[:, :, 1:]
        if tensor is not None:
            g = kernel.moments[3:]
            Fa = np.matmul(g.transpose(0, 2, 1), mY[:, :4 * Y.shape[1]]).reshape(3, N, 4, 1, -1)
            ends = geom.corners[[1, 2, 0]][:, :, None, :, None]
            np.multiply(Fa, geom.edge_vector[:, :, None, :, None], out=Z[:, :, :, 4:])
            Z[:, :, :, 4:] -= F[:, :, :4, None] * ends
        P = np.matmul(geom.edge_map, Z.reshape(3, N, 4, -1)).sum(axis=0)
        P = P.reshape(N, 3, -1, Y.shape[1])
        if cot.coeffs is not None:
            point_sum += (np.matmul(f, cot.coeffs).sum(axis=0) * mono).sum(axis=1)
        if cot.corner_coeffs is not None:
            point_sum += (np.matmul(kernel.moments[3:], cot.corner_coeffs).sum(axis=0)
                          * mono[:, :4]).sum(axis=1)
    panel_sum *= scale
    if tensor is None and moments is None:
        return S, K, grad
    return (S, K, grad, T, P) + (() if cotangent is None else (panel_sum, point_sum))


def _rate_rows(geom) -> int:
    """Rows of a rate pass over the panels ``geom`` (_blocked)."""
    return max(1, _ROW_BLOCK ** 2 // (16 * geom.n_panels))


def _blocked(x, geom, moments=None, cotangent=None, kernel=None, **kw):
    """Row-blocked wrapper around _panel_blocks to bound peak memory: the
    outputs of the points (S, K, grad, T, the cotangent's point sums) are
    stacked by rows, and those of the panels (P and the cotangent's panel
    sums), sums over the points, added up.  With rate terms a block holds
    about twenty (rows, N) arrays (13 kernel terms, 7 terms of T), so it
    has at most _ROW_BLOCK^2 / (16 N) rows (_rate_rows).  A ``kernel``
    (_Kernel of all the rows) serves a pass of one block; blocked rows
    compute their own."""
    M = len(x)
    rates = moments is not None or kw.get("tensor") is not None
    step = _rate_rows(geom) if rates else _ROW_BLOCK
    if M <= step:
        return _panel_blocks(x, geom, moments=moments, cotangent=cotangent, kernel=kernel, **kw)

    def rows(a, i):
        return None if a is None else a[i:i + step]

    outs = [_panel_blocks(x[i:i + step], geom, moments=rows(moments, i),
                          cotangent=None if cotangent is None else cotangent._replace(
                              field=rows(cotangent.field, i), weight=rows(cotangent.weight, i)),
                          **kw)
            for i in range(0, M, step)]
    return tuple(None if parts[0] is None else sum(parts) if k in (4, 5)
                 else np.concatenate(parts, axis=0) for k, parts in enumerate(zip(*outs)))


def _fill_index(symmetry: MeshSymmetry):
    """Flat gather index (N, N) of the blocks invariant under ``symmetry``
    from their rows at its representatives (R, N): row r carried by g is
    row perm[g, r], its entry c entry perm[g, c], with the one g per row
    that ``symmetry.element`` names.  Each row is gathered from its
    representative's, so each entry is written once; both blocks of a
    surface share the index."""
    inverse = np.argsort(symmetry.perm, axis=1)  # inverse[g, perm[g, c]] = c
    index = inverse[symmetry.element]
    index += symmetry.perm.shape[1] * symmetry.source[:, None]
    return index


def _self_blocks(panels: PanelGeometry, symmetry: MeshSymmetry | None = None, kernel=None):
    """Own-surface blocks (1/2 I + K', S) of one surface, from its panel
    data and, if the surface has one, a group of rotations that maps it
    onto itself (shapes.MeshSymmetry).  ``kernel`` is the _Kernel of the
    rows over the panels, if it is kept (_Assembly).

    The rotation carrying panel i onto panel perm[g, i] carries every
    point and panel with it, so both blocks are invariant:
    S[perm_g][:, perm_g] = S, and so is the double layer.  Their rows are
    computed at one panel per orbit and filled in from those by the
    permutations (_fill_index); with no ``symmetry`` every row is its own
    representative and nothing is filled.  The double-layer block uses the
    point kernel (whose weighted transpose collapses to the plain adjoint
    kernel and preserves the sphere's constant-density mode exactly), its
    diagonal closed by the Gauss row identity.
    """
    pts, w = panels.points, panels.weights
    reps = np.arange(len(pts)) if symmetry is None else symmetry.representatives
    x = pts[reps]
    S, _, _ = _blocked(x, panels, want_single=True, want_double=False, kernel=kernel)
    d, r2 = _offsets(x, pts)
    own = (np.arange(len(reps)), reps)
    r2[own] = 1.0
    K = np.einsum('kij,jk->ij', d, panels.normals)
    r3 = np.sqrt(r2)
    r3 *= r2
    K /= np.multiply(r3, -4.0 * np.pi, out=r3)
    K *= w[None, :]
    K[own] = 0.0
    K[own] = panels.closure - K.sum(axis=1)
    if symmetry is not None:
        index = _fill_index(symmetry)
        S, K = S.take(index), K.take(index)
    A = K.T * (w[None, :] / w[:, None])
    A[np.diag_indices_from(A)] += 0.5
    return A, S


class _Factorization:
    """The one owner of a collocation system's LAPACK work (sla is _lapack,
    not scipy.linalg): the LU of A, its solves (solve), the test of a
    solution (check), which every solve takes, and the reciprocal
    condition estimate (rcond, computed on first request and kept).  The LU is factored on one BLAS thread
    wherever it is asked for (inside dynamics.integrate or not), so that a
    lone sphere's, shared by every later call, has the same bits whoever
    first asked; an exactly zero pivot raises IllPosedProblemError.  The LU
    is read-only, in LAPACK's form, and read by sla alone.

    A cavity's matrix has a one-dimensional near-kernel whose rcond falls
    with refinement (the shipped two_bubble_cavity: 3.1e-9, 1.5e-11,
    6.4e-13 at levels 1-3), so the rcond threshold would refuse fine
    meshes; it is skipped for a cavity with any surface of ``meshes``
    finer than level 0.  At level 0 the LU no longer resolves the other
    modes (3e-17, and the Jacobian is off a central difference by its own
    size)."""

    def __init__(self, A, meshes=()):
        try:
            with single_thread():
                self._lu = sla.lu_factor(A)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise IllPosedProblemError(f"collocation matrix factorization failed: {exc}")
        for a in self._lu:
            a.setflags(write=False)
        self._A = A
        self._near_kernel = (any(m.closure < 0 for m in meshes)
                             and any(m.level != 0 for m in meshes))

    def solve(self, b, trans=0):
        """A^-1 b (``trans`` 0) or A^-T b (1), shaped as ``b`` and checked."""
        x = sla.lu_solve(self._lu, b, trans=trans)
        self.check(x)
        return x

    def check(self, x):
        """Raise IllPosedProblemError for a non-finite solution ``x`` or a
        numerically singular A (rcond < 1e-13, where the near-kernel rule
        does not exempt it)."""
        if not np.isfinite(x).all():
            raise IllPosedProblemError("collocation solve produced non-finite values",
                                       condition=1.0 / max(self.rcond, 1e-300))
        if not self._near_kernel and self.rcond < 1e-13:
            raise IllPosedProblemError(
                f"collocation matrix numerically singular (rcond={self.rcond:.2e})",
                condition=1.0 / max(self.rcond, 1e-300))

    @cached_property
    def rcond(self) -> float:
        # threads asking at once may each compute it: the same value
        return sla.rcond(self._lu, np.abs(self._A).sum(axis=0).max())


_UNIT_BUBBLE = SphereParams(center=np.zeros(3), radius=1.0)


class _UnitBasis(NamedTuple):
    """The unit sphere's solution for the data of its four parameter
    rates (centre, then radius), each array (N, 4) or (N, 3, 4) with one
    column per rate and read-only."""

    data: np.ndarray       # G = [n, 1], the normal velocities
    density: np.ndarray    # X = A^-1 G
    potential: np.ndarray  # S X
    gradient: np.ndarray   # (N, 3, 4) raw fluid-side gradient of S X at the points


class _UnitSphere:
    """Read-only panel data and self-blocks (A, S) of the unit bubble at the
    origin at one level, and the factorization of A and the basis
    solution, each built on first use.  A lone sphere's collocation matrix
    is this A itself.  The icosphere's rotation group
    (shapes.icosphere_symmetry) maps the unit sphere onto itself, so the
    blocks and the basis gradient take their panel passes at one panel per
    orbit: 1, 2, 6 and 22 of 20, 80, 320 and 1280 at levels 0-3."""

    def __init__(self, level: int):
        self.symmetry = icosphere_symmetry(level)
        self.panels = surface_panels(surface_mesh(_UNIT_BUBBLE, level))
        self.A, self.S = map(_frozen, _self_blocks(self.panels, self.symmetry))
        self._lu = self._basis = None

    def factorization(self) -> _Factorization:
        with _UNIT_SPHERE_LOCK:
            if self._lu is None:
                self._lu = _Factorization(self.A)
        return self._lu

    def basis(self) -> _UnitBasis:
        """The basis solution, built on first use by one solve and one
        gradient pass over the unit's panel data.  The pass is taken at the
        orbit representatives alone: rotation R carries the data [n, 1] as a
        vector and a scalar, R^ = diag(R, 1), so the gradient at panel
        perm[g, r] is R_g grad[r] R^_g^T.  It is built on one BLAS thread,
        as the LU is, so that it has the same bits whoever first asked."""
        lu = self.factorization()
        with _UNIT_SPHERE_LOCK:
            if self._basis is None:
                sym, panels = self.symmetry, self.panels
                G = normal_velocity_basis(_UNIT_BUBBLE, panels.points, panels.normals)
                with single_thread():
                    X = lu.solve(G)
                    _, _, rows = _blocked(panels.points[sym.representatives], panels,
                                          want_single=False, want_double=False, density=X)
                    R = sym.rotations[sym.element]
                    grad = R @ rows[sym.source]
                    grad[:, :, :3] = grad[:, :, :3] @ R.transpose(0, 2, 1)
                    self._basis = _UnitBasis(*map(_frozen, (G, X, self.S @ X, grad)))
        return self._basis


_UNIT_SPHERE_BLOCKS = {}
_UNIT_SPHERE_LOCK = threading.Lock()


def _unit_sphere_blocks(level: int) -> _UnitSphere:
    """The unit bubble's blocks, built on first use, one per level and
    process."""
    with _UNIT_SPHERE_LOCK:
        if level not in _UNIT_SPHERE_BLOCKS:
            _UNIT_SPHERE_BLOCKS[level] = _UnitSphere(level)
        return _UNIT_SPHERE_BLOCKS[level]


class Operator:
    """The fixed surfaces of one run, in its cavity ``domain``: each wall
    mesh's panel data and own blocks (1/2 I + K', S), built on first use,
    one per level, and kept read-only.  A spherical wall's blocks are
    taken at one panel per orbit of the icosahedral group
    (shapes.icosphere_symmetry), an ingested wall's at every panel.  It
    holds no lock: a run is one thread, and two runs have two operators."""

    def __init__(self, domain):
        self.domain = domain
        self._walls = {}

    def wall(self, mesh):
        """The panel data and own blocks of ``mesh``, a wall of this
        operator's domain; a wall of another domain is refused."""
        if mesh.shape is not self.domain:
            raise ValueError("the wall mesh is not of this operator's domain")
        if mesh.level not in self._walls:
            panels = surface_panels(mesh)
            sphere = isinstance(self.domain, CavitySphere)
            blocks = _self_blocks(panels, icosphere_symmetry(mesh.level) if sphere else None)
            self._walls[mesh.level] = panels, tuple(map(_frozen, blocks))
        return self._walls[mesh.level]


class _Assembly:
    """Collocation system of one set of surfaces: the matrices
    (1/2 I + K', S), built block by block, the panel data of each surface,
    and the LU factorization of 1/2 I + K', built by the first solve.  The
    shape behind each surface is its mesh's ``shape``.  A sphere's own
    blocks are its unit sphere's, S times the radius; a cavity wall's, with
    its panel data, are ``operator``'s (Operator.wall), a run's own or,
    if None, one built for this assembly alone; an ellipsoid's are built
    by each assembly.

    ``blocks`` holds each surface's slice of the rows and columns.  A lone
    sphere (one surface, a spherical bubble) is its unit sphere scaled by
    the radius r: A is the cached unit-sphere A itself, and the
    factorization is the one the cache keeps for that A, so a run factors
    it once per level.  It holds no S (r S_unit): a solve forms
    r (S_unit q), and its basis solution (basis_solution) is the unit's,
    the potential times r.  Its panel data, which nothing of its own
    reads, is built only on request.  Everything is read-only once built.

    With ``rates`` (an added mass, whose rates a contraction takes) the
    assembly keeps, for each block that the rate passes read (_slot_rates)
    and take in one row block (_rate_rows), the kernel terms its own pass
    computed (_Kernel), until the rate pass takes them (take_terms).
    """

    def __init__(self, meshes, rates=False, operator=None):
        self.meshes = meshes = tuple(meshes)
        self.operator = operator or Operator(meshes[-1].shape)  # a wall comes last
        n = len(meshes)
        self.bounded = any(m.closure < 0 for m in meshes)
        self.weights = np.concatenate([m.quad_weights for m in meshes])
        offsets = np.cumsum([0] + [m.n_panels for m in meshes])
        self.blocks = blocks = tuple(slice(offsets[k], offsets[k + 1]) for k in range(n))
        self._lu = None
        self._unit = None
        self._terms, self._kept = {}, 0
        if n == 1 and isinstance(meshes[0].shape, SphereParams):
            self._unit = _unit_sphere_blocks(meshes[0].level)
            self.A = self._unit.A
            return
        parts = self.panels
        A = np.empty((offsets[-1], offsets[-1]))
        S = np.empty_like(A)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                # points of a over panels of b: S block (a, b), and the
                # double-layer integrals whose weighted transpose is block (b, a)
                S_ab, K_ab, _ = _blocked(parts[a].points, parts[b],
                                         want_single=True, want_double=True,
                                         kernel=self._keep(a, b, rates))
                S[blocks[a], blocks[b]] = S_ab
                A[blocks[b], blocks[a]] = (
                    K_ab.T * (parts[a].weights[None, :] / parts[b].weights[:, None]))
        for k, (mesh, part, blk) in enumerate(zip(meshes, parts, blocks)):
            if mesh.closure < 0:
                A[blk, blk], S[blk, blk] = self.operator.wall(mesh)[1]
            elif isinstance(mesh.shape, SphereParams):
                unit = _unit_sphere_blocks(mesh.level)
                A[blk, blk] = unit.A
                S[blk, blk] = mesh.shape.radius * unit.S
            else:
                A[blk, blk], S[blk, blk] = _self_blocks(part, kernel=self._keep(k, k, rates))
        A.setflags(write=False)
        S.setflags(write=False)
        self.A, self.S = A, S

    def _keep(self, a, b, rates):
        """The _Kernel of the points of surface a over the panels of b, for
        the assembly's pass and kept for the rate pass; None where nothing
        is kept: without ``rates``, on a wall's own block (which no rate
        pass reads) and where the rate pass takes more than one row block.
        Every pair's pass takes moments, and the panels of a bubble other
        than a sphere deform, with a tensor.  An assembly keeps at most what
        one rate pass may hold (_blocked: twenty arrays of _ROW_BLOCK^2 / 16
        doubles, 42 MB); a block past that is recomputed by its rate pass."""
        x, geom, mesh = self.panels[a].points, self.panels[b], self.meshes[b]
        deforms = mesh.closure > 0 and not isinstance(mesh.shape, SphereParams)
        if not rates or (a == b and not deforms) or len(x) > _rate_rows(geom):
            return None
        kernel = _kernel(x, geom, moments=a != b, tensor=deforms)
        if self._kept + kernel.nbytes <= 10 * _ROW_BLOCK ** 2:
            self._terms[a, b] = kernel
            self._kept += kernel.nbytes
        return kernel

    def take_terms(self, a, b):
        """The kept _Kernel of the points of surface a over the panels of b,
        released as it is read; None where none is kept."""
        return self._terms.pop((a, b), None)

    @cached_property
    def panels(self):
        """Panel data of each surface, built on first read: by the blocks'
        assembly, or for a lone sphere, whose blocks read none, on
        request.  A wall's is its operator's, built with its own blocks."""
        # threads asking at once may each build it: equal data
        return tuple(self.operator.wall(m)[0] if m.closure < 0 else surface_panels(m)
                     for m in self.meshes)

    def factorization(self) -> _Factorization:
        if self._lu is None:
            self._lu = (self._unit.factorization() if self._unit is not None
                        else _Factorization(self.A, self.meshes))
        return self._lu

    def solve(self, g) -> PotentialSolution:
        """Solve for one or more data vectors (columns of g)."""
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
        q = self.factorization().solve(rhs)
        phi = (self.S @ q if self._unit is None
               else self.meshes[0].shape.radius * (self._unit.S @ q))
        return PotentialSolution(self, *(_frozen(a.reshape(g.shape)) for a in (g, q, phi)))

    def basis_solution(self, config, directions) -> PotentialSolution:
        """The solution for the data of the packed velocity directions of
        ``config`` that are the columns of ``directions`` (_direction_data).
        A lone sphere's directions are its own four rates (B = I), whose
        solution is its unit sphere's (_UnitSphere.basis) with the
        potential times the radius: the data [n, 1] has the same bits, and
        so has the density.  It takes no solve and no N x N product."""
        if self._unit is None:
            return self.solve(_direction_data(config, self.meshes, directions))
        unit = self._unit.basis()
        self.factorization().check(unit.density)
        return PotentialSolution(self, unit.data, unit.density,
                                 _frozen(self.meshes[0].shape.radius * unit.potential))


# ---------------------------------------------------------------------------
# solutions for arbitrary data


@dataclass(frozen=True, eq=False)
class PotentialSolution:
    """The result of a collocation solve: the Neumann ``data`` at the
    collocation points, the single-layer ``density`` and the boundary
    ``potential`` S density, one column per data vector (1-D for one
    vector, read-only), and the ``assembly`` they were solved with
    (meshes, matrices and factorization)."""

    assembly: _Assembly = field(repr=False)
    data: np.ndarray = field(repr=False)
    density: np.ndarray = field(repr=False)
    potential: np.ndarray = field(repr=False)

    @property
    def collocation_condition(self) -> float:
        """Condition of the collocation matrix in the 1-norm, as LAPACK's
        estimate (gecon) from the LU factors: an estimate, not the exact
        condition number.  It is computed once per factorization, on the
        first request, and repeats to the bit on equal inputs, since
        gecon's work arrays are aligned (_lapack); where neither numpy nor
        scipy links an OpenBLAS, the scipy.linalg.lapack routines allocate
        their own work array, and the estimate can differ in its last bits
        between runs."""
        return 1.0 / max(self.assembly.factorization().rcond, 1e-300)


def solve_neumann(meshes, boundary_data) -> PotentialSolution:
    """Solve the collocation system of the surfaces ``meshes`` (the bubbles,
    then the wall in cavity mode) for one data vector: the normal velocity
    at their collocation points, one entry per panel."""
    meshes = tuple(meshes)
    g = np.asarray(boundary_data, dtype=float)
    n = sum(m.n_panels for m in meshes)
    if g.shape != (n,):
        raise ValueError(f"boundary data length {g.shape} != panel count {n}")
    return _Assembly(meshes).solve(g)


def _field(asm: _Assembly, points, density, potential=False):
    """Single-layer potential of the densities (N, p) on the surfaces of
    ``asm`` at ``points`` (M, 3), (M, p) (None unless ``potential``), and
    its gradient (M, 3, p): one panel pass per surface, summed."""
    phi = grad = 0.0
    for part, blk in zip(asm.panels, asm.blocks):
        S, _, g = _blocked(points, part, want_single=potential, want_double=False,
                           density=density[blk])
        grad = grad + g
        phi = phi + S @ density[blk] if potential else None
    return phi, grad


def _impose(raw, normals, data):
    """The gradients ``raw`` (n, 3, p) with their normal part replaced by
    the Neumann ``data`` (n, p), which it approximates."""
    normal_part = np.einsum('mkp,mk->mp', raw, normals)
    return raw + (data - normal_part)[:, None] * normals[:, :, None]


def _surface_gradients(asm: _Assembly, density, data, surfaces=None):
    """Fluid-side gradient (n, 3, p) of the single-layer potential of the
    densities (N, p) at the collocation points of the first ``surfaces``
    surfaces of ``asm`` (all by default): raw, and with its normal part
    the Neumann ``data`` (n, p) there (_impose)."""
    parts = asm.panels[:surfaces]
    _, raw = _field(asm, np.concatenate([part.points for part in parts]), density)
    return raw, _impose(raw, np.concatenate([part.normals for part in parts]), data)


def _basis_gradients(mass: AddedMassMatrix, u):
    """Fluid-side gradient (n, 3) of the potential of the basis velocity
    ``u`` of ``mass`` (the solution for the data mass.data @ u) at the
    bubbles' collocation points: raw, and with its normal part that data.
    A lone sphere's basis potentials are its unit sphere's times the
    radius, read at points scaled by it, so their gradient is the unit's
    (_UnitSphere.basis), applied to ``u`` without a panel pass."""
    asm, nb = mass.assembly, mass.config.n_bubbles
    data = (mass.data[:asm.blocks[nb - 1].stop] @ u)[:, None]
    if asm._unit is None:
        raw, imposed = _surface_gradients(asm, (mass.density @ u)[:, None], data, nb)
    else:
        raw = asm._unit.basis().gradient @ u[:, None]
        imposed = _impose(raw, asm.meshes[0].quad_normals, data)
    return raw[:, :, 0], imposed[:, :, 0]


def evaluate(solution: PotentialSolution, points):
    """Potential and gradient at field points ``points`` (M, 3), from the
    exact flat-panel integrals of the density: (M,) and (M, 3), with a
    trailing column axis for a solution of several data vectors.  Exact
    for the discrete density at any distance; on the surfaces,
    surface_gradient imposes the normal data."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or not np.all(np.isfinite(pts)):
        raise ValueError(f"points must be an (M, 3) array of finite numbers, got {pts.shape}")
    q = solution.density
    phi, grad = _field(solution.assembly, pts, q.reshape(len(q), -1), potential=True)
    return phi.reshape(len(pts), *q.shape[1:]), grad.reshape(len(pts), 3, *q.shape[1:])


def boundary_potential_at(solution: PotentialSolution, points):
    """Potential at points on or near the surfaces (evaluate)."""
    return evaluate(solution, points)[0]


def surface_gradient(solution: PotentialSolution, impose_data: bool = True):
    """Fluid-side gradient of the potential at the collocation points:
    (N, 3), or (N, 3, p) for a solution of p data vectors.

    Exact flat-panel gradients capture the single-layer jump because the
    curved collocation points sit on the fluid side of the panel planes.
    With ``impose_data`` the normal component is replaced by the imposed
    Neumann data, which it approximates, keeping the boundary condition
    exact while the tangential part comes from the representation.
    """
    q = solution.density
    cols = q.reshape(len(q), -1)
    raw, imposed = _surface_gradients(solution.assembly, cols,
                                      solution.data.reshape(cols.shape))
    return (imposed if impose_data else raw).reshape(len(q), 3, *q.shape[1:])


# ---------------------------------------------------------------------------
# basis potentials and added mass


def configuration_meshes(config: Configuration, level: int, wall_level=None):
    """The meshes of ``config``'s surfaces, in the order of the collocation
    system: each bubble's at ``level``, then in a cavity the wall's, at
    ``wall_level`` (``level`` if None)."""
    meshes = tuple(surface_mesh(b, level) for b in config.bubbles)
    if config.bounded:
        meshes += (wall_mesh(config.domain, level if wall_level is None else wall_level),)
    return meshes


def _direction_data(config, meshes, directions):
    """Boundary data matrix (N, n) for the packed velocity directions that
    are the columns of ``directions`` (p, n): the block-diagonal
    normal-velocity basis of the bubbles times ``directions``, zero on the
    wall."""
    G = np.zeros((sum(m.n_panels for m in meshes), directions.shape[1]))
    row = col = 0
    for b, m in zip(config.bubbles, meshes):
        block = normal_velocity_basis(b, m.quad_points, m.quad_normals)
        G[row:row + block.shape[0]] = block @ directions[col:col + block.shape[1]]
        row, col = row + block.shape[0], col + block.shape[1]
    return G


@dataclass(frozen=True, eq=False)
class AddedMassMatrix(PotentialSolution):
    """Gram matrix of the basis potential gradients along the columns of
    ``basis`` (shapes.constraint_basis of ``config``), scaled by the
    liquid density: the solution for the basis velocities' data, one
    column per basis column, with its Gram fields.  ``asymmetry`` is the
    relative reciprocity defect before symmetrization; ``eigenvalues``
    the spectrum after."""

    matrix: np.ndarray
    basis: ConstraintBasis
    liquid_density: float
    asymmetry: float
    eigenvalues: np.ndarray
    config: Configuration = field(repr=False)
    # velocity_rates of the last velocity asked
    _contractions: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def condition(self) -> float:
        return float(self.eigenvalues[-1] / self.eigenvalues[0])

    @property
    def kinetic(self) -> np.ndarray:
        """The kinetic matrix over all packed velocities: B A B^T with B
        the basis matrix, ``matrix`` itself in unbounded liquid (B = I)."""
        B = self.basis.matrix
        return B @ self.matrix @ B.T if self.basis.constrained else self.matrix


def added_mass(config: Configuration, level: int, liquid_density: float = 1.0,
               wall_level=None, rates=True, operator=None) -> AddedMassMatrix:
    """Added-mass matrix A_ij = -rho * sum(phi^i g_j w) over the bubble
    panels (Green reduction of the volume Gram integral), symmetrized,
    with i and j running over the columns of shapes.constraint_basis(config):
    the packed parameters in unbounded liquid, an orthonormal basis of the
    volume-preserving velocities in a cavity.  ``kinetic`` is the matrix
    over all packed velocities.  With ``rates`` its assembly keeps the
    kernel terms that its first contraction reads (_Assembly), and it reads
    a cavity wall's own blocks from ``operator`` (Operator), a run's, or
    builds them; the same bits either way.
    """
    asm = _Assembly(configuration_meshes(config, level, wall_level), rates, operator)
    basis = constraint_basis(config)
    sol = asm.basis_solution(config, basis.matrix)
    raw = -liquid_density * (sol.potential.T * asm.weights[None, :]) @ sol.data
    scale = np.abs(raw).max() + 1e-300
    asym = float(np.abs(raw - raw.T).max() / scale)
    A = 0.5 * (raw + raw.T)
    eig = np.linalg.eigvalsh(A)
    if eig[0] <= 0.0:
        raise DiscretizationError(
            f"added-mass matrix not positive definite at level {level}; "
            f"eigenvalues {eig}", eigenvalues=eig)
    return AddedMassMatrix(asm, sol.data, sol.density, sol.potential, matrix=A, basis=basis,
                           liquid_density=liquid_density, asymmetry=asym,
                           eigenvalues=eig, config=config)


def _projector_derivatives(mass: AddedMassMatrix):
    """Derivatives of the projector P = I - l l^T / |l|^2 of ``mass`` onto
    the volume-preserving velocities (l the volume gradient, its basis's
    flux covector) along every parameter slot, from the volume Hessian,
    (p, p, p); a cavity's alone, as P = I in unbounded liquid."""
    ell = mass.basis.flux_covector
    n2 = ell @ ell
    L = ell[:, None] * ell[None] / n2
    dl = volume_hessian(mass.config).T  # the rate of l along each slot
    outer = dl[:, :, None] * ell
    return ((2.0 * (dl @ ell) / n2)[:, None, None] * L
            - (outer + outer.transpose(0, 2, 1)) / n2)


@dataclass(frozen=True)
class _SlotMotion:
    """How a bubble's surface moves along its slots after the centre's:
    every point x and panel corner moves by G (x - c), G the slot's map
    (shapes.slot_maps).  A sphere's one slot, its radius, scales it about
    c, G = I / r: its normals stay fixed (None), and its patch weights and
    flat areas grow at the log-rate 2 / r.  An ellipsoid's six matrix
    slots deform it (_slot_motion).  Each field has the slots first."""

    maps: np.ndarray            # (n, 3, 3) the linear maps G
    strains: np.ndarray         # (n, 6) slot_sum(G): G : T = strains . T on SLOTS
    normals: np.ndarray | None  # (n, N, 3) rates of the unit normals, None if fixed
    weights: np.ndarray         # (n, N) log-rates of the patch weights
    area: np.ndarray            # (n, N) log-rates of the flat panel areas

    @property
    def lift(self):
        """Log-rates of the lift, patch weight / flat area."""
        return self.weights - self.area


def _slot_motion(bubble, asm: _Assembly, k) -> _SlotMotion:
    """_SlotMotion of ``bubble``, surface k of ``asm``; a sphere's reads no
    panel data.

    A normal of an ellipsoid's image surface is S^-1 u for the normal u of
    the reference surface, so with S^-1 E n the stretch of a unit normal n,
    n moves by -(I - n n^T) S^-1 E n and the length |S^-1 u|, which
    scales the patch weights det(S) |S^-1 u| omega, by -n.S^-1 E n
    relative to itself.  A flat panel's area obeys the same law with its
    flat normal nh in place of n."""
    G = slot_maps(bubble)
    if isinstance(bubble, SphereParams):
        rate = np.full((1, asm.meshes[k].n_panels), 2.0 / bubble.radius)
        return _SlotMotion(maps=G, strains=slot_sum(G), normals=None, weights=rate, area=rate)
    panels = asm.panels[k]
    trace = np.trace(G, axis1=1, axis2=2)[:, None]
    n, nh = panels.normals, panels.unit_normal
    stretch = n @ G
    along = (stretch * n).sum(axis=2)
    return _SlotMotion(maps=G, strains=slot_sum(G), normals=n * along[..., None] - stretch,
                       weights=trace - along, area=trace - ((nh @ G) * nh).sum(axis=2))


def _block_rates(x, geom, X, Y, fields, cotangent=None, kernel=None):
    """Rates of S X and of K^T Y for the block of the points ``x`` over the
    panels ``geom``, X (N, p) the panels' densities and Y (M, p) the
    points' weighted densities: (n, M, p) and (n, N, p), one per motion,
    the lift held.  Each motion is a field (n, 3, 7) [v | A | G]: the
    points moving along A x + v, and the panels' corners y by G (y - c),
    with v then holding G c.

    Everything comes from one _panel_blocks pass: d_V (S X) =
    V . grad(S X); a deformation is G about each point x plus the shift
    G (x - c), so d_G (S X) = G : T - grad(S X) . G (x - c); and the rates
    of K^T Y are the fields on P.  So both are one product of the fields,
    with [grad | grad x^T | T - grad x^T] per point and with P per panel.
    The panels deform where some G is nonzero, and the moments are
    quadratic where some A is not a multiple of I.

    The ``cotangent`` = (u, zeta, phi), u (M,) on the points, zeta (N,) on
    the panels and phi (3, 7) one field, gives two more outputs, the
    transposed rates along phi: u^T d S (N,) and d(K^T)^T zeta (M,).  The
    coefficients on the moments' monomials are E_e^T [v - G b | A] on m m^T
    for f_e, b the edge's end, and E_e^T G (b - a) on m for g_a.
    ``kernel`` is the block's kept _Kernel, if any."""
    fields = np.asarray(fields, dtype=float)
    A = fields[:, :, 1:4]
    quadratic = bool((A != A[:, :1, :1] * _EYE).any())  # some A not a multiple of I
    corners = bool(fields[:, :, 4:].any())
    width = 7 if corners else 4
    M, N = len(x), geom.n_panels
    lift = geom.lift / (4.0 * np.pi)
    cot = None
    if cotangent is not None:
        u, zeta, phi = cotangent
        v, Av, Gv = phi[:, 0], phi[:, 1:4], phi[:, 4:]
        # the coefficients on the moments' monomials: f_e's E^T [v - G b | A]
        # on m m^T, and g_a's E^T G (b - a) on m
        Et = geom.edge_map.transpose(0, 1, 3, 2)
        fe = np.empty((3, N, 3, 4))
        fe[..., 0] = v - geom.corners[[1, 2, 0]] @ Gv.T
        fe[..., 1:] = Av
        weight = (zeta * lift)[:, None]
        coeffs = np.matmul(Et, fe).reshape(3, N, 16) @ _MONOMIALS[:, :10 if quadratic else 4]
        corner_coeffs = None
        if corners:
            corner_coeffs = weight * np.matmul(Et, (geom.edge_vector @ Gv.T)[..., None])[..., 0]
        cot = _Cotangent(field=u[:, None] * (x @ (Av - Gv).T + v), weight=u,
                         strain=slot_sum(Gv) if corners else None, coeffs=coeffs * weight,
                         corner_coeffs=corner_coeffs)
    out = _blocked(x, geom, want_single=False, want_double=False, density=X,
                   tensor=X if corners else None, moments=Y, degree=2 if quadratic else 1,
                   cotangent=cot, kernel=kernel)
    grad, T, P = out[2:5]
    q = grad.shape[2]
    psi = np.empty((3, width, M, q))
    psi[:, 0] = grad.transpose(1, 0, 2)
    np.multiply(psi[:, :1], x.T[None, :, :, None], out=psi[:, 1:4])
    if corners:
        np.subtract(T.transpose(1, 0, 2)[_SYM], psi[:, 1:4], out=psi[:, 4:])
    phis = fields[:, :, :width].reshape(len(fields), -1)
    dS = (phis @ psi.reshape(3 * width, -1)).reshape(-1, M, q)
    dK = phis @ P.reshape(N, 3 * width, q).transpose(1, 0, 2).reshape(3 * width, -1)
    return (dS, dK.reshape(-1, N, q) * lift[:, None], *out[5:])


def _own_double_layer_rates(panels: PanelGeometry, motion: _SlotMotion, X, cotangent):
    """Rates of an ellipsoid's own block 1/2 I + K' (the point kernel of
    _self_blocks) along its matrix slots, applied to X: (6, N, p), and
    with the ``cotangent`` = (z, s), z (N,) and s the six slots' weights,
    z^T of the rate along the slots weighted by s, (N,).

    Off the diagonal the block is g_ab w_b with the adjoint kernel
    g_ab = (x_a - x_b).n_a R_ab, R_ab = 1 / (4 pi r_ab^3), differentiated
    entry by entry; the Gauss closure makes the diagonal
    1/2 + closure - sum_j g_ja w_j, whose rate is minus the weighted column
    sum of the off-diagonal rates.  Along a slot the points move by
    G (x - c) and the normals by dn, so with d = x_a - x_b
        dg_ab = (n_a^T G + dn_a^T) d R_ab - (d^T G d) H_ab,
    H_ab = 3 g_ab / r_ab^2: the products of the three matrices d_l R and
    the six d_k d_l H (on SLOTS) with Y = w X, and their weighted column
    sums, serve all six slots, and contracted with z, the transposed rate."""
    pts, n, w = panels.points, panels.normals, panels.weights
    N = len(w)
    d, r2 = _offsets(pts, pts)
    diagonal = slice(None, None, N + 1)
    r2.flat[diagonal] = 1.0
    R = np.sqrt(r2)
    R *= r2
    R *= 4.0 * np.pi
    np.divide(1.0, R, out=R)
    g = np.einsum('kab,ak->ab', d, n) * R
    g.flat[diagonal] = 0.0
    R.flat[diagonal] = 0.0
    H = 3.0 * g / r2
    ddH = np.empty((6, N, N))
    for out, (k, l) in zip(ddH, SLOTS):
        np.multiply(d[k], d[l], out=out)
        out *= H
    dR = np.multiply(d, R, out=d)
    strains, dw = motion.strains, motion.weights * w
    c = n @ motion.maps + motion.normals  # (6, N, 3), the factors of d_l R by slot
    Y = w[:, None] * X
    RY, HY = dR @ Y, (ddH @ Y).reshape(6, -1)
    dgY = ((c.transpose(0, 2, 1)[..., None] * RY).sum(axis=1)
           - (strains @ HY).reshape(-1, N, X.shape[1]))
    z, s = cotangent
    zw = np.array([z, w])
    zwH = zw @ ddH  # (6, 2, N): z^T ddH and w^T ddH
    # w^T dg
    wdg = ((w * c.transpose(2, 0, 1)) @ dR).sum(axis=0) - strains @ zwH[:, 1]
    rates = dgY + g @ (motion.weights[:, :, None] * Y) - (wdg + dw @ g)[:, :, None] * X
    cs, strain, logw = (s @ c.reshape(6, -1)).reshape(N, 3), s @ strains, s @ motion.weights
    # z^T and w^T of the rate along the slots weighted by s
    zdg, wdg_s = (((zw * cs.T[:, None]) @ dR).sum(axis=0)
                  - (strain @ zwH.reshape(6, -1)).reshape(2, N))
    return rates, w * (zdg + logw * (z @ g)) - z * (wdg_s + (logw * w) @ g)


def _slot_rates(mass: AddedMassMatrix, X, SX, cotangent):
    """Rates along every parameter slot of the collocation matrices of
    ``mass`` applied to the densities X (N, q), and of the weights, with
    the rows of their rates along one velocity: (dSX, dMX, dw, motions, sT,
    mT), dS X and dM X (p, N, q), the weights' (p, N), the _SlotMotion of
    each bubble, and for the ``cotangent`` = (u, z, v), u and z (N,) and v
    (p,) a packed velocity, the rows u^T d_v S and z^T d_v M (N,) with
    d_v = sum_t v_t d_t, except a lone sphere's u^T d_v S, which is
    v_r / r (S^T u) and is left to the caller.  ``SX`` is S X, read for a
    lone sphere, which holds no S.

    Every rate is an exact derivative of the discrete operator.  Only the
    moved bubble's rows and columns of M = 1/2 I + K' and S change, as its
    surface moves: rigidly along its translations, and along its other
    slots by its maps G, points and panel corners alike by G (x - c)
    (_SlotMotion).  The rates come block by block, already applied to X,
    and the same passes sum them in the other order for the rows:

    * a bubble's own blocks: a sphere's scale about its centre, S_kk with
      r and M_kk not at all; an ellipsoid's S_kk takes G : T (one
      _panel_blocks pass with a ``tensor``) and the lift's rate, and its
      point-kernel M_kk is differentiated entry by entry
      (_own_double_layer_rates);
    * the block of the points of a over the panels of b, for each ordered
      pair of surfaces with a bubble among them, one pass for all slots
      (_block_rates), each slot one field of a's points and b's panels,
      forward and in the cotangent: a's slots move its points; b's
      translations and a sphere b's radius move its panels, which is a's
      points moving the other way; an ellipsoid b's maps move its panel
      corners.  A sphere b's panels scale about its centre, so by the
      scaling laws of the panel integrals (degree 1 for S, 0 for the solid
      angle) its radius also takes S X / r;
    * the weights, dw = w times the weights' log-rate, which also enter
      the weighted transpose in M (a's weights, and b's flat areas, the
      panel weight cancelling there) and, through the lift, b's panels in
      S.

    Each block's pass reads the kernel terms that the assembly kept for it
    (_Assembly.take_terms, which releases them), or computes its own.  No
    mesh is built and no matrix assembled."""
    config, asm = mass.config, mass.assembly
    p, nb = config.dim, config.n_bubbles
    w, blocks = asm.weights, asm.blocks
    u, z, v = cotangent
    lone = asm._unit is not None
    dSX = np.zeros((p, len(w), X.shape[1]))
    dMX = np.zeros_like(dSX)
    dw = np.zeros((p, len(w)))
    sT, mT = np.zeros(len(w)), np.zeros(len(w))
    motions = [_slot_motion(bubble, asm, k) for k, bubble in enumerate(config.bubbles)]
    slices = config.slices()
    slots = [slice(sl.start + 3, sl.stop) for sl in slices]
    for k, (bubble, mo, t) in enumerate(zip(config.bubbles, motions, slots)):
        blk = blocks[k]
        dw[t, blk] = mo.weights * w[blk]
        if mo.normals is None:
            # a sphere: S_kk X_k, which is the whole S X (B = I) of a lone sphere
            dSX[t, blk] = (SX if lone else asm.S[blk, blk] @ X[blk]) / bubble.radius
            if not lone:
                sT[blk] += v[t] / bubble.radius * (u[blk] @ asm.S[blk, blk])
            continue
        part = asm.panels[k]
        # points and corners move together: the lift's rate and G : T
        _, _, _, T, _, panel_sum, _ = _blocked(
            part.points, part, want_single=False, want_double=False, tensor=X[blk],
            cotangent=_Cotangent(weight=u[blk], strain=v[t] @ mo.strains),
            kernel=asm.take_terms(k, k))
        dSX[t, blk] = (asm.S[blk, blk] @ (mo.lift[:, :, None] * X[blk])
                       + (mo.strains @ T.transpose(1, 0, 2).reshape(6, -1)).reshape(
                           -1, *X[blk].shape))
        sT[blk] += panel_sum + (v[t] @ mo.lift) * (u[blk] @ asm.S[blk, blk])
        dMX[t, blk], row = _own_double_layer_rates(part, mo, X[blk], (z[blk], v[t]))
        mT[blk] += row

    # each bubble's slots as fields [v | A | G] of its points and of its
    # panels, seen from another surface's points (_block_rates)
    moving, moved = [], []
    for bubble, mo in zip(config.bubbles, motions):
        own = np.zeros((3 + len(mo.maps), 3, 7))
        own[:3, :, 0] = _EYE
        own[3:, :, 0] = -mo.maps @ bubble.center
        own[3:, :, 1:4] = mo.maps
        moving.append(own)
        moved.append(-own)
        if mo.normals is not None:
            moved[-1][3:] = 0.0
            moved[-1][3:, :, 0] = mo.maps @ bubble.center
            moved[-1][3:, :, 4:] = mo.maps
    # a lone surface has no pair (and a lone sphere no panel data)
    parts = asm.panels if len(asm.meshes) > 1 else ()
    for a, b in ((a, b) for a in range(len(parts)) for b in range(len(parts)) if a != b):
        Da, Db = blocks[a], blocks[b]
        # the rate of every slot, as a field of a's points and b's panels
        fields = np.zeros((p, 3, 7))
        for k, forms in ((a, moving), (b, moved)):
            if k < nb:
                fields[slices[k]] = forms[k]
        dS, dK, sTb, mTa = _block_rates(
            parts[a].points, parts[b], X[Db], w[Da, None] * X[Da], fields,
            (u[Da], z[Db] / w[Db], (v @ fields.reshape(p, -1)).reshape(3, 7)),
            asm.take_terms(a, b))
        dSX[:, Da] += dS
        dMX[:, Db] += dK / w[Db, None]
        sT[Db] += sTb
        mT[Da] += w[Da] * mTa
        if a < nb:
            # w_a in the weighted transpose
            mo, t = motions[a], slots[a]
            dMX[t, Db] += asm.A[Db, Da] @ (mo.weights[:, :, None] * X[Da])
            mT[Da] += (v[t] @ mo.weights) * (z[Db] @ asm.A[Db, Da])
        if b < nb:
            # lift / w_b = 1 / area in M; in S b's lift and, for a sphere,
            # the scaling law of its panels, S X / r
            mo, t = motions[b], slots[b]
            law = mo.lift + (1.0 / config.bubbles[b].radius if mo.normals is None else 0.0)
            dSX[t, Da] += asm.S[Da, Db] @ (law[:, :, None] * X[Db])
            dMX[t, Db] -= mo.area[:, :, None] * (asm.A[Db, Da] @ X[Da])
            sT[Db] += (v[t] @ law) * (u[Da] @ asm.S[Da, Db])
            mT[Da] -= (z[Db] * (v[t] @ mo.area)) @ asm.A[Db, Da]
    return dSX, dMX, dw, motions, sT, mT


def _potential_rates(mass: AddedMassMatrix):
    """Rates along every parameter slot of the basis potentials S X of
    ``mass`` at its collocation points, which move with the bubbles, and of
    the data the Gram matrix weighs them with: (dPhi, dw, dGP), d(S X)
    (p, N, p), the weights' (p, N) and d(G P) = dG P + G dP (p, N, p).
    Here X = M^-1 G P, M = 1/2 I + K' and S the assembled matrices, G the
    canonical direction data and P = B B^T the projector onto the
    volume-preserving velocities (I in unbounded liquid), B the basis
    matrix.  Along every slot, with the LU of ``mass`` and no other,

        dX = M^-1 (d(G P) - dM X),    d(S X) = dS X + S dX,

    with dS X and dM X from _slot_rates (its rows, under a zero cotangent,
    unread), and no flux shift on the derivative solve: its data is not
    flux free, and shifting it would bias the rates.  d_t(G P) is the data
    rate that a run reads (_data_rates), taken at the unit velocity e_t.
    No mesh is built and no matrix assembled.
    """
    asm, p = mass.assembly, mass.config.dim
    X = mass.density @ mass.basis.matrix.T  # from the solution for G B
    w = asm.weights
    zero = np.zeros(len(w))
    dSX, dMX, dw, motions, _, _ = _slot_rates(mass, X, mass.potential, (zero, zero, zero[:p]))
    dGP = np.stack([_data_rates(mass, motions, e)[1] for e in np.eye(p)])
    rhs = dGP - dMX
    dPhi = dSX
    if rhs.any():  # a lone unbounded sphere's is zero
        dX = asm.factorization().solve(rhs.transpose(1, 0, 2).reshape(len(w), -1))
        dPhi = dSX + (asm.S @ dX).reshape(len(w), p, p).transpose(1, 0, 2)
    return dPhi, dw, dGP


def added_mass_jacobian(mass: AddedMassMatrix) -> np.ndarray:
    """Parameter Jacobian of the kinetic matrix K = sym(-rho (S X)^T W G P)
    of ``mass`` (AddedMassMatrix.kinetic; W the quadrature weights, the
    rest as in _potential_rates), shape (p, p, p) with the first index the
    differentiated parameter: along every slot

        dK = sym(-rho [d(S X)^T W G P + (S X)^T dW G P + (S X)^T W d(G P)]).

    G P is flux free at every configuration, so the constant potential
    that the cavity system leaves undetermined never shows.  The equations
    of motion read only its contractions with the velocity (velocity_rates),
    which take neither this tensor nor its p^2 right-hand sides."""
    dPhi, dw, dGP = _potential_rates(mass)
    B, w = mass.basis.matrix, mass.assembly.weights
    GP, Phi = mass.data @ B.T, mass.potential @ B.T
    raw = (dPhi.transpose(0, 2, 1) @ (w[:, None] * GP) + Phi.T @ (dw[:, :, None] * GP)
           + Phi.T @ (w[:, None] * dGP))
    raw *= -mass.liquid_density
    return 0.5 * (raw + raw.transpose(0, 2, 1))


def _data_rates(mass: AddedMassMatrix, motions, v):
    """Rates of the basis data G P of ``mass`` (_potential_rates) along
    every slot t applied to the packed velocity v, gamma_t = d_t(G P) v
    (p, N), and their sum weighted by v, Gamma = d_v(G P) (N, p), with
    ``motions`` the bubbles' _SlotMotion: G P changes with the projector
    and the ellipsoids' normals (a sphere's stay fixed), and G is linear
    in the normals.  The equations of motion read them at the state's
    velocity, and the full Jacobian (_potential_rates) reads Gamma at each
    unit velocity e_t, which is d_t(G P)."""
    config, asm, B = mass.config, mass.assembly, mass.basis.matrix
    p, N = config.dim, len(asm.weights)
    gamma, Gamma = np.zeros((p, N)), np.zeros((N, p))
    if mass.basis.constrained:
        G, dP = _direction_data(config, asm.meshes, np.eye(p)), _projector_derivatives(mass)
        gamma += (G @ (dP @ v).T).T
        Gamma += G @ (v @ dP.reshape(p, -1)).reshape(p, p)
    P = B @ B.T
    for k, (bubble, sl, mo) in enumerate(zip(config.bubbles, config.slices(), motions)):
        if mo.normals is None:
            continue
        blk, t = asm.blocks[k], slice(sl.start + 3, sl.stop)
        # the six slots' normal rates, then their sum weighted by v, at once
        normals = mo.normals.reshape(6, -1)
        normals = np.concatenate([normals, (v[t] @ normals)[None]])
        dG = normal_velocity_basis(bubble, asm.panels[k].points, normals.reshape(7, -1, 3))
        dG = dG @ P[sl]
        gamma[t, blk] += dG[:6] @ v
        Gamma[blk] += dG[6]
    return gamma, Gamma


class VelocityRates(NamedTuple):
    """The contractions of the rates of an added mass with a packed
    velocity v that the equations of motion read (velocity_rates): the
    tangent (d_v K) v and the gradient grad_q (1/2 v^T K v) of the kinetic
    matrix K, both (p,), and psi = (d_v Phi) v (N,), the rate of the basis
    potentials Phi = S X at the moving collocation points applied to v
    twice."""

    tangent: np.ndarray
    gradient: np.ndarray
    potential: np.ndarray


def _velocity_rates(mass: AddedMassMatrix, velocity) -> VelocityRates:
    """VelocityRates of ``mass`` and ``velocity`` without the p-wide rates.

    With g = G P v, x = X v, phi = Phi v, u = W g (_potential_rates'
    notation), d_t S x, d_t M x and the weights' rates come from the rate
    passes at width one (_slot_rates), and gamma_t = d_t(G P) v
    (_data_rates).  One transposed solve z = M^-T S^T u serves the
    gradient,

        c2_t = -rho/2 [u.d_t S x + z.(gamma_t - d_t M x) + phi.(dw_t g)
                       + (W phi).gamma_t],

    and one solve of one column psi = d_v S x + S M^-1 (gamma_v - d_v M x),
    d_v = sum_t v_t d_t.  The tangent takes the rows u^T d_v S and
    z^T d_v M that the same passes sum in the other order:

        c1 = -rho/2 [Gamma^T (z + W phi) + (G P)^T (dw_v phi + W psi)
                     + (u^T d_v S - z^T d_v M) X + Phi^T (dw_v g + W gamma_v)].

    A lone sphere has no data rates and no rate of M, so it takes neither
    solve, and its u^T d_v S X is v_r / r u^T Phi: O(N) work."""
    config, asm = mass.config, mass.assembly
    B, w, rho = mass.basis.matrix, asm.weights, mass.liquid_density
    v = np.asarray(velocity, dtype=float)
    vb = B.T @ v
    g, x, phi = mass.data @ vb, mass.density @ vb, mass.potential @ vb
    u, wphi = w * g, w * phi
    lone = asm._unit is not None
    z = np.zeros_like(u)
    if not lone:
        lu = asm.factorization()
        z = lu.solve(u @ asm.S, trans=1)
    dSx, dMx, dw, motions, sT, mT = _slot_rates(mass, x[:, None], phi[:, None], (u, z, v))
    dSx, dMx = dSx[..., 0], dMx[..., 0]
    gamma, Gamma = _data_rates(mass, motions, v)
    gradient = dSx @ u + (gamma - dMx) @ z + dw @ (phi * g) + gamma @ wphi
    psi, dwv, gv = v @ dSx, v @ dw, v @ gamma
    if lone:
        rows = v[3] / config.bubbles[0].radius * (u @ mass.potential)
    else:
        psi = psi + asm.S @ lu.solve(gv - v @ dMx)
        rows = (sT - mT) @ mass.density
    tangent = Gamma.T @ (z + wphi) + B @ (
        (dwv * phi + w * psi) @ mass.data + rows + (dwv * g + w * gv) @ mass.potential)
    return VelocityRates(*map(_frozen, (-0.5 * rho * tangent, -0.5 * rho * gradient, psi)))


def velocity_rates(mass: AddedMassMatrix, velocity) -> VelocityRates:
    """The contractions of the parameter rates of ``mass`` with the packed
    ``velocity`` (VelocityRates): what the equations of motion need of the
    Jacobian, c1 - c2 their Coriolis force, at the cost of rate passes of
    width one and two solves of one column.  Kept for the last velocity
    asked, so that a state's acceleration and boundary residual share
    them."""
    key = np.asarray(velocity, dtype=float).tobytes()
    cache = mass._contractions
    if key not in cache:
        rates = _velocity_rates(mass, velocity)
        cache.clear()
        cache[key] = rates
    return cache[key]
