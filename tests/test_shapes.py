import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbledyn.errors import DegenerateShapeError
from bubbledyn.shapes import (MAX_MESH_LEVEL, SLOT_MATRICES, CavitySphere, Configuration,
                              EllipsoidParams, SphereParams, _ellipsoid_area,
                              _reference_quadrature, check_admissible,
                              config_from_params, icosphere_symmetry, measures,
                              normal_velocity, pack_params, reference_icosphere,
                              slot_sum, surface_mesh, symmetric_matrix,
                              symmetric_slots, volume_gradient,
                              volume_hessian, wall_mesh)


def mesh_volume(mesh):
    return float(np.einsum('ij,ij->i', mesh.centroid, mesh.normal) @ mesh.area / 3.0)


def prolate_area(a, c):
    # independent oracle: prolate spheroid, equatorial a, polar c > a
    e = np.sqrt(1.0 - (a / c) ** 2)
    return 2.0 * np.pi * a * a * (1.0 + (c / (a * e)) * np.arcsin(e))


def oblate_area(a, c):
    # independent oracle: oblate spheroid, equatorial a > polar c
    e = np.sqrt(1.0 - (c / a) ** 2)
    return (2.0 * np.pi * a * a
            + np.pi * c * c / e * np.log((1.0 + e) / (1.0 - e)))


def random_rotation(rng):
    Q, R = np.linalg.qr(rng.normal(size=(3, 3)))
    return Q * np.sign(np.diag(R))


def richardson_area_gradient(S, step):
    # Richardson-extrapolated central differences of the area in the six
    # slots of S: (4 D(h/2) - D(h)) / 3, truncation error O(h^4)
    q0 = symmetric_slots(S)

    def central(k, h):
        qp, qm = q0.copy(), q0.copy()
        qp[k] += h
        qm[k] -= h
        return (_ellipsoid_area(np.linalg.eigvalsh(symmetric_matrix(qp)))
                - _ellipsoid_area(np.linalg.eigvalsh(symmetric_matrix(qm)))) / (2 * h)

    return np.array([(4 * central(k, step / 2) - central(k, step)) / 3 for k in range(6)])


def legendre_area(semi_axes):
    # independent oracle: the Legendre form with scipy's incomplete elliptic
    # integrals, the package's formula before Carlson's
    from scipy.special import ellipeinc, ellipkinc
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


class TestSurfaceMesh:
    def test_level0_icosahedron(self):
        mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), 0)
        assert mesh.n_panels == 20
        assert abs(mesh.area.sum() / (4 * np.pi) - 1) < 0.25

    @pytest.mark.parametrize("level", [-1, MAX_MESH_LEVEL + 1])
    def test_levels_past_the_one_limit_rejected(self, level):
        # one constant bounds every mesh level, the scenario's and the
        # command line's too
        sphere = SphereParams(center=np.zeros(3), radius=1.0)
        wall = CavitySphere(center=np.zeros(3), radius=2.0)
        for build in (lambda: surface_mesh(sphere, level), lambda: wall_mesh(wall, level)):
            with pytest.raises(ValueError, match=f"level must be in \\[0, {MAX_MESH_LEVEL}\\]"):
                build()

    def test_vertices_exactly_on_sphere(self):
        mesh = surface_mesh(SphereParams(center=[0.3, -1.0, 2.0], radius=2.0), 2)
        d = np.linalg.norm(mesh.vertices - np.array([0.3, -1.0, 2.0]), axis=1)
        assert np.allclose(d, 2.0, rtol=0, atol=1e-13)

    def test_spheroid_area_within_1pct(self):
        shape = EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 1.0, 2.0]))
        mesh = surface_mesh(shape, 3)
        exact = prolate_area(1.0, 2.0)
        assert abs(mesh.area.sum() / exact - 1) < 0.01
        # quadrature weights are the better surface measure
        assert abs(mesh.quad_weights.sum() / exact - 1) < 1e-4

    def test_panel_count_depends_only_on_level(self):
        for level in (0, 1, 2):
            m1 = surface_mesh(SphereParams(center=np.zeros(3), radius=0.5), level)
            m2 = surface_mesh(
                EllipsoidParams(center=[1, 2, 3], shape_matrix=np.diag([1.0, 2.0, 3.0])),
                level)
            assert m1.n_panels == m2.n_panels == 20 * 4 ** level

    @pytest.mark.parametrize("shape,exact_area,exact_vol", [
        (SphereParams(center=np.zeros(3), radius=1.0), 4 * np.pi, 4 * np.pi / 3),
        (EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 1.0, 2.0])),
         prolate_area(1.0, 2.0), 8 * np.pi / 3),
    ])
    def test_second_order_convergence(self, shape, exact_area, exact_vol):
        area_err, vol_err = [], []
        for level in (1, 2, 3):
            mesh = surface_mesh(shape, level)
            area_err.append(abs(mesh.area.sum() - exact_area))
            vol_err.append(abs(mesh_volume(mesh) - exact_vol))
        # edge length halves per level: second order means ratio ~ 4
        for err in (area_err, vol_err):
            assert err[0] / err[1] > 3.0
            assert err[1] / err[2] > 3.0

    def test_normals_outward_and_unit(self):
        shape = EllipsoidParams(center=[0.5, 0, 0], shape_matrix=np.diag([2.0, 1.0, 1.0]))
        mesh = surface_mesh(shape, 1)
        assert np.allclose(np.linalg.norm(mesh.normal, axis=1), 1.0)
        out = np.einsum('ij,ij->i', mesh.centroid - np.array([0.5, 0, 0]), mesh.normal)
        assert np.all(out > 0)

    def test_wall_normals_point_inward(self):
        wall = wall_mesh(CavitySphere(center=np.zeros(3), radius=2.0), 1)
        inward = np.einsum('ij,ij->i', wall.centroid, wall.normal)
        assert np.all(inward < 0)
        assert wall.closure == -0.5


class TestIcosphereSymmetry:
    @pytest.mark.parametrize("level, orbits", [(0, 1), (1, 2), (2, 6), (3, 22)])
    def test_group_and_its_action_on_the_panels(self, level, orbits):
        sym = icosphere_symmetry(level)
        R, perm = sym.rotations, sym.perm
        n = 20 * 4 ** level
        assert R.shape == (60, 3, 3) and perm.shape == (60, n)
        assert np.array_equal(R[0], np.eye(3))
        assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-15
        assert np.allclose(np.linalg.det(R), 1.0, rtol=0.0, atol=1e-15)
        assert len(np.unique(np.round(R, 6).reshape(60, -1), axis=0)) == 60
        assert all(np.array_equal(np.sort(p), np.arange(n)) for p in perm)
        # rotation g carries the direction of panel i onto that of perm[g, i]
        ydir = _reference_quadrature(level)[0]
        assert np.abs(ydir @ R.transpose(0, 2, 1) - ydir[perm]).max() <= 1e-12
        # one panel per orbit (its smallest), and one group element per
        # panel, carrying the panel's representative onto it
        assert len(sym.representatives) == orbits
        reps = sym.representatives[sym.source]
        assert np.array_equal(reps, perm.min(axis=0))
        assert np.array_equal(perm[sym.element, reps], np.arange(n))
        sizes = np.bincount(sym.source)
        assert set(sizes) <= {20, 60} and sizes.sum() == n
        for a in sym:
            assert not a.flags.writeable


class TestNormalVelocity:
    def test_pure_pulsation_is_one(self):
        shape = SphereParams(center=np.zeros(3), radius=1.0)
        mesh = surface_mesh(shape, 1)
        mdot = np.array([0.0, 0.0, 0.0, 1.0])
        v = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
        assert np.allclose(v, 1.0)

    def test_translation_at_pole(self):
        shape = SphereParams(center=np.zeros(3), radius=1.0)
        mdot = np.array([1.0, 0, 0, 0.0])
        v = normal_velocity(shape, mdot, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
        assert v == pytest.approx(1.0)

    def test_ellipsoid_stretch_orthogonal_direction(self):
        shape = EllipsoidParams(center=np.zeros(3), shape_matrix=np.eye(3))
        mdot = np.append(np.zeros(3), symmetric_slots(np.diag([1.0, 0.0, 0.0])))
        v = normal_velocity(shape, mdot, np.array([0.0, 1.0, 0]), np.array([0.0, 1.0, 0]))
        assert v == pytest.approx(0.0, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1))
    def test_linear_in_mdot(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            shape = SphereParams(center=rng.normal(size=3), radius=0.5 + rng.random())
        else:
            B = rng.normal(size=(3, 3))
            shape = EllipsoidParams(center=rng.normal(size=3),
                                    shape_matrix=B @ B.T + 0.5 * np.eye(3))
        mesh = surface_mesh(shape, 0)
        t1 = rng.normal(size=shape.dim)
        t2 = rng.normal(size=shape.dim)
        a, b = rng.normal(size=2)
        combo = a * t1 + b * t2
        v = normal_velocity(shape, combo, mesh.quad_points, mesh.quad_normals)
        v12 = (a * normal_velocity(shape, t1, mesh.quad_points, mesh.quad_normals)
               + b * normal_velocity(shape, t2, mesh.quad_points, mesh.quad_normals))
        assert np.allclose(v, v12, rtol=1e-12, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1))
    def test_nondegeneracy(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            shape = SphereParams(center=rng.normal(size=3), radius=0.5 + rng.random())
        else:
            B = rng.normal(size=(3, 3))
            shape = EllipsoidParams(center=rng.normal(size=3),
                                    shape_matrix=B @ B.T + 0.5 * np.eye(3))
        mdot = rng.normal(size=shape.dim)
        mesh = surface_mesh(shape, 2)
        v = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
        assert np.max(np.abs(v)) > 1e-12 * np.linalg.norm(mdot)

    def test_sphere_quadratic_identity(self):
        # integral of (c'.n + r')^2 over the sphere = (4 pi r^2/3)|c'|^2 + 4 pi r^2 r'^2
        shape = SphereParams(center=np.zeros(3), radius=1.3)
        mesh = surface_mesh(shape, 3)
        mdot = np.array([0.4, -0.2, 0.1, 0.7])
        v = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
        got = np.sum(v * v * mesh.quad_weights)
        r2 = 4 * np.pi * shape.radius ** 2
        want = r2 / 3 * np.dot(mdot[:3], mdot[:3]) + r2 * mdot[3] ** 2
        assert got == pytest.approx(want, rel=1e-2)

    def test_divergence_theorem_consistency(self):
        # the discrete flux is the volume rate exactly at every level: the
        # icosphere's patch moments satisfy sum w y y^T = (4 pi / 3) I by
        # icosahedral symmetry, and central symmetry cancels the translation
        shape = EllipsoidParams(center=[0.3, -0.2, 0.5],
                                shape_matrix=np.array([[1.5, 0.2, 0.0],
                                                       [0.2, 1.0, 0.1],
                                                       [0.0, 0.1, 0.8]]))
        rng = np.random.default_rng(7)
        mdot = rng.normal(size=9)
        want = measures(shape).d_volume_dm @ mdot
        for level in (0, 1, 2, 3):
            mesh = surface_mesh(shape, level)
            v = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
            assert abs(np.sum(v * mesh.quad_weights) - want) <= 1e-13 * abs(want)

    def test_sphere_flux_is_exact(self):
        shape = SphereParams(center=[1.0, 0, 0], radius=0.7)
        mesh = surface_mesh(shape, 2)
        mdot = np.array([0.3, 0.5, -0.2, 0.9])
        v = normal_velocity(shape, mdot, mesh.quad_points, mesh.quad_normals)
        # antipodal symmetry cancels the translation part exactly
        assert np.sum(v * mesh.quad_weights) == pytest.approx(
            4 * np.pi * 0.7 ** 2 * 0.9, rel=1e-13)


class TestMeasures:
    def test_sphere_values(self):
        m = measures(SphereParams(center=np.zeros(3), radius=1.0))
        assert m.volume == pytest.approx(4 * np.pi / 3)
        assert m.d_area_dm[3] == pytest.approx(8 * np.pi)
        assert np.all(m.d_volume_dm[:3] == 0.0)

    def test_ellipsoid_volume(self):
        m = measures(EllipsoidParams(center=np.zeros(3),
                                     shape_matrix=np.diag([1.0, 2.0, 3.0])))
        assert m.volume == pytest.approx(8 * np.pi)

    def test_oblate_area_oracle(self):
        m = measures(EllipsoidParams(center=np.zeros(3),
                                     shape_matrix=np.diag([2.0, 2.0, 1.0])))
        assert m.area == pytest.approx(oblate_area(2.0, 1.0), rel=1e-12)

    def test_carlson_area_matches_legendre_form(self):
        rng = np.random.default_rng(17)
        axes = [(3.0, 2.0, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 0.5), (5.0, 0.2, 0.2),
                (4.0, 4.0, 0.05), (1.0, 1.0, 1.0), *rng.uniform(0.05, 5.0, (200, 3))]
        for aniso in 10.0 ** np.arange(-12, 0):
            for pattern in ((1, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0.5, -1)):
                axes.append(1.3 * (1.0 + aniso * np.array(pattern)))
        for semi_axes in axes:
            assert _ellipsoid_area(semi_axes) == pytest.approx(legendre_area(semi_axes),
                                                               rel=1e-14, abs=0)
        # symmetric in the axes
        assert _ellipsoid_area((1.0, 2.0, 3.0)) == _ellipsoid_area((3.0, 1.0, 2.0))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        B = rng.normal(size=(3, 3))
        shape = EllipsoidParams(center=rng.normal(size=3),
                                shape_matrix=B @ B.T + np.eye(3))
        q0 = shape.pack()
        m = measures(shape)
        for k in range(9):
            h = 1e-6 * (1 + abs(q0[k]))
            qp, qm = q0.copy(), q0.copy()
            qp[k] += h
            qm[k] -= h
            dvol = (measures(EllipsoidParams.unpack(qp)).volume
                    - measures(EllipsoidParams.unpack(qm)).volume) / (2 * h)
            darea = (measures(EllipsoidParams.unpack(qp)).area
                     - measures(EllipsoidParams.unpack(qm)).area) / (2 * h)
            assert dvol == pytest.approx(m.d_volume_dm[k], rel=1e-6, abs=1e-9)
            assert darea == pytest.approx(m.d_area_dm[k], rel=1e-4, abs=1e-7)

    def test_thin_ellipsoid_area_gradient(self):
        # a step-based gradient leaves the SPD cone here; the exact one
        # meets the thin-disk asymptote 2 pi c (2 ln(2/c) - 1) of dA/dc,
        # itself accurate to 2.5e-11 at c = 5e-6
        c = 5e-6
        m = measures(EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 1.0, c])))
        assert m.d_area_dm[8] == pytest.approx(2 * np.pi * c * (2 * np.log(2 / c) - 1),
                                               rel=1e-9, abs=0)

    def test_float_area_matches_the_numpy_scalar_form(self):
        # the area and its gradient do their scalar work on Python floats
        # and math.sqrt: the same bits as on numpy scalars and np.sqrt, for
        # random axes down to ratios of 1e-3
        from bubbledyn.shapes import _ellipsoid_area_gradient

        def carlson(x, y, z):
            tail, weight = 0.0, 1.0
            while max(x, y, z) - min(x, y, z) > 1e-3 * min(x, y, z):
                sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
                lam = sx * sy + sy * sz + sz * sx
                tail += weight / (sz * (z + lam))
                weight /= 4.0
                x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
            mean = (x + y + z) / 3.0
            X, Y = 1.0 - x / mean, 1.0 - y / mean
            Z = -X - Y
            e2, e3 = X * Y - Z * Z, X * Y * Z
            rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
                  - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)
            mean = (x + y + 3.0 * z) / 5.0
            X, Y = 1.0 - x / mean, 1.0 - y / mean
            Z = -(X + Y) / 3.0
            e2, e3 = X * Y - 6.0 * Z * Z, (3.0 * X * Y - 8.0 * Z * Z) * Z
            e4, e5 = 3.0 * (X * Y - Z * Z) * Z * Z, X * Y * Z ** 3
            series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
                      - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
            return rf, 3.0 * tail + weight * series / (mean * np.sqrt(mean))

        def area(semi_axes):
            a, b, c = np.sort(np.asarray(semi_axes, dtype=float))
            x, z, y = 1.0 / (a * a), 1.0 / (b * b), 1.0 / (c * c)
            rf, rd = carlson(x, y, z)
            rg = 0.5 * (z * rf - (x - z) * (y - z) * rd / 3.0 + np.sqrt(x * y / z))
            return float(4.0 * np.pi * a * b * c * rg)

        def gradient(semi_axes):
            a = np.asarray(semi_axes, dtype=float)
            u = 1.0 / (a * a)
            d = np.array([u[m] * carlson(u[m - 2], u[m - 1], u[m])[1] for m in range(3)])
            j, k = [1, 2, 0], [2, 0, 1]
            return 2.0 * np.pi / 3.0 * a[j] * a[k] * (u[j] * (d + d[k]) + u[k] * (d + d[j]))

        rng = np.random.default_rng(17)
        axes = [np.exp(rng.uniform(np.log(1e-3), 0.0, 3)) for _ in range(40)]
        axes += [(1.0, 1e-3, 0.5), (1e-3, 1e-3, 1.0), (1.0, 1.0, 1e-3), (0.7, 0.7, 0.7)]
        for semi_axes in axes:
            assert _ellipsoid_area(semi_axes) == area(semi_axes)
            assert np.array_equal(_ellipsoid_area_gradient(semi_axes), gradient(semi_axes))

    def test_area_gradient_matches_richardson_differences(self):
        rng = np.random.default_rng(11)
        matrices = []
        for _ in range(10):
            B = rng.normal(size=(3, 3))
            matrices.append(B @ B.T + 0.3 * np.eye(3))
        # near-degenerate axes: nearly equal pairs and triples, thin and long
        for axes in ((1.0, 1.0 + 1e-7, 1.3), (0.8, 0.8, 0.8 + 1e-9), (1.0, 1.0, 0.05),
                     (0.05, 0.05, 1.0), (2.0, 1.0, 0.1), (1.0, 1.0, 1.0)):
            R = random_rotation(rng)
            matrices.append(R @ np.diag(axes) @ R.T)
        for S in matrices:
            S = 0.5 * (S + S.T)
            step = 2e-4 * np.linalg.eigvalsh(S)[0]
            got = measures(EllipsoidParams(center=np.zeros(3), shape_matrix=S)).d_area_dm
            want = richardson_area_gradient(S, step)
            assert np.all(got[:3] == 0.0)
            np.testing.assert_allclose(got[3:], want, rtol=1e-9,
                                       atol=1e-9 * np.abs(want).max())

    def test_area_gradient_sphere_limit(self):
        r = 1.37
        m = measures(EllipsoidParams(center=np.zeros(3), shape_matrix=r * np.eye(3)))
        diagonal, off_diagonal = m.d_area_dm[[3, 6, 8]], m.d_area_dm[[4, 5, 7]]
        np.testing.assert_allclose(diagonal, 8 * np.pi * r / 3, rtol=1e-14, atol=0)
        np.testing.assert_allclose(off_diagonal, 0.0, rtol=0, atol=1e-14 * 8 * np.pi * r / 3)

    def test_area_gradient_rotation_covariance(self):
        # A(R S R^T) = A(S), so the rate of A at R S R^T along R E R^T is
        # its rate at S along E for every symmetric E
        rng = np.random.default_rng(5)
        for _ in range(5):
            B = rng.normal(size=(3, 3))
            S = B @ B.T + 0.2 * np.eye(3)
            R = random_rotation(rng)
            g = measures(EllipsoidParams(center=np.zeros(3), shape_matrix=S)).d_area_dm[3:]
            g_rot = measures(EllipsoidParams(center=np.zeros(3),
                                             shape_matrix=R @ S @ R.T)).d_area_dm[3:]
            for E in (symmetric_matrix(rng.normal(size=6)) for _ in range(4)):
                assert g_rot @ symmetric_slots(R @ E @ R.T) == pytest.approx(
                    g @ symmetric_slots(E), rel=1e-12, abs=1e-12 * np.abs(g).max())

    def test_sphere_limit_of_ellipsoid_family(self):
        r = 1.37
        ms = measures(SphereParams(center=np.zeros(3), radius=r))
        me = measures(EllipsoidParams(center=np.zeros(3), shape_matrix=r * np.eye(3)))
        assert me.volume == pytest.approx(ms.volume, rel=1e-12)
        assert me.area == pytest.approx(ms.area, rel=1e-9)

    def test_volume_hessian_closed_forms(self):
        # V = 4 pi r^3 / 3 for the sphere, (4 pi / 3) det S for the ellipsoid
        # S = [[a, x, 0], [x, b, 0], [0, 0, c]] at x = 0; slots (cx, cy, cz, r)
        # and (cx, cy, cz, s11, s12, s13, s22, s23, s33), no cross-bubble terms
        r, a, b, c = 0.7, 1.1, 0.9, 1.3
        config = Configuration(bubbles=(
            SphereParams(center=[-3.0, 0.0, 0.0], radius=r),
            EllipsoidParams(center=[3.0, 0.5, 0.0], shape_matrix=np.diag([a, b, c]))))
        want = np.zeros((13, 13))
        want[3, 3] = 8 * np.pi * r
        s11, s12, s13, s22, s23, s33 = range(7, 13)
        k = 4 * np.pi / 3
        for i, j, v in ((s11, s22, k * c), (s11, s33, k * b), (s22, s33, k * a)):
            want[i, j] = want[j, i] = v
        want[s12, s12] = -2 * k * c
        want[s13, s13] = -2 * k * b
        want[s23, s23] = -2 * k * a
        np.testing.assert_allclose(volume_hessian(config), want, rtol=0,
                                   atol=1e-8 * np.abs(want).max())


class TestSlots:
    def test_slot_sum_contracts_with_symmetric_tensors(self):
        # G : T = slot_sum(G) . (slots of T) for any G and symmetric T, the
        # contraction the added-mass rates apply to batches of tensors
        rng = np.random.default_rng(23)
        G = rng.normal(size=(4, 5, 3, 3))
        T = rng.normal(size=(3, 3))
        T = T + T.T
        np.testing.assert_allclose(slot_sum(G) @ symmetric_slots(T),
                                   np.sum(G * T, axis=(-2, -1)), rtol=1e-13, atol=1e-13)

    def test_slot_matrices_are_the_unit_slot_rates(self):
        m = np.random.default_rng(29).normal(size=6)
        np.testing.assert_array_equal(np.tensordot(m, SLOT_MATRICES, axes=1),
                                      symmetric_matrix(m))
        np.testing.assert_array_equal(slot_sum(SLOT_MATRICES),
                                      np.diag([1.0, 2.0, 2.0, 1.0, 2.0, 1.0]))


class TestAdmissibility:
    def test_disjoint_spheres(self):
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[3.0, 0, 0], radius=1.0)))
        report = check_admissible(config)
        assert report.ok
        assert report.min_gap == pytest.approx(1.0)

    def test_overlapping_spheres(self):
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[3.0, 0, 0], radius=2.5)))
        report = check_admissible(config)
        assert not report.ok
        assert report.violations[0].kind == "overlap"
        assert report.violations[0].pair == (0, 1)
        assert report.violations[0].gap == pytest.approx(-0.5)

    def test_sphere_in_cavity(self):
        config = Configuration(
            bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=1.5))
        report = check_admissible(config)
        assert report.ok
        assert report.min_gap == pytest.approx(0.5)

    def test_bubble_poking_through_wall(self):
        config = Configuration(
            bubbles=(SphereParams(center=[1.0, 0, 0], radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=1.5))
        report = check_admissible(config)
        assert not report.ok
        assert report.violations[0].kind == "outside-cavity"

    def test_ellipsoid_pair_conservative(self):
        config = Configuration(bubbles=(
            EllipsoidParams(center=np.zeros(3), shape_matrix=np.eye(3)),
            EllipsoidParams(center=[5.0, 0, 0], shape_matrix=np.diag([1.0, 1.0, 2.0]))))
        assert check_admissible(config).ok
        close = Configuration(bubbles=(
            EllipsoidParams(center=np.zeros(3), shape_matrix=np.eye(3)),
            EllipsoidParams(center=[1.9, 0, 0], shape_matrix=np.eye(3))))
        assert not check_admissible(close).ok

    @pytest.mark.parametrize("x, level", [(1.05, 1), (1.001, 2)])
    def test_ellipsoid_tip_through_spherical_wall(self, x, level):
        # the tip at x + 1 lies 0.05 (0.001) outside the wall of radius 2
        config = Configuration(
            bubbles=(EllipsoidParams(center=[x, 0, 0], shape_matrix=np.diag([1, 0.5, 0.5])),),
            domain=CavitySphere(center=np.zeros(3), radius=2.0))
        report = check_admissible(config, level)
        assert not report.ok
        assert report.violations[0].kind == "outside-cavity"

    def test_distance_to_wall_triangles(self):
        # an icosahedral wall of circumradius 4: a point h outside a vertex,
        # an edge's midpoint or a face's centroid, radially, is h from that
        # point (by symmetry the radial direction lies in the normal cone of
        # each), and a point inside is nearest the plane of a face
        from bubbledyn.shapes import CavityMesh, _triangle_distance
        verts, faces = reference_icosphere(0)
        wall = wall_mesh(CavityMesh(vertices=4.0 * verts, triangles=faces), 0)
        p0, p1, p2 = (4.0 * verts[faces[0, k]] for k in range(3))
        centroid = (p0 + p1 + p2) / 3.0
        for feature in (p0, 0.5 * (p0 + p1), centroid):
            for h in (0.3, 2.0):
                x = feature * (1.0 + h / np.linalg.norm(feature))
                assert abs(_triangle_distance(x[None], wall) - h) <= 1e-12
        inradius = np.linalg.norm(centroid)
        assert abs(_triangle_distance(np.zeros((1, 3)), wall) - inradius) <= 1e-12
        points = np.array([0.9 * centroid, 0.5 * p0])
        assert abs(_triangle_distance(points, wall) - 0.1 * inradius) <= 1e-12

    def test_ellipsoid_wall_gap_is_a_lower_bound(self):
        rng = np.random.default_rng(31)
        sphere = reference_icosphere(5)[0]
        wall = CavitySphere(center=[0.2, -0.1, 0.3], radius=3.0)
        for _ in range(4):
            Q = random_rotation(rng)
            S = Q @ np.diag(rng.uniform(0.4, 1.2, 3)) @ Q.T
            center = wall.center + rng.uniform(-0.8, 0.8, 3)
            farthest = np.linalg.norm(center + sphere @ S - wall.center, axis=1).max()
            config = Configuration(bubbles=(EllipsoidParams(center=center, shape_matrix=S),),
                                   domain=wall)
            for level in (1, 2):
                assert check_admissible(config, level).min_gap <= wall.radius - farthest


class TestParams:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateShapeError):
            SphereParams(center=np.zeros(3), radius=-1.0)
        with pytest.raises(DegenerateShapeError):
            EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 1.0, 0.0]))
        with pytest.raises(DegenerateShapeError):
            EllipsoidParams(center=np.zeros(3),
                            shape_matrix=np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))

    @pytest.mark.parametrize("make", [
        lambda: SphereParams(center=[np.nan, 0, 0], radius=1.0),
        lambda: EllipsoidParams(center=[np.inf, 0, 0], shape_matrix=np.eye(3)),
        lambda: EllipsoidParams(center=np.zeros(3), shape_matrix=np.full((3, 3), np.nan)),
        lambda: CavitySphere(center=np.zeros(3), radius=np.nan),
        lambda: CavitySphere(center=np.zeros(3), radius=np.inf),
        lambda: CavitySphere(center=[0.0, 0.0], radius=1.0),
    ], ids=["sphere-nan-center", "ellipsoid-inf-center", "ellipsoid-nan-matrix",
            "cavity-nan-radius", "cavity-inf-radius", "cavity-2-vector-center"])
    def test_non_finite_or_malformed_parameters_rejected(self, make):
        with pytest.raises(DegenerateShapeError):
            make()

    def test_pack_roundtrip(self):
        config = Configuration(bubbles=(
            SphereParams(center=[1, 2, 3], radius=0.5),
            EllipsoidParams(center=[5, 0, 0],
                            shape_matrix=np.array([[2.0, 0.1, 0], [0.1, 1.0, 0.2],
                                                   [0, 0.2, 1.5]]))))
        q = pack_params(config)
        assert q.shape == (13,)
        back = config_from_params(config, q)
        assert np.allclose(pack_params(back), q)

    def test_volume_gradient_concatenates(self):
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[4.0, 0, 0], radius=2.0)))
        g = volume_gradient(config)
        assert g.shape == (8,)
        assert g[3] == pytest.approx(4 * np.pi)
        assert g[7] == pytest.approx(16 * np.pi)
