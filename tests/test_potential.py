import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbledyn import dynamics as dyn
from bubbledyn.errors import CompatibilityError, IllPosedProblemError
from bubbledyn.gas import BubbleGasState, GasLaw, potential_energy
from bubbledyn.potential import (_Assembly, _direction_data, _self_blocks,
                                 _unit_sphere_blocks, added_mass,
                                 added_mass_jacobian, configuration_meshes, evaluate,
                                 solve_neumann, surface_gradient, surface_panels)
from bubbledyn.shapes import (CavitySphere, Configuration, EllipsoidParams,
                              SphereParams, Unbounded, config_from_params,
                              constraint_basis, normal_velocity, pack_params,
                              reference_icosphere, surface_mesh, symmetric_matrix,
                              symmetric_slots, wall_mesh)


def unit_sphere_config():
    return Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=1.0),))


def monopole_solution(level=2):
    mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level)
    return solve_neumann((mesh,), np.ones(mesh.n_panels))


def dipole_solution(level=2, axis=0):
    mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level)
    return solve_neumann((mesh,), mesh.quad_normals[:, axis])


def rel_l2(values, reference, weights):
    num = np.sqrt(np.sum((values - reference) ** 2 * weights))
    den = np.sqrt(np.sum(np.maximum(reference ** 2, 1.0) * weights))
    return num / den


class TestSolveNeumann:
    def test_monopole_density_and_boundary(self):
        sol = monopole_solution(level=2)
        # pulsation of the unit sphere: exact constant density 1, phi = -1/|x|
        assert np.max(np.abs(sol.density - 1.0)) < 1e-10
        w = sol.geometry.weights
        assert rel_l2(sol.boundary_potential, -np.ones_like(w), w) < 0.01

    def test_monopole_exterior_values(self):
        sol = monopole_solution(level=2)
        phi, grad = evaluate(sol, np.array([[2.0, 0.0, 0.0]]))
        assert phi[0] == pytest.approx(-0.5, rel=2e-3)
        assert grad[0, 0] == pytest.approx(0.25, rel=2e-3)
        assert np.allclose(grad[0, 1:], 0.0, atol=1e-6)

    def test_dipole_boundary_values(self):
        sol = dipole_solution(level=3)
        ref = -0.5 * sol.geometry.normals[:, 0]
        w = sol.geometry.weights
        err = np.sqrt(np.sum((sol.boundary_potential - ref) ** 2 * w)
                      / np.sum(ref ** 2 * w))
        assert err < 0.02

    def test_dipole_symmetry_plane(self):
        sol = dipole_solution(level=2)
        phi, _ = evaluate(sol, np.array([[0.0, 2.0, 0.0]]))
        assert abs(phi[0]) < 1e-10

    def test_far_field_decay(self):
        sol = monopole_solution(level=1)
        mass = np.sum(sol.density * sol.geometry.weights) / (4 * np.pi)
        x = np.array([[1e3, 0.0, 0.0]])
        phi, _ = evaluate(sol, x)
        assert abs(phi[0]) <= mass / (1e3 - 1.0)
        assert phi[0] == pytest.approx(-mass / 1e3, rel=1e-5)

    def test_neumann_data_reproduced(self):
        # exterior normal derivative of the representation at the surface:
        # converges to the imposed data; the defect is the discretization
        # tolerance reported by the convergence suite
        errs = []
        for level in (1, 2, 3):
            sol = dipole_solution(level=level)
            grad = surface_gradient(sol, impose_data=False)
            got = np.einsum('ik,ik->i', grad, sol.geometry.normals)
            w = sol.geometry.weights
            errs.append(np.sqrt(np.sum((got - sol.boundary_data) ** 2 * w)
                                / np.sum(w)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] < 0.05

    def test_cavity_incompatible_flux_rejected(self):
        config = Configuration(
            bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=2.0))
        meshes = configuration_meshes(config, 1)
        n = sum(m.n_panels for m in meshes)
        g = np.zeros(n)
        g[:meshes[0].n_panels] = 1.0  # pure pulsation: net flux 4 pi r^2
        with pytest.raises(CompatibilityError):
            solve_neumann(meshes, g)

    @pytest.mark.parametrize("cavity", [False, True], ids=["unbounded", "cavity"])
    def test_data_of_another_length_rejected(self, cavity):
        # one entry per panel of every surface, the wall's included
        domain = CavitySphere(center=np.zeros(3), radius=2.0) if cavity else Unbounded()
        config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
                               domain=domain)
        meshes = configuration_meshes(config, 1)
        n = sum(m.n_panels for m in meshes)
        bad = [np.zeros(n - 1), np.zeros(n + 1), np.zeros((n, 1))]
        if cavity:
            bad.append(np.zeros(meshes[0].n_panels))  # the bubble's panels alone
        for g in bad:
            with pytest.raises(ValueError, match="panel count"):
                solve_neumann(meshes, g)

    def test_cavity_translation_added_mass(self):
        # sphere a=1 in concentric cavity b=2, translation: Lamb's value
        b = 2.0
        config = Configuration(
            bubbles=(SphereParams(center=np.zeros(3), radius=1.0),),
            domain=CavitySphere(center=np.zeros(3), radius=b))
        # a lone sphere's volume-preserving velocities are its translations
        A = added_mass(config, level=2, liquid_density=1.0)
        B = constraint_basis(config).matrix
        assert np.array_equal(B, np.eye(4)[:, :3])
        exact = (2 * np.pi / 3) * (b ** 3 + 2.0) / (b ** 3 - 1.0)
        assert np.allclose(np.diag(A.matrix), exact, rtol=5e-3)
        off = A.matrix - np.diag(np.diag(A.matrix))
        assert np.max(np.abs(off)) < 1e-3 * exact
        assert np.array_equal(A.kinetic, B @ A.matrix @ B.T)


class TestBasisPotentials:
    def test_single_sphere_four_solutions(self):
        mass = added_mass(unit_sphere_config(), level=1)
        assert mass.data.shape[1] == mass.density.shape[1] == mass.potential.shape[1] == 4
        # radius direction: the monopole
        assert np.max(np.abs(mass.density[:, 3] - 1.0)) < 1e-10
        # center directions carry data n.e_i
        mesh = mass.assembly.meshes[0]
        assert np.allclose(mass.data[:, 0], mesh.quad_normals[:, 0])

    def test_well_separated_spheres_decouple(self):
        d = 40.0
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[d, 0, 0], radius=1.0)))
        A = added_mass(config, level=1, liquid_density=1.0)
        iso = added_mass(unit_sphere_config(), level=1, liquid_density=1.0)
        # each bubble's diagonal block approaches the isolated-sphere matrix
        for blk in (A.matrix[:4, :4], A.matrix[4:, 4:]):
            assert np.allclose(np.diag(blk), np.diag(iso.matrix), rtol=1e-4)
        # leading interaction: monopole-monopole coupling 4 pi r^4 / d
        assert A.matrix[3, 7] == pytest.approx(4 * np.pi / d, rel=1e-3)
        # translation couplings decay much faster
        assert np.max(np.abs(A.matrix[:3, 4:7])) < 1e-3

    def test_cavity_solutions_span_the_volume_preserving_velocities(self):
        config = sphere_pair_in_cavity()
        A = added_mass(config, 1)
        data, phi = A.data, A.potential
        assert data.shape[1] == phi.shape[1] == config.dim - 1
        w = np.concatenate([m.quad_weights for m in A.assembly.meshes])
        assert np.all(np.abs(w @ data) <= 1e-8 * np.abs(data).max(axis=0) * w.sum())
        # their Gram matrix is the added mass
        raw = -(phi.T * w) @ data
        assert np.allclose(0.5 * (raw + raw.T), A.matrix, rtol=0.0,
                           atol=1e-13 * np.abs(A.matrix).max())


class TestAddedMass:
    def test_single_sphere_analytic(self):
        r, rho = 1.3, 2.0
        config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=r),))
        A = added_mass(config, level=3, liquid_density=rho)
        want = rho * np.diag([2 * np.pi * r ** 3 / 3] * 3 + [4 * np.pi * r ** 3])
        assert np.allclose(np.diag(A.matrix), np.diag(want), rtol=0.02)
        off = A.matrix - np.diag(np.diag(A.matrix))
        assert np.max(np.abs(off)) < 0.01 * np.max(want)
        assert A.eigenvalues[0] > 0
        assert A.asymmetry < 0.02
        assert A.kinetic is A.matrix

    def test_scaling_cubes(self):
        config1 = Configuration(bubbles=(SphereParams(center=[0.2, 0, 0], radius=1.0),))
        lam = 1.7
        config2 = Configuration(
            bubbles=(SphereParams(center=[0.2 * lam, 0, 0], radius=lam),))
        A1 = added_mass(config1, level=1).matrix
        A2 = added_mass(config2, level=1).matrix
        assert np.allclose(A2, lam ** 3 * A1, rtol=1e-12, atol=1e-12)

    def test_bubble_swap_permutation(self):
        b1 = SphereParams(center=[-1.5, 0, 0], radius=1.0)
        b2 = SphereParams(center=[+1.5, 0, 0], radius=1.0)
        A12 = added_mass(Configuration(bubbles=(b1, b2)), level=1).matrix
        A21 = added_mass(Configuration(bubbles=(b2, b1)), level=1).matrix
        P = np.zeros((8, 8))
        P[:4, 4:] = np.eye(4)
        P[4:, :4] = np.eye(4)
        assert np.allclose(A21, P @ A12 @ P.T, rtol=1e-12, atol=1e-12)

    def test_spd_and_condition_reported(self):
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            EllipsoidParams(center=[4.0, 0, 0], shape_matrix=np.diag([1.0, 1.0, 1.5]))))
        A = added_mass(config, level=1)
        assert A.eigenvalues[0] > 0
        assert A.collocation_condition is not None
        assert A.condition >= 1.0

    def test_green_identity_monte_carlo(self):
        # volume Gram integral of the monopole field over a large ball minus
        # the bubble, against the boundary-reduced entry (radial, radial)
        sol = monopole_solution(level=2)
        geom = sol.geometry
        rng = np.random.default_rng(42)
        n, R_out, r_in = 4000, 12.0, 1.02
        # importance sampling: radius pdf p(r) ~ 1/r^2 on [r_in, R_out]
        u = rng.random(n)
        inv = 1.0 / r_in - u * (1.0 / r_in - 1.0 / R_out)
        r = 1.0 / inv
        zdir = rng.normal(size=(n, 3))
        zdir /= np.linalg.norm(zdir, axis=1)[:, None]
        pts = r[:, None] * zdir
        _, _, grads = _exact_gradients(sol, pts)
        f = np.einsum('ik,ik->i', grads, grads)
        pnorm = (1.0 / r ** 2) / (1.0 / r_in - 1.0 / R_out)
        integral = np.mean(f * r ** 2 * 4 * np.pi / pnorm)
        mass = np.sum(sol.density * geom.weights) / (4 * np.pi)
        tail = 4 * np.pi * mass ** 2 / R_out          # exact monopole tail
        inner = 4 * np.pi * mass ** 2 * (1 / 1.0 - 1 / r_in)  # skipped shell
        boundary_value = -np.sum(sol.boundary_potential * sol.boundary_data
                                 * geom.weights)
        assert integral + tail + inner == pytest.approx(boundary_value, rel=0.05)

    def test_mesh_convergence_order(self):
        config = unit_sphere_config()
        errs = []
        for level in (1, 2, 3):
            A = added_mass(config, level).matrix
            want = np.diag([2 * np.pi / 3] * 3 + [4 * np.pi])
            errs.append(np.max(np.abs(A - want)) / (4 * np.pi))
        # order >= 1 in edge length (halved per level)
        assert errs[0] / errs[1] > 2.0
        assert errs[1] / errs[2] > 2.0


def _exact_gradients(solution, pts):
    from bubbledyn.potential import _blocked
    _, _, g = _blocked(pts, solution.geometry, want_single=False,
                       want_double=False, density=solution.density[:, None])
    return None, None, g[:, :, 0]


class TestBlockedAssembly:
    def test_row_blocking_matches_unblocked(self, monkeypatch):
        # force the memory-bounded row-block path and compare
        import bubbledyn.potential as pot_mod
        from bubbledyn.potential import _blocked
        sol_ref = dipole_solution(level=1)
        # the contracted rate terms of one ellipsoid's points over the
        # other's panels: the outputs of the points (grad, T) split with
        # the rows, and the moments (F, Fa), sums over the points, add up
        # over the blocks (here of one row each)
        config = ellipsoid_pair()
        a, b = (surface_panels(surface_mesh(e, 1)) for e in config.bubbles)
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(b.n_panels, 4)), rng.normal(size=(a.n_panels, 4))
        plain, rows = pot_mod._panel_blocks, []

        def counted(x, *args, **kwargs):
            rows.append(len(x))
            return plain(x, *args, **kwargs)

        def rate_terms():
            rows.clear()
            return _blocked(a.points, b, want_single=False, want_double=False, density=X,
                            tensor=X, moments=Y, degree=2)[2:]

        monkeypatch.setattr(pot_mod, "_panel_blocks", counted)
        terms_ref = rate_terms()
        assert rows == [a.n_panels]
        monkeypatch.setattr(pot_mod, "_ROW_BLOCK", 17)
        terms_blk = rate_terms()
        assert rows == [1] * a.n_panels
        shapes = [(a.n_panels, 3, 4), (a.n_panels, 6, 4), (3, b.n_panels, 10, 4),
                  (3, b.n_panels, 4, 4)]
        for blk, ref, shape in zip(terms_blk, terms_ref, shapes):
            assert blk.shape == ref.shape == shape
            assert rel_diff(blk, ref) <= 1e-13
        sol_blk = dipole_solution(level=1)
        assert np.allclose(sol_blk.density, sol_ref.density, rtol=0, atol=1e-14)
        assert np.allclose(sol_blk.boundary_potential, sol_ref.boundary_potential,
                           rtol=0, atol=1e-14)
        grad_ref = surface_gradient(sol_ref)
        grad_blk = surface_gradient(sol_blk)
        assert np.allclose(grad_blk, grad_ref, rtol=0, atol=1e-13)


class TestAddedMassJacobian:
    def test_radial_derivative(self):
        r = 1.2
        config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=r),))
        dA = added_mass_jacobian(added_mass(config, 2))
        # discrete scaling identity dA/dr = 3 A / r, exact up to roundoff
        A = added_mass(config, level=2).matrix
        assert np.allclose(dA[3], 3.0 * A / r, rtol=1e-12, atol=1e-14)
        # analytic target 12 pi r^2 within BEM tolerance
        assert dA[3][3, 3] == pytest.approx(12 * np.pi * r ** 2, rel=0.02)

    def test_center_derivatives_vanish_single_bubble(self):
        config = unit_sphere_config()
        dA = added_mass_jacobian(added_mass(config, 1))
        assert np.all(dA[:3] == 0.0)

    def test_two_bubble_center_derivative_nonzero(self):
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[3.0, 0, 0], radius=1.0)))
        dA = added_mass_jacobian(added_mass(config, 1))
        # moving bubble 1 toward bubble 2 changes the interaction blocks
        assert np.max(np.abs(dA[0])) > 1e-4
        # every slice is exactly symmetric (post-symmetrization)
        for k in range(8):
            assert np.array_equal(dA[k], dA[k].T)

    def test_translation_invariance_of_pair(self):
        # derivative with respect to a COMMON translation vanishes
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[3.0, 0, 0], radius=1.0)))
        dA = added_mass_jacobian(added_mass(config, 1))
        for axis in range(3):
            combo = dA[axis] + dA[4 + axis]
            assert np.max(np.abs(combo)) <= 1e-12 * np.max(np.abs(dA[axis]))

    @pytest.mark.parametrize("n_bubbles", [2, 3, "ellipsoid_pair"])
    def test_translation_and_scaling_identities(self, n_bubbles):
        # A is invariant under a common translation and homogeneous of
        # degree 3 under scaling about the origin, exactly so in the
        # discretization: sum_k dA/dc_k = 0 and sum_i q_i dA/dq_i = 3 A.
        # Every column is exact, so both hold to roundoff
        if n_bubbles == "ellipsoid_pair":
            config = ellipsoid_pair()
        else:
            config = Configuration(bubbles=tuple(
                SphereParams(center=c, radius=r) for c, r in
                zip(([0.2, -0.1, 0.3], [2.8, 0.4, -0.2], [0.5, 2.6, 0.7])[:n_bubbles],
                    (1.0, 0.8, 0.7)[:n_bubbles])))
        A = added_mass(config, 1)
        dA = added_mass_jacobian(A)
        scale = np.max(np.abs(A.matrix))
        for axis in range(3):
            total = sum(dA[sl.start + axis] for sl in config.slices())
            assert np.max(np.abs(total)) <= 1e-12 * scale
        euler = np.einsum('i,ijk->jk', pack_params(config), dA)
        assert np.max(np.abs(euler - 3.0 * A.matrix)) <= 1e-12 * scale

    def test_two_sphere_pulsation_coupling(self):
        # A_{r1 r2} -> 4 pi rho a1^2 a2^2 / d for d >> a (Bjerknes 1906),
        # closer as d / a grows; its centre derivatives, from the exact
        # translation columns, give the secondary Bjerknes force: in-phase
        # pulsations attract (dA_{r1r2}/dc_1x > 0 > dA_{r1r2}/dc_2x)
        rho, a1, a2 = 1.3, 1.0, 0.8
        errors = []
        for ratio in (3.0, 6.0, 12.0):
            d = ratio * a1
            config = Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=a1),
                                            SphereParams(center=[d, 0.0, 0.0], radius=a2)))
            A = added_mass(config, 1, liquid_density=rho)
            dA = added_mass_jacobian(A)
            coupling = 4.0 * np.pi * rho * a1 ** 2 * a2 ** 2 / d
            errors.append(abs(A.matrix[3, 7] / coupling - 1.0))
            assert dA[0][3, 7] > 0.0 > dA[4][3, 7]
        assert errors[0] > errors[1] > errors[2]
        # at d = 12 a the force has the magnitude 4 pi rho a1^2 a2^2 / d^2
        assert dA[0][3, 7] == pytest.approx(coupling / d, rel=1e-5)
        assert -dA[4][3, 7] == pytest.approx(coupling / d, rel=1e-5)


def rel_diff(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def sphere_pair_in_cavity():
    return Configuration(
        bubbles=(SphereParams(center=[-0.9, 0.1, 0.0], radius=0.6),
                 SphereParams(center=[0.8, 0.0, 0.2], radius=0.5)),
        domain=CavitySphere(center=np.zeros(3), radius=2.5))


def ellipsoid_pair():
    return Configuration(bubbles=(
        EllipsoidParams(center=[-1.2, 0.0, 0.0],
                        shape_matrix=[[0.8, 0.05, 0.0], [0.05, 0.6, 0.02],
                                      [0.0, 0.02, 0.7]]),
        EllipsoidParams(center=[1.3, 0.1, 0.0],
                        shape_matrix=[[0.7, 0.0, 0.03], [0.0, 0.75, 0.0],
                                      [0.03, 0.0, 0.6]])))


def sphere_and_ellipsoid_in_cavity():
    return Configuration(
        bubbles=(SphereParams(center=[-0.8, 0.0, 0.1], radius=0.5),
                 EllipsoidParams(center=[0.9, 0.0, 0.0],
                                 shape_matrix=[[0.6, 0.05, 0.0], [0.05, 0.5, 0.02],
                                               [0.0, 0.02, 0.4]])),
        domain=CavitySphere(center=np.zeros(3), radius=2.5))


def central_jacobian(config, level, step):
    """Plain central difference of the kinetic matrix along every packed
    slot, step ``step * (1 + |q_k|)``."""
    q0 = pack_params(config)
    ref = np.zeros((len(q0),) * 3)
    for k in range(len(q0)):
        e = np.zeros_like(q0)
        e[k] = step * (1.0 + abs(q0[k]))
        ref[k] = (added_mass(config_from_params(config, q0 + e), level).kinetic
                  - added_mass(config_from_params(config, q0 - e), level).kinetic) / (2.0 * e[k])
    return ref


def matrix_slots(config):
    """Packed slots of every ellipsoid shape matrix."""
    return [sl.start + j for b, sl in zip(config.bubbles, config.slices())
            if isinstance(b, EllipsoidParams) for j in range(3, 9)]


class TestBlockReuse:
    @pytest.mark.parametrize("wall", [False, True])
    def test_sphere_self_blocks_are_scaled_unit_pair(self, wall):
        center, radius = np.array([0.3, -1.2, 0.7]), 1.7
        mesh = (wall_mesh(CavitySphere(center=center, radius=radius), 2) if wall
                else surface_mesh(SphereParams(center=center, radius=radius), 2))
        A, S = _self_blocks(surface_panels(mesh))
        unit = _unit_sphere_blocks(2, wall)
        A_unit, S_unit = unit.A, unit.S
        assert not A_unit.flags.writeable and not S_unit.flags.writeable
        assert rel_diff(A_unit, A) <= 1e-13
        assert rel_diff(radius * S_unit, S) <= 1e-13

    @pytest.mark.parametrize("make_config", [sphere_pair_in_cavity, ellipsoid_pair,
                                             sphere_and_ellipsoid_in_cavity])
    def test_jacobian_matches_plain_central_differences(self, make_config):
        # every column is exact, so a plain central difference D(h) misses
        # each by O(h^2), 4x less per halving; Richardson's extrapolation
        # (4 D(h) - D(2h)) / 3 cancels that error, and what is left, O(h^4)
        # and the roundoff of the differences, lies far below its bound,
        # on the ellipsoid matrix slots as on the other columns
        config = make_config()
        dA = added_mass_jacobian(added_mass(config, 1))

        def column_errors(ref):
            return np.abs(dA - ref).reshape(len(dA), -1).max(axis=1)

        scale = np.max(np.abs(dA))
        fine, coarse = (central_jacobian(config, 1, h) for h in (2e-4, 4e-4))
        coarse_errors, fine_errors = column_errors(coarse), column_errors(fine)
        checked = [k for k in range(len(dA)) if coarse_errors[k] > 1e-8 * scale]
        assert len(checked) >= len(dA) // 2
        assert set(matrix_slots(config)) <= set(checked)
        for k in checked:
            assert 3.0 <= coarse_errors[k] / fine_errors[k] <= 5.0, k
        richardson = (4.0 * fine - coarse) / 3.0
        assert rel_diff(dA, richardson) <= 1e-7
        slots = matrix_slots(config)
        if slots:
            assert rel_diff(dA[slots], richardson[slots]) <= 1e-7

    def test_jacobian_factors_only_the_base(self, monkeypatch):
        # the added mass and its whole Jacobian make one LU between them
        calls = TestLoneSphereFactorization.count_lu(monkeypatch)
        added_mass_jacobian(added_mass(ellipsoid_pair(), 1))
        assert calls == [160]

    @pytest.mark.parametrize("make_config, passes", [(ellipsoid_pair, 4),
                                                     (sphere_pair_in_cavity, 6)])
    def test_jacobian_makes_one_kernel_pass_per_block(self, monkeypatch, make_config, passes):
        # the rates come contracted from one _panel_blocks pass per ordered
        # pair of surfaces with a bubble among them, and one per ellipsoid
        # self-block, whatever the number of slots: 2 + 2 for two
        # ellipsoids, 6 + 0 for two spheres and a wall
        import bubbledyn.potential as pot_mod
        mass = added_mass(make_config(), 1)
        plain, calls = pot_mod._panel_blocks, []

        def counted(*args, **kwargs):
            calls.append(1)
            return plain(*args, **kwargs)

        monkeypatch.setattr(pot_mod, "_panel_blocks", counted)
        added_mass_jacobian(mass)
        assert len(calls) == passes

    def test_jacobian_builds_no_mesh_or_assembly(self, monkeypatch):
        # ellipsoids 5e-3 apart (as the level-1 admissibility check
        # measures the gap): every column is a derivative at the state
        # itself, so none meshes, checks or assembles a moved configuration
        # and the Jacobian of a near-contact state is finite
        import bubbledyn.potential as pot_mod
        import bubbledyn.shapes as shapes_mod
        from bubbledyn.shapes import _pair_gap
        config = Configuration(bubbles=(
            EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 0.8, 0.9])),
            EllipsoidParams(center=[2.5117, 0.0, 0.0],
                            shape_matrix=np.diag([0.9, 1.0, 0.85]))))
        assert 0.0 < _pair_gap(*config.bubbles, level=1) < 1e-2
        base = added_mass(config, 1)
        calls = []

        def counted(module, name):
            plain = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return plain(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for module, name in ((pot_mod, "surface_mesh"), (pot_mod, "wall_mesh"),
                             (pot_mod, "_Assembly"), (shapes_mod, "surface_mesh"),
                             (shapes_mod, "config_from_params"),
                             (shapes_mod, "check_admissible")):
            counted(module, name)
        dA = added_mass_jacobian(base)
        assert calls == []
        assert np.all(np.isfinite(dA)) and np.max(np.abs(dA)) > 0.0

    def test_unit_sphere_pair_built_once_under_threads(self, monkeypatch):
        # more workers than cores and frequent switches: a check-then-act
        # race would build the pair twice and hand out distinct arrays
        import sys
        from concurrent.futures import ThreadPoolExecutor
        import bubbledyn.potential as pot_mod
        monkeypatch.setattr(pot_mod, "_UNIT_SPHERE_BLOCKS", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_unit_sphere_blocks, 1, False) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(r is results[0] for r in results)

    def test_direction_data_matches_per_direction_loop(self):
        config = sphere_and_ellipsoid_in_cavity()
        meshes = configuration_meshes(config, 1)
        directions = np.random.default_rng(3).normal(size=(config.dim, 5))
        G = _direction_data(config, meshes, directions)
        ref = np.zeros_like(G)
        for j, d in enumerate(directions.T):
            off = 0
            for shape, sl, mesh in zip(config.bubbles, config.slices(), meshes):
                ref[off:off + mesh.n_panels, j] = normal_velocity(
                    shape, d[sl], mesh.quad_points, mesh.quad_normals)
                off += mesh.n_panels
        # summation order differs from the loop: equal to a few ulps
        assert np.max(np.abs(G - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.all(G[off:] == 0.0)


class TestLoneSphereFactorization:
    """A lone sphere's collocation matrix is the unit-sphere A itself, and
    every lone sphere of a level shares one LU of it."""

    @staticmethod
    def count_lu(monkeypatch):
        """Empty unit-sphere cache; returns the list every lu_factor call
        appends its matrix size to."""
        import bubbledyn.potential as pot_mod
        calls = []
        real = pot_mod.sla

        class Counting:
            def __getattr__(self, name):
                return getattr(real, name)

            def lu_factor(self, a, **kw):
                calls.append(len(a))
                return real.lu_factor(a, **kw)

        monkeypatch.setattr(pot_mod, "sla", Counting())
        monkeypatch.setattr(pot_mod, "_UNIT_SPHERE_BLOCKS", {})
        return calls

    def test_run_factors_once_per_level(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        from bubbledyn.scenario import scenario_from_dict
        calls = self.count_lu(monkeypatch)
        assemblies = []
        for name in ("added_mass", "solve_neumann"):
            plain = getattr(pot_mod, name)
            monkeypatch.setattr(pot_mod, name, lambda *a, _plain=plain, **kw:
                                assemblies.append(1) or _plain(*a, **kw))

        def doc(centers, level):
            bubble = {"velocity": {"center": [0.05, 0.0, 0.0], "radius": 0.02},
                      "gas": {"K": 1.0, "gamma": 1.4}, "mass": 4 * np.pi / 3}
            return {"liquid": {"density": 1.0, "p_infinity": 1.0},
                    "domain": {"type": "unbounded"},
                    "bubbles": [{"shape": {"type": "sphere", "center": c, "radius": 1.0},
                                 **bubble} for c in centers],
                    "solver": {"mesh_level": level, "residual_cadence": 2},
                    "time": {"t_end": 0.04, "output_dt": 0.02}}

        # lone spheres at two levels: every added mass, energy sample and
        # boundary-residual sample shares one LU per level, and so does a
        # solve given only another sphere's mesh
        for level in (1, 0):
            traj = dyn.integrate(scenario_from_dict(doc([[0.0, 0.0, 0.0]], level)))
            assert traj.termination == "completed"
            mesh = surface_mesh(SphereParams(center=[0.4, -0.2, 1.0], radius=0.6), level)
            solve_neumann((mesh,), np.ones(mesh.n_panels))
        assert calls == [80, 20]
        assert len(assemblies) > 20
        # a sphere pair still factors every assembly once, and assembles once
        # per RHS (its Jacobian is exact) and once per output row (t = 0,
        # 0.02, 0.04), whose energies, acceleration and residual share it
        del calls[:], assemblies[:]
        traj = dyn.integrate(scenario_from_dict(doc([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]], 0)))
        assert len(calls) == len(assemblies) == traj.stats["n_rhs"] + 3
        assert set(calls) == {40}

    def test_results_match_a_freshly_factored_copy(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        config = Configuration(bubbles=(SphereParams(center=[0.2, -0.1, 0.3],
                                                     radius=1.3),))
        meshes = configuration_meshes(config, 2)
        g = meshes[0].quad_normals[:, 1] + 0.5

        def results():
            mass = added_mass(config, 2)
            sol = solve_neumann(meshes, g)
            return (mass.matrix, sol.density, sol.boundary_potential,
                    added_mass_jacobian(mass),
                    mass.collocation_condition, sol.condition)

        shared = results()
        unit = _unit_sphere_blocks(2, False)
        assert added_mass(config, 2).assembly.factorization() is unit.factorization()

        def fresh(self):
            assert self is unit
            return pot_mod._Factorization(np.array(self.A))

        monkeypatch.setattr(pot_mod._UnitSphere, "factorization", fresh)
        got = results()
        for a, b in zip(got[:4], shared[:4]):
            assert np.array_equal(a, b)
        # the condition estimate (LAPACK gecon) can move in the last bit
        # between two calls on equal inputs, as BLAS threading varies
        assert got[4:] == pytest.approx(shared[4:], rel=1e-14)

    def test_shared_arrays_read_only_and_no_panel_data(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        config = Configuration(bubbles=(SphereParams(center=np.ones(3), radius=0.8),))
        unit = _unit_sphere_blocks(1, False)
        unit.factorization()
        built = []
        plain = pot_mod.surface_panels
        monkeypatch.setattr(pot_mod, "surface_panels",
                            lambda mesh: built.append(mesh) or plain(mesh))
        asm = added_mass(config, 1).assembly
        assert asm.A is unit.A
        assert not built  # no block of a lone sphere reads panel data
        assert asm.geom.meshes == asm.meshes and len(built) == 1
        lu, piv = asm.factorization().lu
        for a in (lu, piv, asm.A, asm.S):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0

    def test_checks_run_on_the_shared_factorization(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        config = unit_sphere_config()
        mesh = configuration_meshes(config, 1)[0]
        g = np.ones(mesh.n_panels)
        g[3] = np.nan
        with pytest.raises(IllPosedProblemError, match="non-finite"):
            solve_neumann((mesh,), g)
        monkeypatch.setattr(pot_mod._Factorization, "rcond", lambda self: 1e-16)
        with pytest.raises(IllPosedProblemError, match="singular"):
            added_mass(config, 1)

    def test_factored_once_under_threads(self, monkeypatch):
        # first use from eight threads released at once, with frequent
        # switches: a check-then-act race would factor the unit A more
        # than once
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        calls = self.count_lu(monkeypatch)
        assemblies = [_Assembly((surface_mesh(SphereParams(center=np.full(3, 0.1 * k),
                                                           radius=1.0 + 0.1 * k), 1),))
                      for k in range(8)]
        start = threading.Barrier(8)

        def factor(asm):
            start.wait(timeout=60)
            return asm.factorization()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(factor, assemblies, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert calls == [80]
        assert all(r is results[0] for r in results)


def _reference_panel_blocks(x, mesh, want_single, want_double, want_grad=False):
    """The flat-panel integrals as written before the panel-only terms were
    precomputed: everything from the mesh corners, on every call."""
    p0, p1, p2 = mesh.triangle_corners()
    lift = mesh.quad_weights / mesh.area
    M, N = len(x), mesh.n_panels
    xx = np.einsum('mk,mk->m', x, x)[:, None]

    def dots(v):
        return x @ v.T

    xv0, xv1, xv2 = dots(p0), dots(p1), dots(p2)
    l0 = np.sqrt(np.maximum(xx - 2 * xv0 + np.einsum('nk,nk->n', p0, p0)[None], 0.0))
    l1 = np.sqrt(np.maximum(xx - 2 * xv1 + np.einsum('nk,nk->n', p1, p1)[None], 0.0))
    l2 = np.sqrt(np.maximum(xx - 2 * xv2 + np.einsum('nk,nk->n', p2, p2)[None], 0.0))
    cross12 = np.cross(p1 - p0, p2 - p0)
    detv = np.einsum('nk,nk->n', p0, np.cross(p1, p2))
    num = detv[None] - x @ (np.cross(p1, p2) + np.cross(p2, p0) + np.cross(p0, p1)).T
    d01 = np.einsum('nk,nk->n', p0, p1)[None] - xv0 - xv1 + xx
    d12 = np.einsum('nk,nk->n', p1, p2)[None] - xv1 - xv2 + xx
    d20 = np.einsum('nk,nk->n', p2, p0)[None] - xv2 - xv0 + xx
    den = l0 * l1 * l2 + d01 * l2 + d12 * l0 + d20 * l1
    omega = 2.0 * np.arctan2(num, den)
    K = omega * (lift[None] / (4.0 * np.pi)) if want_double else None
    S = grad = None
    if want_single or want_grad:
        nh = cross12 / np.linalg.norm(cross12, axis=1)[:, None]
        I = np.zeros((M, N))
        if want_grad:
            grad = omega[:, :, None] * nh[None]
        for (a, b, la, lb) in ((p0, p1, l0, l1), (p1, p2, l1, l2), (p2, p0, l2, l0)):
            e = b - a
            le = np.linalg.norm(e, axis=1)
            eh = e / le[:, None]
            ssum = la + lb
            L = np.log((ssum + le[None]) / np.maximum(ssum - le[None], 1e-300))
            mhat = np.cross(eh, nh)
            d = x @ mhat.T - np.einsum('nk,nk->n', a, mhat)[None]
            I -= d * L
            if want_grad:
                grad -= L[:, :, None] * mhat[None]
        h = x @ nh.T - np.einsum('nk,nk->n', p0, nh)[None]
        I += h * omega
        if want_single:
            S = I * (-lift[None] / (4.0 * np.pi))
        if want_grad:
            grad = grad * (-lift[:, None] / (4.0 * np.pi))[None, :, :]
    return S, K, grad


def _per_field_rates(x, geom, V, W):
    """The rates of the blocks S and K of _panel_blocks, one (M, N) pair per
    motion, as the per-field formulas gave them before the rates came
    contracted: first as the points move along the velocities V
    (n, M, 3), the panels fixed, then as the panel corners move with the
    velocities W (n', 3, N, 3) (rate, corner, panel, axis), the points
    fixed; the lift held in both.

    The single layer's point rate is omega V.nh - sum_e L_e V.mhat_e, the
    solid angle's the edge (Biot-Savart) sum over edges a -> b of
    f_e V.((a - x) x (b - x)), f_e = (l_a + l_b) / (l_a l_b D_e),
    D_e = l_a l_b + (a - x).(b - x).  Along the corner velocities the
    solid angle moves by -(g_a W_a + g_b W_b).((a - x) x (b - x)) per edge,
    g_a = 1 / (l_a D_e) and g_b = 1 / (l_b D_e), and the single layer's
    closed form h omega - sum_e d_e L_e differentiates term by term:
    h = (x - p0).nh and d_e = (x - a).mhat_e through the rates of the
    corners, the unit normal and the edge normals, and
    L_e = log((s + l_e) / (s - l_e)), s = l_a + l_b, through
    d_e dL_e = P dl_e + Q_a y_a + Q_b y_b with dl_e the rate of the edge
    length, P = d_e s / D_e, Q_a = d_e l_e g_a, Q_b = d_e l_e g_b,
    y_a = (x - a).W_a and y_b = (x - b).W_b."""
    from bubbledyn.potential import _cross, _dot, _panel_blocks
    _, K, _ = _panel_blocks(x, geom, False, True)
    omega = K / (geom.lift / (4.0 * np.pi))
    ends = geom.corners[[1, 2, 0]]
    la = np.linalg.norm(x[:, None, None] - geom.corners.transpose(1, 0, 2)[None], axis=3)
    la = la.transpose(2, 0, 1)                     # (3, M, N) from x to each corner
    lb = la[[1, 2, 0]]
    dab = np.einsum('emnk,emnk->emn', geom.corners[:, None] - x[None, :, None],
                    ends[:, None] - x[None, :, None])
    De = la * lb + dab
    le = geom.edge_length[:, None]
    L = np.log((la + lb + le) / (la + lb - le))
    ga, gb = 1.0 / (la * De), 1.0 / (lb * De)
    d = np.einsum('mk,enk->emn', x, geom.edge_normal) - geom.edge_offset[:, None]
    h = x @ geom.unit_normal.T - geom.plane_offset[None]
    nh, mhat = geom.unit_normal, geom.edge_normal
    # (a - x) x (b - x) per edge, point and panel
    R = _cross(geom.corners[:, None] - x[None, :, None], ends[:, None] - x[None, :, None])
    dS, dK = [], []
    for v in V:
        dS.append(omega * (v @ nh.T) - np.einsum('emn,emn->mn', L, v @ mhat.transpose(0, 2, 1)))
        dK.append(np.einsum('emn,emn->mn', ga + gb, np.einsum('mk,emnk->emn', v, R)))
    p0, p1, p2 = geom.corners
    length = geom.edge_length
    eh = geom.edge_vector / length[:, :, None]
    for w in W:
        wb = w[[1, 2, 0]]
        dD = wb - w
        dle = _dot(eh, dD)
        dcross = _cross(w[1] - w[0], p2 - p0) + _cross(p1 - p0, w[2] - w[0])
        dnh = (dcross - nh * _dot(nh, dcross)[:, None]) / _dot(_cross(p1 - p0, p2 - p0),
                                                              nh)[:, None]
        dmhat = _cross((dD - eh * dle[..., None]) / length[:, :, None], nh) + _cross(eh, dnh)
        dOmega = -np.einsum('emnk,emnk->mn',
                            ga[..., None] * w[:, None] + gb[..., None] * wb[:, None], R)
        dh = x @ dnh.T - (_dot(p0, dnh) + _dot(w[0], nh))[None]
        ya = np.einsum('emnk,enk->emn', x[None, :, None] - geom.corners[:, None], w)
        yb = np.einsum('emnk,enk->emn', x[None, :, None] - ends[:, None], wb)
        dd = (np.einsum('mk,enk->emn', x, dmhat)
              - (_dot(geom.corners, dmhat) + _dot(w, mhat))[:, None])
        s = la + lb
        dL_d = (d * s / De) * dle[:, None] + d * le * ga * ya + d * le * gb * yb
        dI = dh * omega + h * dOmega - (dd * L + dL_d).sum(axis=0)
        dS.append(dI)
        dK.append(dOmega)
    dS = np.array(dS) * (-geom.lift / (4.0 * np.pi))
    dK = np.array(dK) * (geom.lift / (4.0 * np.pi))
    return dS, dK


SURFACES = {
    "sphere": lambda: surface_mesh(SphereParams(center=[0.3, -0.2, 0.1], radius=0.7), 2),
    "ellipsoid": lambda: surface_mesh(ellipsoid_pair().bubbles[0], 2),
    "wall": lambda: wall_mesh(CavitySphere(center=[0.1, 0.0, -0.2], radius=2.5), 1),
}


class TestPanelData:
    @pytest.mark.parametrize("surface", sorted(SURFACES))
    def test_panel_blocks_match_reference_formula(self, surface):
        from bubbledyn.potential import _panel_blocks
        mesh = SURFACES[surface]()
        pts, nrm = mesh.quad_points, mesh.quad_normals
        h = mesh.edge_length()
        # on the panels, a hundredth of a panel off them, and far away
        x = np.concatenate([pts, pts + 1e-2 * h * nrm, pts[::7] + 20.0 * nrm[::7]])
        density = np.random.default_rng(7).normal(size=(mesh.n_panels, 1))
        S, K, grad = _panel_blocks(x, surface_panels(mesh), True, True, density=density)
        ref = _reference_panel_blocks(x, mesh, True, True, want_grad=True)
        assert rel_diff(S, ref[0]) <= 1e-14
        assert rel_diff(K, ref[1]) <= 1e-14
        # the gradient comes contracted with the density: contract the
        # reference tensor with the same density
        assert rel_diff(grad, np.einsum('mnk,np->mkp', ref[2], density)) <= 1e-13
        # the single outputs alone take the same path
        S, K, grad = _panel_blocks(x, surface_panels(mesh), True, False)
        assert K is None and grad is None
        assert rel_diff(S, ref[0]) <= 1e-14

    @staticmethod
    def block_motions(seed):
        """An ellipsoid's panels, points on them and a tenth of a panel off
        them, densities X and Y, two affine point fields A x + v and two
        linear maps G about a centre c for the panel corners."""
        mesh = surface_mesh(ellipsoid_pair().bubbles[0], 1)
        x = np.concatenate([mesh.quad_points,
                            mesh.quad_points + 0.1 * mesh.edge_length() * mesh.quad_normals])
        rng = np.random.default_rng(seed)
        X, Y = rng.normal(size=(mesh.n_panels, 3)), rng.normal(size=(len(x), 3))
        A, v, G = rng.normal(size=(2, 3, 3)), rng.normal(size=(2, 3)), rng.normal(size=(2, 3, 3))
        return mesh, x, X, Y, A, v, (G, mesh.shape.center + rng.normal(scale=0.1, size=3))

    def test_panel_rates_match_central_differences(self):
        # the contracted rates of S X and K^T Y as the points move along
        # affine fields and as the panel corners move by linear maps (the
        # lift held), against central differences of the blocks of moved
        # points and of moved mesh vertices (a mesh's panel lift reads its
        # stored flat areas, which a moved copy keeps)
        import dataclasses
        from bubbledyn.potential import _block_rates, _panel_blocks
        mesh, x, X, Y, A, v, (G, c) = self.block_motions(11)
        dSX, dKY = _block_rates(x, surface_panels(mesh), X, Y, A, v, (G, c))
        assert dSX.shape == (4, len(x), 3) and dKY.shape == (4, mesh.n_panels, 3)
        h = 1e-6

        def contracted(x, vertices):
            moved = dataclasses.replace(mesh, vertices=vertices)
            S, K, _ = _panel_blocks(x, surface_panels(moved), True, True)
            return S @ X, K.T @ Y

        for i in range(2):
            V = x @ A[i].T + v[i]
            W = (mesh.vertices - c) @ G[i].T
            point = [(p - m) / (2 * h) for p, m in zip(contracted(x + h * V, mesh.vertices),
                                                       contracted(x - h * V, mesh.vertices))]
            corner = [(p - m) / (2 * h) for p, m in zip(contracted(x, mesh.vertices + h * W),
                                                        contracted(x, mesh.vertices - h * W))]
            for k, ref in ((i, point), (2 + i, corner)):
                assert rel_diff(dSX[k], ref[0]) <= 1e-7
                assert rel_diff(dKY[k], ref[1]) <= 1e-7

    def test_contracted_rates_match_per_field_formula(self):
        # the tensor T and the edge moments against the per-field rate
        # blocks, each applied to the densities afterwards
        from bubbledyn.potential import _block_rates
        mesh, x, X, Y, A, v, (G, c) = self.block_motions(12)
        geom = surface_panels(mesh)
        dSX, dKY = _block_rates(x, geom, X, Y, A, v, (G, c))
        V = x @ A.transpose(0, 2, 1) + v[:, None]
        W = (geom.corners - c) @ G[:, None].transpose(0, 1, 3, 2)
        dS, dK = _per_field_rates(x, geom, V, W)
        assert rel_diff(dSX, dS @ X) <= 1e-12
        assert rel_diff(dKY, dK.transpose(0, 2, 1) @ Y) <= 1e-12

    def test_joined_panels_concatenate_the_surfaces(self):
        from bubbledyn.potential import join_panels
        config = sphere_pair_in_cavity()
        parts = [surface_panels(m) for m in configuration_meshes(config, 1)]
        joined = join_panels(parts)
        assert joined.meshes == tuple(p.meshes[0] for p in parts)
        offsets = np.cumsum([0] + [p.n_panels for p in parts])
        assert joined.n_panels == offsets[-1]
        for k, part in enumerate(parts):
            blk = slice(offsets[k], offsets[k + 1])
            assert np.array_equal(joined.edge_normal[:, blk], part.edge_normal)
            assert np.array_equal(joined.corners[:, blk], part.corners)
            assert np.array_equal(joined.points[blk], part.points)
        assert join_panels(parts[:1]) is parts[0]

    def test_panel_arrays_read_only(self):
        from bubbledyn.potential import join_panels
        meshes = configuration_meshes(sphere_pair_in_cavity(), 1)
        for geom in (surface_panels(meshes[0]),
                     join_panels([surface_panels(m) for m in meshes])):
            arrays = [v for v in vars(geom).values() if isinstance(v, np.ndarray)]
            assert len(arrays) >= 16
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0
        # the mesh's own arrays stay as they were
        assert meshes[0].quad_points.flags.writeable

    def test_one_rhs_builds_panels_once_per_new_surface(self, monkeypatch):
        # two spheres in a cavity at level 1: the base configuration builds
        # the meshes and panel data of its three surfaces; the Jacobian,
        # exact in every centre and radius, builds none
        import os
        import bubbledyn.potential as pot_mod
        from bubbledyn.scenario import parse_scenario
        scenario = parse_scenario(os.path.join(os.path.dirname(__file__), "..",
                                               "scenarios", "two_bubble_cavity.json"))
        state = scenario.initial_state()
        config, (_, qd) = state.config, state.packed()
        for wall in (False, True):  # cached across the process: fill it first
            _unit_sphere_blocks(scenario.mesh_level, wall)
        calls = {name: [] for name in ("surface_panels", "surface_mesh", "wall_mesh")}

        def counted(name):
            plain = getattr(pot_mod, name)

            def wrapper(*args):
                calls[name].append(args)
                return plain(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(pot_mod, name, counted(name))
        dyn._acceleration(scenario, dyn.mass_at(scenario, config), qd)
        assert config.dim == 8
        assert len(calls["surface_panels"]) == 3 + 0
        assert len(calls["surface_mesh"]) == 2 + 0
        assert len(calls["wall_mesh"]) == 1


def jittered_sphere_and_ellipsoid(seed, cavity):
    """A sphere and a non-spherical ellipsoid at level-1 distances, jittered
    by ``seed``, unbounded or in a spherical cavity."""
    rng = np.random.default_rng(seed)
    sphere = SphereParams(center=np.array([-0.9, 0.0, 0.1]) + rng.uniform(-0.1, 0.1, 3),
                          radius=0.5 * (1.0 + rng.uniform(-0.1, 0.1)))
    S = np.diag(np.array([0.6, 0.5, 0.4]) * (1.0 + rng.uniform(-0.1, 0.1, 3)))
    S[0, 1] = S[1, 0] = rng.uniform(-0.05, 0.05)
    S[1, 2] = S[2, 1] = rng.uniform(-0.02, 0.02)
    ellipsoid = EllipsoidParams(center=np.array([0.9, 0.0, 0.0]) + rng.uniform(-0.1, 0.1, 3),
                                shape_matrix=S)
    domain = CavitySphere(center=np.zeros(3), radius=2.5) if cavity else Unbounded()
    return Configuration(bubbles=(sphere, ellipsoid), domain=domain), rng


class TestMetamorphic:
    """Symmetries that the discrete kinetic matrix and its Jacobian keep up
    to roundoff, on a sphere + ellipsoid pair at level 1 (on two or three
    spheres for the scaling law).  Every bound sits
    15x or more above the largest error seen over 500 seeds with one BLAS
    thread and 500 with the library's default; the cavity system
    (condition 2e7 to 4e8) carries more roundoff than the unbounded one,
    with a long tail: its median error is about 2e-13, and one seed in 300
    reached 6e-11, with 2e-11 in a centre column.  The
    largest errors were, unbounded and in the cavity: under permutation
    6.5e-16 and 4.3e-12 for the kinetic matrix, 5.2e-16 and 4.6e-11 for
    the Jacobian; under translation 4.6e-16 and 5.5e-12, and 1.0e-15 and
    5.9e-11."""

    # (kinetic, Jacobian), relative to the largest entry
    PERMUTATION_BOUNDS = {False: (1e-14, 1e-14), True: (1e-10, 1e-9)}
    TRANSLATION_BOUNDS = {False: (1e-14, 2e-14), True: (1e-10, 1e-9)}

    @pytest.mark.parametrize("cavity", [False, True])
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1))
    def test_permutation_equivariance(self, cavity, seed):
        # swapping the bubbles permutes the packed slots: sphere 0-3 and
        # ellipsoid 4-12 become ellipsoid 0-8 and sphere 9-12
        config, _ = jittered_sphere_and_ellipsoid(seed, cavity)
        swapped = Configuration(bubbles=config.bubbles[::-1], domain=config.domain)
        mass, mass_swapped = added_mass(config, 1), added_mass(swapped, 1)
        perm = np.r_[4:13, 0:4]
        kinetic = mass.kinetic[np.ix_(perm, perm)]
        dA = added_mass_jacobian(mass)[np.ix_(perm, perm, perm)]
        bound_kinetic, bound_jacobian = self.PERMUTATION_BOUNDS[cavity]
        assert rel_diff(mass_swapped.kinetic, kinetic) <= bound_kinetic
        assert rel_diff(added_mass_jacobian(mass_swapped), dA) <= bound_jacobian

    @pytest.mark.parametrize("cavity", [False, True])
    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1))
    def test_translation_invariance(self, cavity, seed):
        # moving every surface (the wall too) by d changes neither the
        # kinetic matrix nor its Jacobian; unbounded, the derivative along
        # a common translation of the bubbles vanishes
        config, rng = jittered_sphere_and_ellipsoid(seed, cavity)
        d = rng.uniform(-1.0, 1.0, 3)
        q = pack_params(config)
        for sl in config.slices():
            q[sl.start:sl.start + 3] += d
        domain = CavitySphere(center=d, radius=2.5) if cavity else config.domain
        moved = config_from_params(Configuration(config.bubbles, domain), q)
        mass, mass_moved = added_mass(config, 1), added_mass(moved, 1)
        dA, dA_moved = added_mass_jacobian(mass), added_mass_jacobian(mass_moved)
        bound_kinetic, bound_jacobian = self.TRANSLATION_BOUNDS[cavity]
        assert rel_diff(mass_moved.kinetic, mass.kinetic) <= bound_kinetic
        assert rel_diff(dA_moved, dA) <= bound_jacobian
        if not cavity:
            common = dA[0:3] + dA[4:7]
            assert np.max(np.abs(common)) <= 1e-14 * np.max(np.abs(dA))

    # (kinetic, Jacobian), relative to the largest entry; the largest
    # errors over 600 seeds were 1.5e-15 and 1.2e-15 unbounded, 2.4e-11
    # and 1.0e-10 in the cavity
    SCALING_BOUNDS = {False: (3e-14, 3e-14), True: (5e-10, 2e-9)}

    @pytest.mark.parametrize("cavity", [False, True])
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1), st.floats(0.3, 3.0))
    def test_sphere_scaling(self, cavity, seed, lam):
        # scaling every centre and radius of two or three spheres by lam
        # (and the cavity wall with them) scales every mesh exactly, so the
        # kinetic matrix is homogeneous of degree 3 in the parameters and
        # its Jacobian of degree 2: A(lam q) = lam^3 A(q) and
        # dA(lam q) = lam^2 dA(q), to roundoff
        rng = np.random.default_rng(seed)
        spots = ([-1.1, 0.0, 0.0], [1.1, 0.0, 0.0], [0.0, 1.2, 0.3])[:rng.integers(2, 4)]
        centres = [np.array(c) + rng.uniform(-0.1, 0.1, 3) for c in spots]
        radii = 0.5 * (1.0 + rng.uniform(-0.1, 0.1, len(centres)))
        wall = rng.uniform(-0.1, 0.1, 3)

        def config(scale):
            bubbles = tuple(SphereParams(center=scale * c, radius=scale * r)
                            for c, r in zip(centres, radii))
            domain = (CavitySphere(center=scale * wall, radius=scale * 3.0) if cavity
                      else Unbounded())
            return Configuration(bubbles=bubbles, domain=domain)

        mass, mass_scaled = added_mass(config(1.0), 1), added_mass(config(lam), 1)
        bound_kinetic, bound_jacobian = self.SCALING_BOUNDS[cavity]
        assert rel_diff(mass_scaled.kinetic, lam ** 3 * mass.kinetic) <= bound_kinetic
        assert rel_diff(added_mass_jacobian(mass_scaled),
                        lam ** 2 * added_mass_jacobian(mass)) <= bound_jacobian

    def test_icosahedral_rotation_equivariance(self):
        # a rotation R of the icosahedral group maps the reference
        # icosphere, and with it every mesh, onto itself up to the order
        # of the panels; rotating the configuration (c -> R c,
        # S -> R S R^T) maps the packed parameters by a linear T, so the
        # kinetic matrix obeys T^T A(T q) T = A(q) and its Jacobian
        # dA_k = sum_l T_lk T^T dA'_l T, both to roundoff.  The rotations
        # mix the ellipsoid's matrix slots, so a slot column that moved
        # the surface wrongly would break them.  Over 30 seeds the errors
        # stayed below 1.1e-15 (kinetic) and 7.3e-16 (Jacobian)
        config, _ = jittered_sphere_and_ellipsoid(3, cavity=False)
        mass = added_mass(config, 1)
        dA = added_mass_jacobian(mass)
        verts, faces = reference_icosphere(0)
        a, b, c = verts[faces[0]]
        fivefold = icosahedral_rotation(a, 5)
        rotations = (fivefold, icosahedral_rotation(a + b + c, 3),
                     icosahedral_rotation(a + b, 2),
                     fivefold @ icosahedral_rotation(a + b + c, 3))
        for R in rotations:
            moved = np.linalg.norm((verts @ R.T)[:, None] - verts[None], axis=2)
            assert moved.min(axis=1).max() <= 1e-14
            bubbles, T = [], np.zeros((config.dim, config.dim))
            for bubble, sl in zip(config.bubbles, config.slices()):
                centre, shape = slice(sl.start, sl.start + 3), slice(sl.start + 3, sl.stop)
                T[centre, centre] = R
                if isinstance(bubble, SphereParams):
                    bubbles.append(SphereParams(center=R @ bubble.center, radius=bubble.radius))
                    T[shape, shape] = 1.0
                else:
                    bubbles.append(EllipsoidParams(center=R @ bubble.center,
                                                   shape_matrix=R @ bubble.shape_matrix @ R.T))
                    T[shape, shape] = np.column_stack(
                        [symmetric_slots(R @ symmetric_matrix(e) @ R.T) for e in np.eye(6)])
            rotated = added_mass(Configuration(bubbles=tuple(bubbles)), 1)
            assert rel_diff(T.T @ rotated.kinetic @ T, mass.kinetic) <= 2e-14
            dA_rotated = np.einsum('lk,ai,lab,bj->kij', T, T,
                                   added_mass_jacobian(rotated), T)
            assert rel_diff(dA_rotated, dA) <= 2e-14


def icosahedral_rotation(axis, order):
    """Rotation by 2 pi / order about ``axis`` (Rodrigues)."""
    u = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    K = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    angle = 2.0 * np.pi / order
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


class TestLambShapeMode:
    """Lamb's n = 2 shape oscillation (Rayleigh 1879; Lamb, Hydrodynamics
    section 275) as a static oracle for the ellipsoid family.  Along
    S = R (I + eps D), D = diag(1, -1, 0) or its off-diagonal rotation, the
    stiffness is 12 sigma * 16 pi R^2 / 45 and the modal added mass
    16 pi rho R^5 / 45, so omega^2 = 12 sigma / (rho R^3)."""

    R, SIGMA, GAMMA = 1.0, 0.3, 1.4

    @pytest.mark.parametrize("mode", [
        [0, 0, 0, 1.0, 0, 0, -1.0, 0, 0],     # s11 = -s22
        [0, 0, 0, 0, 1.0, 0, 0, 0, 0],        # s12
    ], ids=["diagonal", "off-diagonal"])
    def test_n2_mode(self, mode):
        R, sigma = self.R, self.SIGMA
        v = R * np.array(mode)
        q0 = np.array([0, 0, 0, R, 0, 0, R, 0, R])
        # gas at rest with the surface tension: p_B = p_inf + 2 sigma / R
        mass = (1.0 + 2 * sigma / R) ** (1 / self.GAMMA) * 4 * np.pi * R ** 3 / 3
        gas = [BubbleGasState(mass=mass, law=GasLaw(K=1.0, gamma=self.GAMMA))]

        def config(eps):
            return Configuration((EllipsoidParams.unpack(q0 + eps * v),))

        def modal_force(eps):
            return potential_energy(gas, 1.0, sigma, config(eps)).dU_dm @ v

        h = 1e-4
        stiffness = (modal_force(h) - modal_force(-h)) / (2 * h)
        exact_stiffness = 12 * sigma * 16 * np.pi * R ** 2 / 45
        assert abs(stiffness - exact_stiffness) < 1e-6

        exact_mass = 16 * np.pi * R ** 5 / 45
        m1, m2, m3 = (v @ added_mass(config(0.0), level).kinetic @ v
                      for level in (1, 2, 3))
        errs = [exact_mass - m for m in (m1, m2, m3)]
        # O(h^2): the error falls about 4x per level
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0
        richardson = (4 * m3 - m2) / 3
        assert abs(richardson - exact_mass) < 2e-3
        omega2 = stiffness / richardson
        assert abs(omega2 / (12 * sigma / R ** 3) - 1) < 2e-3
