import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubbledyn import dynamics as dyn
from bubbledyn.errors import (CompatibilityError, DiscretizationError,
                              IllPosedProblemError)
from bubbledyn.potential import (_Assembly, _direction_data, _self_blocks,
                                 _unit_sphere_blocks, added_mass,
                                 added_mass_jacobian, basis_potentials,
                                 configuration_meshes, evaluate, solve_neumann,
                                 surface_gradient, surface_panels, NeumannProblem)
from bubbledyn.shapes import (CavitySphere, Configuration, EllipsoidParams,
                              SphereParams, Unbounded, config_from_params,
                              constraint_basis, normal_velocity, pack_params,
                              surface_mesh, tangents_from_vector, wall_mesh)


def unit_sphere_config():
    return Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=1.0),))


def monopole_solution(level=2):
    mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level)
    problem = NeumannProblem(meshes=(mesh,), boundary_data=np.ones(mesh.n_panels))
    return solve_neumann(problem)


def dipole_solution(level=2, axis=0):
    mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level)
    problem = NeumannProblem(meshes=(mesh,), boundary_data=mesh.quad_normals[:, axis])
    return solve_neumann(problem)


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
            solve_neumann(NeumannProblem(meshes=meshes, boundary_data=g))

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
        sols = basis_potentials(unit_sphere_config(), level=1)
        assert len(sols) == 4
        # radius direction: the monopole
        assert np.max(np.abs(sols[3].density - 1.0)) < 1e-10
        # center directions carry data n.e_i
        mesh = sols[0].meshes[0]
        assert np.allclose(sols[0].boundary_data, mesh.quad_normals[:, 0])

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
        sols = basis_potentials(config, level=1)
        assert len(sols) == config.dim - 1
        w = np.concatenate([m.quad_weights for m in sols[0].meshes])
        data = np.column_stack([s.boundary_data for s in sols])
        assert np.all(np.abs(w @ data) <= 1e-8 * np.abs(data).max(axis=0) * w.sum())
        # their Gram matrix is the added mass
        phi = np.column_stack([s.boundary_potential for s in sols])
        raw = -(phi.T * w) @ data
        A = added_mass(config, 1)
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
                       want_double=False, density=solution.density)
    return None, None, g


class TestBlockedAssembly:
    def test_row_blocking_matches_unblocked(self, monkeypatch):
        # force the memory-bounded row-block path and compare
        import bubbledyn.potential as pot_mod
        sol_ref = dipole_solution(level=1)
        monkeypatch.setattr(pot_mod, "_ROW_BLOCK", 17)
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

    @pytest.mark.parametrize("n_bubbles", [2, 3])
    def test_translation_and_scaling_identities(self, n_bubbles):
        # A is invariant under a common translation and homogeneous of
        # degree 3 under scaling about the origin, exactly so in the
        # discretization: sum_k dA/dc_k = 0 and sum_i q_i dA/dq_i = 3 A
        config = Configuration(bubbles=tuple(
            SphereParams(center=c, radius=r) for c, r in
            zip(([0.2, -0.1, 0.3], [2.8, 0.4, -0.2], [0.5, 2.6, 0.7])[:n_bubbles],
                (1.0, 0.8, 0.7)[:n_bubbles])))
        A = added_mass(config, 1)
        dA = added_mass_jacobian(A)
        scale = np.max(np.abs(A.matrix))
        for axis in range(3):
            total = sum(dA[4 * k + axis] for k in range(n_bubbles))
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


def exact_slots(config):
    """Packed slots of every bubble centre and sphere radius."""
    return [sl.start + j for b, sl in zip(config.bubbles, config.slices())
            for j in range(4 if isinstance(b, SphereParams) else 3)]


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

    @pytest.mark.parametrize("make_config", [sphere_pair_in_cavity, ellipsoid_pair])
    @pytest.mark.parametrize("slot", [0, 3])  # a center slot, a shape slot
    def test_update_from_base_matches_scratch(self, make_config, slot):
        config = make_config()
        base = _Assembly(configuration_meshes(config, 1))
        q = pack_params(config)
        q[config.slices()[1].start + slot] += 1e-3
        moved = config_from_params(config, q)
        meshes = configuration_meshes(moved, 1)
        updated = _Assembly(meshes, base)
        scratch = _Assembly(meshes)
        assert rel_diff(updated.A, scratch.A) <= 1e-12
        assert rel_diff(updated.S, scratch.S) <= 1e-12
        # blocks between unchanged surfaces are copied from the base
        first = slice(0, base.meshes[0].n_panels)
        assert np.array_equal(updated.A[first, first], base.A[first, first])

    @pytest.mark.parametrize("make_config", [sphere_pair_in_cavity, ellipsoid_pair,
                                             sphere_and_ellipsoid_in_cavity])
    def test_jacobian_matches_plain_central_differences(self, make_config):
        # the centre and sphere-radius columns are exact: a plain central
        # difference of step h misses them by O(h^2), 4x less per halving.
        # The ellipsoid matrix slots are central differences of step 1e-4
        # themselves: one of step h differs from them by c (h^2 - 1e-8), a
        # ratio (16 - 1) / (4 - 1) = 5 between h = 4e-4 and 2e-4, and by
        # nothing but roundoff at h = 1e-4
        config = make_config()
        dA = added_mass_jacobian(added_mass(config, 1))
        q0 = pack_params(config)

        def kinetic(q):
            return added_mass(config_from_params(config, q), 1).kinetic

        def central(step):
            ref = np.zeros_like(dA)
            for k in range(len(q0)):
                e = np.zeros_like(q0)
                e[k] = step * (1.0 + abs(q0[k]))
                ref[k] = (kinetic(q0 + e) - kinetic(q0 - e)) / (2.0 * e[k])
            return ref

        def column_errors(ref):
            return np.abs(dA - ref).reshape(len(q0), -1).max(axis=1)

        scale = np.max(np.abs(dA))
        coarse, fine = column_errors(central(4e-4)), column_errors(central(2e-4))
        exact = exact_slots(config)
        checked = [k for k in range(len(q0)) if coarse[k] > 1e-8 * scale]
        assert any(k in exact for k in checked)
        for k in checked:
            low, high = (3.0, 5.0) if k in exact else (4.5, 5.5)
            assert low <= coarse[k] / fine[k] <= high, k
        ref = central(1e-4)
        assert rel_diff(dA, ref) <= 2e-7
        matrix_slots = [k for k in range(len(q0)) if k not in exact]
        if matrix_slots:
            assert rel_diff(dA[matrix_slots], ref[matrix_slots]) <= 1e-9

    def test_inadmissible_fd_side_raises(self, monkeypatch):
        # ellipsoids 5e-3 apart (as the level-1 admissibility check measures
        # the gap), less than the FD step: the matrix-slot steps that close
        # the gap leave the admissible set, and the Jacobian refuses the
        # state instead of differencing on one side
        import bubbledyn.potential as pot_mod
        from bubbledyn.shapes import _pair_gap
        config = Configuration(bubbles=(
            EllipsoidParams(center=np.zeros(3), shape_matrix=np.diag([1.0, 0.8, 0.9])),
            EllipsoidParams(center=[2.5117, 0.0, 0.0],
                            shape_matrix=np.diag([0.9, 1.0, 0.85]))))
        assert 0.0 < _pair_gap(*config.bubbles, level=1) < 1e-2
        base = added_mass(config, 1)
        monkeypatch.setattr(pot_mod, "JACOBIAN_FD_STEP", 1e-2)
        with pytest.raises(DiscretizationError, match="admissible set"):
            added_mass_jacobian(base)

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
            for shape, tan, mesh in zip(config.bubbles,
                                        tangents_from_vector(config, d), meshes):
                ref[off:off + mesh.n_panels, j] = normal_velocity(
                    shape, tan, mesh.quad_points, mesh.quad_normals)
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

        # lone spheres at two levels: every added mass, FD side, energy
        # sample and boundary-residual solve shares one LU per level, and so
        # does a solve given only another sphere's mesh
        for level in (1, 0):
            traj = dyn.integrate(scenario_from_dict(doc([[0.0, 0.0, 0.0]], level)))
            assert traj.termination == "completed"
            mesh = surface_mesh(SphereParams(center=[0.4, -0.2, 1.0], radius=0.6), level)
            solve_neumann(NeumannProblem(meshes=(mesh,), boundary_data=np.ones(mesh.n_panels)))
        assert calls == [80, 20]
        assert len(assemblies) > 20
        # a sphere pair still factors every assembly once, and assembles once
        # per RHS (its Jacobian is exact): n_rhs assemblies, one per energy
        # sample (t = 0, 0.02, 0.04), and the t = 0.04 residual sample's
        # acceleration and three Neumann solves at each of the two residual
        # samples (the t = 0 sample reuses the first RHS's acceleration)
        del calls[:], assemblies[:]
        traj = dyn.integrate(scenario_from_dict(doc([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]], 0)))
        assert len(calls) == len(assemblies) == traj.stats["n_rhs"] + 3 + 1 + 2 * 3
        assert set(calls) == {40}

    def test_results_match_a_freshly_factored_copy(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        config = Configuration(bubbles=(SphereParams(center=[0.2, -0.1, 0.3],
                                                     radius=1.3),))
        meshes = configuration_meshes(config, 2)
        g = meshes[0].quad_normals[:, 1] + 0.5
        problem = NeumannProblem(meshes=meshes, boundary_data=g)

        def results():
            mass = added_mass(config, 2)
            sol = solve_neumann(problem)
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
            solve_neumann(NeumannProblem(meshes=(mesh,), boundary_data=g))
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
        density = np.random.default_rng(7).normal(size=mesh.n_panels)
        S, K, grad = _panel_blocks(x, surface_panels(mesh), True, True, density=density)
        ref = _reference_panel_blocks(x, mesh, True, True, want_grad=True)
        assert rel_diff(S, ref[0]) <= 1e-14
        assert rel_diff(K, ref[1]) <= 1e-14
        # the gradient comes contracted with the density: contract the
        # reference tensor with the same density
        assert rel_diff(grad, np.einsum('mnk,n->mk', ref[2], density)) <= 1e-13
        # the single outputs alone take the same path
        S, K, grad = _panel_blocks(x, surface_panels(mesh), True, False)
        assert K is None and grad is None
        assert rel_diff(S, ref[0]) <= 1e-14

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

    def test_fd_side_shares_unchanged_meshes_and_panels(self):
        config = sphere_pair_in_cavity()
        base = added_mass(config, 1)
        q = pack_params(config)
        q[config.slices()[1].start] += 1e-3  # bubble 1 moves
        moved = config_from_params(config, q)
        side = added_mass(moved, 1, base=base).assembly
        for k in (0, 2):  # bubble 0 and the wall
            assert side.meshes[k] is base.assembly.meshes[k]
            assert side.panels[k] is base.assembly.panels[k]
        assert side.meshes[1] is not base.assembly.meshes[1]
        assert side.panels[1] is not base.assembly.panels[1]
        assert side.panels[1].meshes[0] is side.meshes[1]
        assert np.array_equal(side.meshes[1].vertices,
                              configuration_meshes(moved, 1)[1].vertices)
        scratch = added_mass(moved, 1).assembly
        assert rel_diff(side.A, scratch.A) <= 1e-12
        assert rel_diff(side.S, scratch.S) <= 1e-12

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
        dyn._acceleration(scenario, config, qd)
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
    to roundoff, on a sphere + ellipsoid pair at level 1.  Each bound sits
    15x or more above the largest error seen over 40 seeds; the cavity
    system (condition about 1e8) and the FD columns (step 1e-4) carry more
    roundoff than the unbounded exact columns."""

    # (kinetic, exact columns, FD columns), relative to the largest entry
    PERMUTATION_BOUNDS = {False: (1e-14, 1e-14, 1e-10), True: (1e-10, 1e-10, 1e-7)}
    # (kinetic, whole Jacobian)
    TRANSLATION_BOUNDS = {False: (1e-14, 1e-11), True: (1e-10, 1e-7)}

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
        dA_swapped = added_mass_jacobian(mass_swapped)
        exact, fd = exact_slots(swapped), list(range(3, 9))
        bound_kinetic, bound_exact, bound_fd = self.PERMUTATION_BOUNDS[cavity]
        assert rel_diff(mass_swapped.kinetic, kinetic) <= bound_kinetic
        assert rel_diff(dA_swapped[exact], dA[exact]) <= bound_exact
        assert rel_diff(dA_swapped[fd], dA[fd]) <= bound_fd

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
