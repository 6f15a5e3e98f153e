import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import bubbledyn
from bubbledyn import dynamics as dyn
from bubbledyn.errors import CompatibilityError, IllPosedProblemError
from bubbledyn.gas import BubbleGasState, GasLaw, potential_energy
from bubbledyn.potential import (AddedMassMatrix, PotentialSolution, _Assembly,
                                 _direction_data, _self_blocks, _unit_sphere_blocks, added_mass,
                                 added_mass_jacobian, configuration_meshes, evaluate,
                                 solve_neumann, surface_gradient, surface_panels,
                                 velocity_rates)
from bubbledyn.shapes import (SLOTS, CavitySphere, Configuration, EllipsoidParams,
                              SphereParams, Unbounded, check_admissible, config_from_params,
                              constraint_basis, icosphere_symmetry, normal_velocity,
                              pack_params, reference_icosphere, surface_mesh,
                              symmetric_matrix, symmetric_slots, wall_mesh)


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
        w = sol.assembly.weights
        assert rel_l2(sol.potential, -np.ones_like(w), w) < 0.01

    def test_monopole_exterior_values(self):
        sol = monopole_solution(level=2)
        phi, grad = evaluate(sol, np.array([[2.0, 0.0, 0.0]]))
        assert phi[0] == pytest.approx(-0.5, rel=2e-3)
        assert grad[0, 0] == pytest.approx(0.25, rel=2e-3)
        assert np.allclose(grad[0, 1:], 0.0, atol=1e-6)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_monopole_near_surface_values(self, level):
        # a tenth of the longest panel edge off the unit sphere, where a
        # point sum over the collocation points is off by over 300% in the
        # gradient: the exact panel integrals of the discrete density
        mesh = surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level)
        sol = solve_neumann((mesh,), np.ones(mesh.n_panels))
        h = surface_panels(mesh).edge_length.max()
        x = mesh.quad_points * (1.0 + 0.1 * h)
        r = np.linalg.norm(x, axis=1)
        phi, grad = evaluate(sol, x)
        assert phi.shape == r.shape and grad.shape == x.shape
        exact_grad = x / r[:, None] ** 3
        assert np.abs(phi + 1.0 / r).max() <= 0.01 * np.abs(1.0 / r).max()
        assert (np.linalg.norm(grad - exact_grad, axis=1).max()
                <= 0.1 * np.linalg.norm(exact_grad, axis=1).max())

    def test_dipole_boundary_values(self):
        sol = dipole_solution(level=3)
        ref = -0.5 * sol.assembly.meshes[0].quad_normals[:, 0]
        w = sol.assembly.weights
        err = np.sqrt(np.sum((sol.potential - ref) ** 2 * w)
                      / np.sum(ref ** 2 * w))
        assert err < 0.02

    def test_dipole_symmetry_plane(self):
        sol = dipole_solution(level=2)
        phi, _ = evaluate(sol, np.array([[0.0, 2.0, 0.0]]))
        assert abs(phi[0]) < 1e-10

    def test_far_field_decay(self):
        sol = monopole_solution(level=1)
        mass = np.sum(sol.density * sol.assembly.weights) / (4 * np.pi)
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
            got = np.einsum('ik,ik->i', grad, sol.assembly.meshes[0].quad_normals)
            w = sol.assembly.weights
            errs.append(np.sqrt(np.sum((got - sol.data) ** 2 * w)
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

    @pytest.mark.parametrize("points", [
        np.zeros((4, 2)), np.zeros((2, 2, 3)), np.array([2.0, 0.0, 0.0]),
        np.array([[2.0, np.nan, 0.0]]), [[2.0, 0.0, np.inf], [0.0, 2.0, 0.0]]],
        ids=["two-columns", "three-axes", "one-axis", "nan", "inf"])
    def test_evaluate_rejects_points_of_another_form(self, points):
        # the caller's points: an (M, 3) array of finite numbers, or a
        # ValueError that names them (not a matmul error, not a NaN result)
        sol = monopole_solution(level=1)
        with pytest.raises(ValueError, match="points"):
            evaluate(sol, points)

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


class TestPotentialSolution:
    @pytest.mark.parametrize("cavity", [False, True], ids=["unbounded", "cavity"])
    def test_added_mass_is_the_solution_of_its_data(self, cavity):
        # one solve path: every column of the added mass is the solution
        # solve_neumann gives for that column's data.  In a cavity the
        # solutions agree up to the near-null mode (the equilibrium density
        # e, smallest singular value ~1e-8), which roundoff excites
        # differently in one solve and in a batch of them; e and S e are
        # projected out of the differences
        config = sphere_pair_in_cavity()
        if not cavity:
            config = Configuration(bubbles=config.bubbles)
        mass = added_mass(config, 1)
        assert isinstance(mass, PotentialSolution)
        assert mass.data.shape == mass.density.shape == mass.potential.shape
        for a in (mass.data, mass.density, mass.potential):
            assert not a.flags.writeable
        asm = mass.assembly
        modes = (None, None)
        if cavity:
            e = np.linalg.svd(asm.A)[2][-1]
            modes = (e, asm.S @ e)
        for j in range(mass.data.shape[1]):
            sol = solve_neumann(asm.meshes, mass.data[:, j])
            assert np.array_equal(sol.data, mass.data[:, j])
            for got, want, mode in zip((sol.density, sol.potential),
                                       (mass.density[:, j], mass.potential[:, j]), modes):
                diff = got - want
                if mode is not None:
                    diff -= mode * (mode @ diff) / (mode @ mode)
                assert np.abs(diff).max() <= 1e-13 * np.abs(want).max()

    def test_condition_estimated_on_request(self, monkeypatch):
        # a cavity solve above level 0 skips the singularity check, so it
        # runs no condition estimate until collocation_condition is read
        import bubbledyn.potential as pot_mod
        config = sphere_pair_in_cavity()
        meshes = configuration_meshes(config, 1)
        g = _direction_data(config, meshes, constraint_basis(config).matrix)[:, 0]
        calls = []
        plain = pot_mod.sla.rcond
        monkeypatch.setattr(pot_mod.sla, "rcond", lambda *a: calls.append(1) or plain(*a))
        sol = solve_neumann(meshes, g)
        assert calls == []
        assert sol.collocation_condition > 1.0
        # and kept with the factorization
        assert sol.collocation_condition == 1.0 / sol.assembly.factorization().rcond
        assert calls == [1]

    def test_level_zero_cavity_is_singular(self):
        # a cavity meshed wholly at level 0 takes the singularity check: its
        # LU no longer resolves the modes off the near-null one (rcond
        # 3e-17); with any surface refined the near-kernel is exempt, as its
        # rcond falls with refinement (6e-9 at level 1, 5e-10 with the
        # bubbles at level 0 inside a level-1 wall)
        config = sphere_pair_in_cavity()

        def data(level, wall_level=None):
            meshes = configuration_meshes(config, level, wall_level)
            return meshes, _direction_data(config, meshes, constraint_basis(config).matrix)[:, 0]

        for solve in (lambda: solve_neumann(*data(0)), lambda: added_mass(config, 0)):
            with pytest.raises(IllPosedProblemError, match="numerically singular") as err:
                solve()
            assert err.value.condition > 1e13
        for level, wall_level in ((1, None), (0, 1), (1, 0)):
            assert solve_neumann(*data(level, wall_level)).collocation_condition < 1e13

    def test_collocation_condition_is_the_matrix_estimate(self):
        # the 1-norm estimate of 1/2 I + K' (a lower bound, within a small
        # factor here), not the Gram condition of the added mass
        mass = added_mass(unit_sphere_config(), 1)
        exact = np.linalg.cond(mass.assembly.A, 1)
        assert exact / 3.0 <= mass.collocation_condition <= exact * (1.0 + 1e-12)
        assert abs(mass.condition - mass.collocation_condition) > 1.0
        mesh = mass.assembly.meshes[0]
        sol = solve_neumann((mesh,), np.ones(mesh.n_panels))
        assert sol.collocation_condition == pytest.approx(mass.collocation_condition,
                                                          rel=1e-12)


    @pytest.mark.parametrize("impose_data", [True, False])
    def test_surface_gradient_of_every_column(self, impose_data):
        # an added mass is a solution of p data vectors: its surface
        # gradient is (N, 3, p), each column that of the one-vector solve
        # (unbounded liquid, where batched and single solves agree to
        # roundoff; a cavity's near-null mode differs between them)
        config = Configuration(bubbles=(
            SphereParams(center=np.zeros(3), radius=1.0),
            SphereParams(center=[3.0, 0.2, 0.0], radius=0.8)))
        mass = added_mass(config, 1)
        n, p = mass.data.shape
        grad = surface_gradient(mass, impose_data=impose_data)
        assert grad.shape == (n, 3, p)
        normals = np.concatenate([m.quad_normals for m in mass.assembly.meshes])
        for j in range(p):
            want = surface_gradient(solve_neumann(mass.assembly.meshes, mass.data[:, j]),
                                    impose_data=impose_data)
            assert want.shape == (n, 3)
            assert np.abs(grad[:, :, j] - want).max() <= 1e-13 * np.abs(want).max()
            if impose_data:
                normal = np.einsum('mk,mk->m', grad[:, :, j], normals)
                assert np.abs(normal - mass.data[:, j]).max() <= 1e-13 * np.abs(want).max()


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
        w = sol.assembly.weights
        rng = np.random.default_rng(42)
        n, R_out, r_in = 4000, 12.0, 1.02
        # importance sampling: radius pdf p(r) ~ 1/r^2 on [r_in, R_out]
        u = rng.random(n)
        inv = 1.0 / r_in - u * (1.0 / r_in - 1.0 / R_out)
        r = 1.0 / inv
        zdir = rng.normal(size=(n, 3))
        zdir /= np.linalg.norm(zdir, axis=1)[:, None]
        pts = r[:, None] * zdir
        _, grads = evaluate(sol, pts)
        f = np.einsum('ik,ik->i', grads, grads)
        pnorm = (1.0 / r ** 2) / (1.0 / r_in - 1.0 / R_out)
        integral = np.mean(f * r ** 2 * 4 * np.pi / pnorm)
        mass = np.sum(sol.density * w) / (4 * np.pi)
        tail = 4 * np.pi * mass ** 2 / R_out          # exact monopole tail
        inner = 4 * np.pi * mass ** 2 * (1 / 1.0 - 1 / r_in)  # skipped shell
        boundary_value = -np.sum(sol.potential * sol.data * w)
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

    @staticmethod
    def index_integral(axes, *indices):
        """int_0^inf ds / (prod_{j in indices} (a_j^2 + s) Delta(s)),
        Delta(s)^2 = prod_i (a_i^2 + s), the index integral I_j or I_jk of
        the ellipsoid of semi-axes ``axes`` (Chandrasekhar, Ellipsoidal
        Figures of Equilibrium, ch. 3), by quadrature, independent of the
        package's own."""
        a = np.asarray(axes, dtype=float)

        def integrand(s):
            return 1.0 / (np.prod(a[list(indices)] ** 2 + s) * np.sqrt(np.prod(a ** 2 + s)))

        return quad(integrand, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)[0]

    @classmethod
    def ellipsoid_translation_mass(cls, axes, rho=1.0):
        """A lone ellipsoid's translational added mass along its axes,
        rho V alpha_j / (2 - alpha_j) with alpha_j = a1 a2 a3 I_j (Lamb,
        Hydrodynamics, sec. 114)."""
        a = np.asarray(axes, dtype=float)
        alpha = np.prod(a) * np.array([cls.index_integral(a, j) for j in range(3)])
        return rho * (4 * np.pi / 3) * np.prod(a) * alpha / (2.0 - alpha)

    @classmethod
    def ellipsoid_off_diagonal_mass(cls, axes, rho=1.0):
        """A lone ellipsoid's added mass along its off-diagonal shape slots
        s12, s13, s23 (the rate of S_jk = S_kj, the surface moving by
        x_k / a_k along axis j and x_j / a_j along axis k), whose potential
        is C x_j x_k chi(lambda) (Lamb, Hydrodynamics, sec. 115):
        rho V (a_j + a_k)^2 I_jk / (5 (2 / (a1 a2 a3) - I_jk (a_j^2 + a_k^2)))."""
        a = np.asarray(axes, dtype=float)
        out = []
        for j, k in ((0, 1), (0, 2), (1, 2)):
            I = cls.index_integral(a, j, k)
            out.append(rho * (4 * np.pi / 3) * np.prod(a) * (a[j] + a[k]) ** 2 * I
                       / (5.0 * (2.0 / np.prod(a) - I * (a[j] ** 2 + a[k] ** 2))))
        return np.array(out)

    @pytest.mark.parametrize("rotated", [False, True], ids=["aligned", "rotated"])
    def test_ellipsoid_closed_form(self, rotated):
        # the unit-sphere limits rho V / 2 and 16 pi rho / 45 check the
        # oracle itself
        assert self.ellipsoid_translation_mass([1.0] * 3, rho=2.0) == pytest.approx(
            np.full(3, 4 * np.pi / 3), rel=1e-13)
        assert self.ellipsoid_off_diagonal_mass([1.0] * 3, rho=2.0) == pytest.approx(
            np.full(3, 32 * np.pi / 45), rel=1e-13)
        axes = np.array([1.0, 0.8, 0.6])
        R = (np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0] if rotated
             else np.eye(3))
        shape = EllipsoidParams(center=[0.4, -0.3, 0.2], shape_matrix=R @ np.diag(axes) @ R.T)
        want = R @ np.diag(self.ellipsoid_translation_mass(axes)) @ R.T
        # the packed slots s12, s13 and s23 of the aligned ellipsoid
        off, want_off = [4, 5, 7], self.ellipsoid_off_diagonal_mass(axes)
        errs, off_errs = [], []
        # translations measured 7.20e-2, 1.957e-2 and 5.09e-3 at L1-L3, the
        # off-diagonal slots at most 0.1420, 0.0400 and 0.01054; the bounds
        # are 1.5x
        for level, bound, off_bound in ((1, 0.108, 0.213), (2, 0.0294, 0.0600),
                                        (3, 0.0077, 0.0158)):
            A = added_mass(Configuration(bubbles=(shape,)), level).matrix
            errs.append(np.max(np.abs(A[:3, :3] - want)) / np.max(np.abs(want)))
            assert errs[-1] < bound
            if not rotated:
                # parity: no translation or off-diagonal slot couples to
                # any other slot
                coupling = A - np.diag(np.diag(A))
                assert np.max(np.abs(coupling[:3])) <= 1e-14 * np.max(np.abs(A))
                assert np.max(np.abs(coupling[off])) <= 1e-14 * np.max(np.abs(A))
                off_errs.append(np.abs(np.diag(A)[off] - want_off) / want_off)
                assert np.max(off_errs[-1]) < off_bound
        # O(h^2): each level divides the error by about four
        assert all(3.0 <= e0 / e1 <= 5.0 for e0, e1 in zip(errs, errs[1:]))
        for e0, e1 in zip(off_errs, off_errs[1:]):
            assert np.all((3.0 <= e0 / e1) & (e0 / e1 <= 5.0))


class TestBlockedAssembly:
    def test_row_blocking_matches_unblocked(self, monkeypatch):
        # force the memory-bounded row-block path and compare
        import bubbledyn.potential as pot_mod
        from bubbledyn.potential import _blocked
        sol_ref = dipole_solution(level=1)
        # the contracted rate terms of one ellipsoid's points over the
        # other's panels: the outputs of the points (grad, T, the
        # cotangent's point sums) split with the rows, and the edge sums P
        # and the cotangent's panel sums, sums over the points, add up over
        # the blocks (here of one row each)
        config = ellipsoid_pair()
        a, b = (surface_panels(surface_mesh(e, 1)) for e in config.bubbles)
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(b.n_panels, 4)), rng.normal(size=(a.n_panels, 4))
        cotangent = pot_mod._Cotangent(
            field=rng.normal(size=(a.n_panels, 3)), weight=rng.normal(size=a.n_panels),
            strain=rng.normal(size=6), coeffs=rng.normal(size=(3, b.n_panels, 10)),
            corner_coeffs=rng.normal(size=(3, b.n_panels, 4)))
        plain, rows = pot_mod._panel_blocks, []

        def counted(x, *args, **kwargs):
            rows.append(len(x))
            return plain(x, *args, **kwargs)

        def rate_terms():
            rows.clear()
            return _blocked(a.points, b, want_single=False, want_double=False, density=X,
                            tensor=X, moments=Y, degree=2, cotangent=cotangent)[2:]

        monkeypatch.setattr(pot_mod, "_panel_blocks", counted)
        terms_ref = rate_terms()
        assert rows == [a.n_panels]
        monkeypatch.setattr(pot_mod, "_ROW_BLOCK", 17)
        terms_blk = rate_terms()
        assert rows == [1] * a.n_panels
        shapes = [(a.n_panels, 3, 4), (a.n_panels, 6, 4), (b.n_panels, 3, 7, 4),
                  (b.n_panels,), (a.n_panels,)]
        for blk, ref, shape in zip(terms_blk, terms_ref, shapes):
            assert blk.shape == ref.shape == shape
            assert rel_diff(blk, ref) <= 1e-13
        sol_blk = dipole_solution(level=1)
        assert np.allclose(sol_blk.density, sol_ref.density, rtol=0, atol=1e-14)
        assert np.allclose(sol_blk.potential, sol_ref.potential,
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
    def test_sphere_self_blocks_are_scaled_unit_pair(self, wall, monkeypatch):
        # a spherical bubble's own blocks are the unit bubble's, S times the
        # radius; a spherical wall's are those its kept entry built (_wall)
        import bubbledyn.potential as pot_mod
        monkeypatch.setattr(pot_mod, "_WALL", {})
        center, radius = np.array([0.3, -1.2, 0.7]), 1.7
        mesh = (wall_mesh(CavitySphere(center=center, radius=radius), 2) if wall
                else surface_mesh(SphereParams(center=center, radius=radius), 2))
        A, S = _self_blocks(surface_panels(mesh))
        unit = _unit_sphere_blocks(2)
        A_kept, S_kept = pot_mod._wall(mesh).blocks if wall else (unit.A, unit.S)
        assert not A_kept.flags.writeable and not S_kept.flags.writeable
        assert rel_diff(A_kept, A) <= 1e-13
        assert rel_diff((1.0 if wall else radius) * S_kept, S) <= 1e-13

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
                futures = [pool.submit(_unit_sphere_blocks, 1) for _ in range(8)]
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


def admissible_velocity(config, rng):
    """A random packed velocity of ``config``, volume preserving in a
    cavity."""
    v = rng.normal(size=config.dim)
    if config.bounded:
        v = constraint_basis(config).matrix @ (constraint_basis(config).matrix.T @ v)
    return v


def jacobian_contractions(mass, v):
    """(d_v K) v and grad_q (1/2 v^T K v) from the full Jacobian, and psi =
    sum_t v_t d_t(S X) v from the full rates."""
    import bubbledyn.potential as pot_mod
    dA = added_mass_jacobian(mass)
    dPhi = pot_mod._potential_rates(mass)[0]
    return (np.einsum('kij,k,j->i', dA, v, v), 0.5 * np.einsum('ijk,j,k->i', dA, v, v),
            v @ (dPhi @ v))


def contraction_errors(mass, v):
    """Largest errors of the contractions against the full Jacobian's:
    the Coriolis force c1 - c2, c1 and c2 relative to the largest entry
    of either, and psi relative to its own."""
    c1, c2, psi = jacobian_contractions(mass, v)
    got = velocity_rates(mass, v)
    scale = max(np.abs(c1).max(), np.abs(c2).max())
    return (rel_diff(got.tangent - got.gradient, c1 - c2), np.abs(got.tangent - c1).max() / scale,
            np.abs(got.gradient - c2).max() / scale, rel_diff(got.potential, psi))


class TestVelocityRates:
    """The equations of motion read the Jacobian contracted with the
    velocity, (d_v K) v and grad_q (1/2 v^T K v), and the boundary residual
    psi = (d_v Phi) v, from rate passes of width one: they must agree with
    the einsums of the full Jacobian to roundoff."""

    @staticmethod
    def unbounded_pair(kinds, rng):
        """Two bubbles about x = -1 and x = 1, spheres ("s") or ellipsoids
        ("e") of size about 0.45, in unbounded liquid."""
        bubbles = []
        for kind, x in zip(kinds, (-1.0, 1.0)):
            center = np.array([x, 0.0, 0.0]) + rng.uniform(-0.05, 0.05, 3)
            if kind == "s":
                bubbles.append(SphereParams(center=center, radius=rng.uniform(0.4, 0.5)))
            else:
                S = np.diag(rng.uniform(0.4, 0.5, 3))
                S[0, 1] = S[1, 0] = rng.uniform(-0.05, 0.05)
                S[1, 2] = S[2, 1] = rng.uniform(-0.05, 0.05)
                bubbles.append(EllipsoidParams(center=center, shape_matrix=S))
        return Configuration(bubbles=tuple(bubbles))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(0, 2 ** 30 - 1), st.sampled_from(["ss", "se", "es", "ee"]),
           st.integers(0, 1))
    def test_unbounded_pairs_match_the_full_jacobian(self, seed, kinds, level):
        rng = np.random.default_rng(seed)
        config = self.unbounded_pair(kinds, rng)
        assume(check_admissible(config, level).ok)
        errors = contraction_errors(added_mass(config, level), admissible_velocity(config, rng))
        assert max(errors) <= 1e-12, errors

    @pytest.mark.parametrize("kinds", ["ss", "se", "ee"])
    @pytest.mark.parametrize("level", [0, 1])
    def test_invariances_hold_without_an_oracle(self, kinds, level):
        # identities of the exact discrete rates, with no reference
        # Jacobian: moving every bubble alike moves nothing relative to
        # the others, so the centre slots' gradients sum to zero per axis
        # and a common translation has no tangent and no psi; and K is
        # homogeneous of degree 3 in the packed parameters q, all lengths,
        # so q . grad(1/2 v^T K v) = 3/2 v^T K v and (d_q K) q = 3 K q
        for seed in (0, 1):
            rng = np.random.default_rng([seed, level])
            config = self.unbounded_pair(kinds, rng)
            assert check_admissible(config, level).ok
            mass = added_mass(config, level)
            K, q, v = mass.kinetic, pack_params(config), rng.normal(size=config.dim)
            centres = np.concatenate([np.arange(sl.start, sl.start + 3)
                                      for sl in config.slices()])
            common = np.zeros(config.dim)
            common[centres] = np.tile(rng.normal(size=3), config.n_bubbles)
            got, shifted, scaled = (velocity_rates(mass, u) for u in (v, common, q))
            scale = np.abs(K).max() * np.abs(v).max() ** 2
            assert np.abs(got.gradient[centres].reshape(-1, 3).sum(axis=0)).max() <= 1e-13 * scale
            assert np.abs(shifted.tangent).max() <= 1e-13 * np.abs(K).max()
            assert np.abs(shifted.potential).max() <= 1e-13 * np.abs(mass.potential).max()
            assert abs(q @ got.gradient - 1.5 * v @ K @ v) <= 1e-13 * abs(v @ K @ v)
            assert rel_diff(scaled.tangent, 3.0 * K @ q) <= 1e-13

    @pytest.mark.parametrize("make_config", [sphere_pair_in_cavity,
                                             sphere_and_ellipsoid_in_cavity])
    def test_cavity_matches_the_full_jacobian(self, make_config):
        # psi holds the cavity's undetermined constant, which the full
        # rates solve differently: compare it only up to a constant
        config = make_config()
        mass = added_mass(config, 1)
        v = admissible_velocity(config, np.random.default_rng(5))
        coriolis, c1, c2, _ = contraction_errors(mass, v)
        assert max(coriolis, c1, c2) <= 1e-12
        psi, ref = velocity_rates(mass, v).potential, jacobian_contractions(mass, v)[2]
        n = mass.assembly.blocks[config.n_bubbles - 1].stop
        shift = (psi - ref)[:n]
        assert np.ptp(shift) <= 1e-12 * np.abs(ref[:n]).max()

    def test_lone_sphere_takes_no_solve(self, monkeypatch):
        config = Configuration(bubbles=(SphereParams(center=[0.1, 0.0, -0.2], radius=1.3),))
        mass = added_mass(config, 2)
        v = np.array([0.1, -0.2, 0.05, 0.3])
        solves = []
        calls = TestLoneSphereFactorization.count_lu(monkeypatch, solves)
        got = velocity_rates(mass, v)
        assert calls == [] and solves == []
        c1, c2, psi = jacobian_contractions(mass, v)
        assert rel_diff(got.tangent - got.gradient, c1 - c2) <= 1e-13
        assert rel_diff(got.potential, psi) <= 1e-13
        # the radius rate scales K by 3 / r: grad (1/2 v^T K v) = 3/(2r) v^T K v
        assert got.gradient[3] == pytest.approx(1.5 / 1.3 * v @ mass.kinetic @ v, rel=1e-13)

    @pytest.mark.parametrize("make_config, passes", [(ellipsoid_pair, 4),
                                                     (sphere_pair_in_cavity, 6)])
    def test_one_kernel_pass_per_block_and_two_column_solves(self, monkeypatch, make_config,
                                                           passes):
        import bubbledyn.potential as pot_mod
        mass = added_mass(make_config(), 1)
        v = admissible_velocity(mass.config, np.random.default_rng(2))
        plain, calls, solves = pot_mod._panel_blocks, [], []
        monkeypatch.setattr(pot_mod, "_panel_blocks",
                            lambda *a, **kw: calls.append(1) or plain(*a, **kw))
        TestLoneSphereFactorization.count_lu(monkeypatch, solves)
        velocity_rates(mass, v)
        velocity_rates(mass, v.copy())  # kept for the last velocity
        assert len(calls) == passes
        n = len(mass.assembly.weights)
        assert solves == [(n,), (n,)]
        velocity_rates(mass, 2.0 * v)
        assert len(calls) == 2 * passes


def test_python_calls_of_a_contraction_and_an_added_mass():
    # the width-one contraction takes a few stacked products per block,
    # not products per edge, term and pair: one contraction of the
    # ellipsoid pair at level 1 made 2151 Python-level calls (cProfile's
    # total_calls, numpy 2.4) with one product per term and edge, and 666
    # with the stacked families; one added mass 1329 and 951.  Both stay
    # within 1.2x of the stacked counts
    import cProfile
    import pstats
    import bubbledyn.potential as pot_mod
    config = ellipsoid_pair()
    v = admissible_velocity(config, np.random.default_rng(4))

    def calls(fn, *args):
        profile = cProfile.Profile()
        profile.runcall(fn, *args)
        return pstats.Stats(profile).total_calls

    added_mass(config, 1)  # the caches of a first call
    assert calls(added_mass, config, 1) <= 1.2 * 951
    assert calls(pot_mod._velocity_rates, added_mass(config, 1), v) <= 1.2 * 666


class TestKeptKernelTerms:
    """An added mass keeps the kernel terms that its assembly computed for
    every block its rate passes read: each pair of surfaces and an
    ellipsoid's own block.  The contraction reads them in place of its own
    kernel work and releases them."""

    @pytest.mark.parametrize("make_config", [sphere_pair_in_cavity, ellipsoid_pair,
                                             sphere_and_ellipsoid_in_cavity])
    def test_kept_terms_give_the_recomputed_rates(self, monkeypatch, make_config):
        import bubbledyn.potential as pot_mod
        config = make_config()
        mass = added_mass(config, 1)
        asm = mass.assembly
        n = len(asm.meshes)
        own = {(k, k) for k, b in enumerate(config.bubbles) if isinstance(b, EllipsoidParams)}
        assert set(asm._terms) == {(a, b) for a in range(n) for b in range(n) if a != b} | own
        v = admissible_velocity(config, np.random.default_rng(8))
        plain, kernels = pot_mod._kernel, []
        monkeypatch.setattr(pot_mod, "_kernel",
                            lambda *a, **kw: kernels.append(1) or plain(*a, **kw))
        rates, passes = pot_mod._slot_rates, []
        monkeypatch.setattr(pot_mod, "_slot_rates",
                            lambda *a: passes.append(rates(*a)) or passes[-1])
        kept = velocity_rates(mass, v)
        # no kernel work of its own, and nothing left on the assembly
        assert kernels == [] and asm._terms == {}
        recomputed = pot_mod._velocity_rates(mass, v)
        assert len(kernels) == n * (n - 1) + len(own)
        for a, b in zip(kept, recomputed):
            assert np.array_equal(a, b)
        # row-blocked rate passes, which keep nothing, sum over the points
        # in another order: dS x, dM x and the rows u^T d_v S and
        # z^T d_v M agree to roundoff (measured at most 2.3e-13, dM x of
        # the sphere pair in a cavity, whose edge coefficients cancel)
        monkeypatch.setattr(pot_mod, "_ROW_BLOCK", 17)
        assert added_mass(config, 1).assembly._terms == {}
        pot_mod._velocity_rates(mass, v)
        for k in (0, 1, 4, 5):
            assert rel_diff(passes[-1][k], passes[0][k]) <= 1e-12

    def test_kept_terms_stay_within_one_rate_pass_of_memory(self, monkeypatch):
        # an assembly keeps at most 10 _ROW_BLOCK^2 bytes, what one rate
        # pass may hold; the blocks past it are recomputed, to the same bits
        import bubbledyn.potential as pot_mod
        config = sphere_pair_in_cavity()
        v = admissible_velocity(config, np.random.default_rng(3))
        kept = velocity_rates(added_mass(config, 1), v)
        # a block of 80 x 80 keeps 7 arrays, 358 kB: four fit in 1.6 MB
        monkeypatch.setattr(pot_mod, "_ROW_BLOCK", 400)
        mass = added_mass(config, 1)
        assert len(mass.assembly._terms) == 4
        assert sum(t.nbytes for t in mass.assembly._terms.values()) <= 10 * 400 ** 2
        for a, b in zip(velocity_rates(mass, v), kept):
            assert np.array_equal(a, b)

    def test_kept_terms_of_an_ellipsoid_pair(self):
        # a block over an ellipsoid's panels, which deform, keeps 13 (M, N)
        # planes, stacked by family, and its own block 7 (no moments): at
        # level 1 two blocks of each, 2.0 MB (README)
        asm = added_mass(ellipsoid_pair(), 1).assembly
        assert set(asm._terms) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for (a, b), kernel in asm._terms.items():
            arrays = [t for t in kernel if t is not None]
            assert sum(len(t) for t in arrays) == (7 if a == b else 13)
            assert all(t.shape[1:] == (80, 80) for t in arrays)
        assert sum(k.nbytes for k in asm._terms.values()) == 2_048_000

    def test_a_run_keeps_no_terms_past_the_contraction(self):
        # an added mass that no contraction reads (a lone sphere's, or a
        # solve's assembly) keeps nothing; the Jacobian's passes release
        # what they read
        assert added_mass(unit_sphere_config(), 1).assembly._terms == {}
        config = sphere_pair_in_cavity()
        meshes = configuration_meshes(config, 1)
        g = _direction_data(config, meshes, constraint_basis(config).matrix)[:, 0]
        assert solve_neumann(meshes, g).assembly._terms == {}
        mass = added_mass(config, 1)
        added_mass_jacobian(mass)
        assert mass.assembly._terms == {}


def test_wall_panels_are_kept_per_wall_and_level(monkeypatch):
    # one wall is kept, its panel data with its own blocks (_wall): the same
    # wall and level get the same entry; another level, or an ingested wall
    # with the very vertices and triangles of the sphere's mesh, replaces it
    # with its own data; the first wall asked for again is built anew, to
    # equal data
    from dataclasses import fields
    import bubbledyn.potential as pot_mod
    from bubbledyn.shapes import CavityMesh
    monkeypatch.setattr(pot_mod, "_WALL", {})

    def sphere_wall(level):
        return wall_mesh(CavitySphere(center=np.array([0.1, 0.0, -0.2]), radius=3.0), level)

    mesh = sphere_wall(1)
    first = pot_mod._wall(mesh)
    assert pot_mod._wall(sphere_wall(1)) is first
    finer = pot_mod._wall(sphere_wall(2))
    assert len(pot_mod._WALL) == 1 and pot_mod._wall(sphere_wall(2)) is finer
    assert finer.panels.n_panels == len(finer.blocks[0]) == sphere_wall(2).n_panels
    off = wall_mesh(CavityMesh(vertices=mesh.vertices, triangles=mesh.triangles), 1)
    ingested = pot_mod._wall(off)
    assert len(pot_mod._WALL) == 1 and ingested is not first
    assert np.array_equal(ingested.panels.points, off.quad_points)
    assert not np.array_equal(ingested.panels.points, first.panels.points)
    assert not np.array_equal(ingested.blocks[1], first.blocks[1])
    again = pot_mod._wall(sphere_wall(1))
    assert again is not first and len(pot_mod._WALL) == 1
    for f in fields(first.panels):
        assert np.array_equal(getattr(again.panels, f.name), getattr(first.panels, f.name))
    for a, b in zip(again.blocks, first.blocks):
        assert np.array_equal(a, b) and not a.flags.writeable


def test_wall_built_once_under_threads(monkeypatch):
    # more workers than cores and frequent switches, asking for one wall
    # from an empty entry: a check-then-act race would build its blocks
    # twice and hand out distinct entries
    import sys
    from concurrent.futures import ThreadPoolExecutor
    import bubbledyn.potential as pot_mod
    monkeypatch.setattr(pot_mod, "_WALL", {})
    built, plain = [], pot_mod._self_blocks
    monkeypatch.setattr(pot_mod, "_self_blocks", lambda *a, **kw:
                        built.append(1) or plain(*a, **kw))
    mesh = wall_mesh(CavitySphere(center=np.zeros(3), radius=4.0), 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(pot_mod._wall, mesh) for _ in range(8)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert built == [1] and all(r is results[0] for r in results)


def test_ingested_wall_blocks_built_once_per_run(monkeypatch):
    # a run of two spheres in an ingested wall (the shipped cavity pair in
    # the L1 icosphere of radius 4) builds the wall's own blocks once, with
    # its panel data, where every assembly of the run, n_rhs + rows - 1 of
    # them, reads them
    import json
    import bubbledyn.potential as pot_mod
    from bubbledyn.scenario import scenario_from_dict
    with open(os.path.join(os.path.dirname(__file__), "..", "scenarios",
                           "two_bubble_cavity.json")) as fh:
        doc = json.load(fh)
    verts, faces = reference_icosphere(1)
    doc["domain"] = {"type": "cavity_mesh", "vertices": (4.0 * verts).tolist(),
                     "triangles": faces.tolist()}
    doc["time"] = {"t_end": 0.04, "output_dt": 0.02}
    monkeypatch.setattr(pot_mod, "_WALL", {})
    on_wall, plain = [], pot_mod._self_blocks
    monkeypatch.setattr(pot_mod, "_self_blocks", lambda panels, *a, **kw:
                        on_wall.append(panels.closure < 0) or plain(panels, *a, **kw))
    traj = dyn.integrate(scenario_from_dict(doc))
    assert traj.termination == "completed"
    assert traj.stats["n_rhs"] + len(traj.times) - 1 > 1
    assert sum(on_wall) == 1


def openblas_lapack():
    """Whether the solver's LAPACK is an OpenBLAS that bubbledyn._lapack
    binds (with gecon's work arrays aligned), not the scipy.linalg.lapack
    routines."""
    from bubbledyn import _lapack
    return bool(_lapack.provider().threads)


class TestLoneSphereFactorization:
    """A lone sphere's collocation matrix is the unit-sphere A itself, and
    every lone sphere of a level shares one LU of it."""

    @staticmethod
    def count_lu(monkeypatch, solves=None, passes=None):
        """Empty unit-sphere cache; returns the list every lu_factor call
        appends its matrix size to.  Every lu_solve appends the shape of
        its right-hand sides to ``solves``, and every _blocked panel pass
        its number of points to ``passes``, where given."""
        import bubbledyn.potential as pot_mod
        calls = []
        real = pot_mod.sla

        class Counting:
            def __getattr__(self, name):
                return getattr(real, name)

            def lu_factor(self, a, **kw):
                calls.append(len(a))
                return real.lu_factor(a, **kw)

            def lu_solve(self, lu, b, **kw):
                if solves is not None:
                    solves.append(np.shape(b))
                return real.lu_solve(lu, b, **kw)

        monkeypatch.setattr(pot_mod, "sla", Counting())
        monkeypatch.setattr(pot_mod, "_UNIT_SPHERE_BLOCKS", {})
        if passes is not None:
            plain = pot_mod._blocked
            monkeypatch.setattr(pot_mod, "_blocked", lambda x, *a, **kw:
                                passes.append(len(x)) or plain(x, *a, **kw))
        return calls

    def test_run_factors_once_per_level(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        from bubbledyn.scenario import scenario_from_dict
        solves, passes = [], []
        calls = self.count_lu(monkeypatch, solves, passes)
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
        # solve given only another sphere's mesh; the unit sphere's basis
        # solution, one solve and one gradient pass per level (after the
        # pass for the unit's S), serves every added mass and residual
        # sample, and the other solve reads its S.  Both passes run over
        # one panel per orbit of the icosahedral group: 2 at level 1, 1 at 0
        for level in (1, 0):
            traj = dyn.integrate(scenario_from_dict(doc([[0.0, 0.0, 0.0]], level)))
            assert traj.termination == "completed"
            assert traj.stats["n_rhs"] > 6 and np.isfinite(traj.boundary_residuals[0])
            mesh = surface_mesh(SphereParams(center=[0.4, -0.2, 1.0], radius=0.6), level)
            solve_neumann((mesh,), np.ones(mesh.n_panels))
        assert calls == [80, 20]
        assert solves == [(80, 4), (80, 1), (20, 4), (20, 1)]
        assert passes == [2, 2, 1, 1]
        assert len(assemblies) > 20
        # a sphere pair still factors every assembly once, and assembles once
        # per RHS (its Jacobian is exact) and once per output row after
        # the first (t = 0.02, 0.04), whose energies, acceleration and
        # residual share it; row 0, the initial state, reads the first RHS
        # call's.  Each solves for its basis data, and each acceleration
        # (one per RHS and per residual sample after row 0's, at t = 0.04)
        # makes two solves of one column for its velocity's rates, one of
        # them transposed.  The panel passes: two per assembly for the
        # blocks between the spheres, two per acceleration for their
        # rates, and two per residual sample, one over each sphere's panels
        del calls[:], assemblies[:], solves[:], passes[:]
        traj = dyn.integrate(scenario_from_dict(doc([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0]], 0)))
        n_rhs = traj.stats["n_rhs"]
        assert len(calls) == len(assemblies) == n_rhs + 2
        assert set(calls) == {40}
        assert sorted(solves) == [(40,)] * 2 * (n_rhs + 1) + [(40, 8)] * len(calls)
        assert len(passes) == 2 * len(calls) + 2 * (n_rhs + 1) + 2 * 2

    def test_results_match_a_freshly_factored_copy(self, monkeypatch):
        # the shared unit sphere (its LU, S and basis solution) against a
        # copy built afresh, whose arrays are all its own
        import bubbledyn.potential as pot_mod
        config = Configuration(bubbles=(SphereParams(center=[0.2, -0.1, 0.3],
                                                     radius=1.3),))
        meshes = configuration_meshes(config, 2)
        g = meshes[0].quad_normals[:, 1] + 0.5
        u = np.array([0.3, -0.2, 0.1, 0.7])

        def results():
            mass = added_mass(config, 2)
            sol = solve_neumann(meshes, g)
            return (mass.matrix, mass.density, mass.potential, sol.density, sol.potential,
                    added_mass_jacobian(mass), *pot_mod._basis_gradients(mass, u),
                    mass.collocation_condition, sol.collocation_condition)

        shared = results()
        unit = _unit_sphere_blocks(2)
        assert added_mass(config, 2).assembly.factorization() is unit.factorization()
        copy = pot_mod._UnitSphere(2)
        monkeypatch.setitem(pot_mod._UNIT_SPHERE_BLOCKS, 2, copy)
        got = results()
        assert added_mass(config, 2).assembly.factorization() is copy.factorization()
        assert copy.factorization() is not unit.factorization()
        assert got[1] is copy.basis().density is not unit.basis().density
        for a, b in zip(got[:-2], shared[:-2]):
            assert np.array_equal(a, b)
        # the condition estimates too where gecon is an OpenBLAS's, whose
        # work arrays are aligned, so the estimate of equal factors repeats
        # to the bit; the scipy.linalg.lapack fallback allocates its own
        if openblas_lapack():
            assert got[-2:] == shared[-2:]
        else:
            assert got[-2:] == pytest.approx(shared[-2:], rel=1e-14)

    def test_shared_arrays_read_only_and_no_panel_data(self, monkeypatch):
        import bubbledyn.potential as pot_mod
        config = Configuration(bubbles=(SphereParams(center=np.ones(3), radius=0.8),))
        unit = _unit_sphere_blocks(1)
        basis = unit.basis()
        built = []
        plain = pot_mod.surface_panels
        monkeypatch.setattr(pot_mod, "surface_panels",
                            lambda mesh: built.append(mesh) or plain(mesh))
        mass = added_mass(config, 1)
        asm = mass.assembly
        assert asm.A is unit.A
        # no scaled copy of the unit S: the data and density are the unit's
        assert not hasattr(asm, "S")
        assert mass.data is basis.data and mass.density is basis.density
        assert not built  # nothing of a lone sphere reads panel data
        assert "_flat" not in vars(asm.meshes[0])  # nor its mesh's flat data
        assert len(asm.panels) == 1 and len(built) == 1 and built[0] is asm.meshes[0]
        lu, piv = asm.factorization()._lu
        for a in (lu, piv, asm.A, unit.S, *basis, mass.potential):
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
        monkeypatch.setattr(pot_mod._Factorization, "rcond", property(lambda self: 1e-16))
        with pytest.raises(IllPosedProblemError, match="singular"):
            added_mass(config, 1)

    def test_factored_once_under_threads(self, monkeypatch):
        # first use from eight threads released at once, with frequent
        # switches, each assembling its own sphere, then half asking for
        # the basis solution first and half for the LU: a check-then-act
        # race would build the unit sphere's symmetry, factor its A, or
        # solve for or pass over its basis, more than once.  The unit's
        # two passes (its S, then the basis gradient) run over the two
        # orbit representatives of level 1
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor
        import bubbledyn.potential as pot_mod
        import bubbledyn.shapes as shapes_mod
        solves, passes, symmetries = [], [], []
        calls = self.count_lu(monkeypatch, solves, passes)
        build = shapes_mod.icosphere_symmetry.__wrapped__  # uncached
        monkeypatch.setattr(pot_mod, "icosphere_symmetry",
                            lambda level: symmetries.append(level) or build(level))
        meshes = [surface_mesh(SphereParams(center=np.full(3, 0.1 * k), radius=1.0 + 0.1 * k),
                               1) for k in range(8)]
        start = threading.Barrier(8)

        def first_use(k):
            start.wait(timeout=60)
            asm = _Assembly((meshes[k],))
            if k % 2:
                return asm._unit.basis(), asm.factorization()
            lu = asm.factorization()
            return asm._unit.basis(), lu

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(first_use, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert symmetries == [1]
        assert calls == [80] and solves == [(80, 4)] and passes == [2, 2]
        basis, lu = results[0]
        assert all(b is basis and f is lu for b, f in results)


class OwnBlocks(_Assembly):
    """A lone sphere's assembly by the general path: its own blocks
    (_self_blocks of its panel data), not the unit sphere's."""

    def __init__(self, meshes):
        super().__init__(meshes)
        self._unit = None
        self.A, self.S = _self_blocks(self.panels[0])


def general_lone_sphere_mass(config, level, liquid_density=1.0):
    """The added mass of the lone sphere of ``config`` by the general path,
    on its own blocks (OwnBlocks) and solved by numpy.linalg.solve."""
    asm = OwnBlocks(configuration_meshes(config, level))
    basis = constraint_basis(config)
    G = _direction_data(config, asm.meshes, basis.matrix)
    X = np.linalg.solve(asm.A, G)
    Phi = asm.S @ X
    raw = -liquid_density * (Phi.T * asm.weights) @ G
    matrix = 0.5 * (raw + raw.T)
    return AddedMassMatrix(asm, G, X, Phi, matrix=matrix, basis=basis,
                           liquid_density=liquid_density, asymmetry=0.0,
                           eigenvalues=np.linalg.eigvalsh(matrix), config=config)


class TestLoneSphereOracle:
    """A lone sphere's added mass, Jacobian and boundary residual come from
    its unit sphere's basis solution, scaled; the general path on the
    sphere's own blocks, and the exact scaling laws, are the oracles."""

    SPHERES = (([40.0, -7.0, 3.0], 1.2), ([0.0, 0.0, 0.0], 0.3), ([-2.5, 1.0, 0.5], 2.5))

    @staticmethod
    def scenario(center, radius, level):
        from bubbledyn.scenario import scenario_from_dict
        return scenario_from_dict({
            "liquid": {"density": 1.3, "p_infinity": 1.0},
            "bubbles": [{"shape": {"type": "sphere", "center": center, "radius": radius},
                         "velocity": {"center": [0.05, -0.02, 0.01], "radius": 0.03},
                         "gas": {"K": 1.0, "gamma": 1.4}, "mass": 3.0}],
            "solver": {"mesh_level": level}, "time": {"t_end": 1.0, "output_dt": 0.5}})

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_the_general_path_and_the_scaling_laws(self, level):
        masses = []
        for center, radius in self.SPHERES:
            scenario = self.scenario(center, radius, level)
            state = scenario.initial_state()
            mass = dyn.mass_at(scenario, state.config)
            rho = scenario.liquid_density
            ref = general_lone_sphere_mass(state.config, level, rho)
            assert mass.assembly._unit is not None and ref.assembly._unit is None
            # the general path loses digits to the translation itself
            # (|x|^2 against |x - y|^2 in the panel integrals: up to 3.5e-13
            # in the potential at (40, -7, 3)), which the same sphere at the
            # origin, where the exact discrete operator is the same, shows
            origin = general_lone_sphere_mass(
                Configuration(bubbles=(SphereParams(center=np.zeros(3), radius=radius),)),
                level, rho)
            for got, want, moved in (
                    (mass.matrix, ref.matrix, origin.matrix),
                    (mass.density, ref.density, origin.density),
                    (mass.potential, ref.potential, origin.potential),
                    (added_mass_jacobian(mass), added_mass_jacobian(ref),
                     added_mass_jacobian(origin))):
                assert rel_diff(got, want) <= 1e-13 + rel_diff(want, moved)
            # the residual is a pressure moment divided by the pressure
            # scale, and its size (1e-7 to 1e-4 here) is what is left after
            # the pressure terms cancel: its roundoff is that of those terms
            acc = dyn._acceleration(scenario, mass, state.velocity)
            got, want = (dyn.boundary_residual(scenario, state, m, acc) for m in (mass, ref))
            assert want > 0.0 and abs(got - want) <= 1e-13
            masses.append((radius, mass))
        # the density is the unit sphere's whatever the centre and radius,
        # the potential scales with the radius and the matrix with its cube,
        # and the Jacobian is 3 A / r along the radius, zero along the centre
        r0, m0 = masses[0]
        for r, m in masses:
            assert np.array_equal(m.density, m0.density)
            assert rel_diff(m.potential / r, m0.potential / r0) <= 1e-15
            assert rel_diff(m.matrix / r ** 3, m0.matrix / r0 ** 3) <= 1e-14
            dA = added_mass_jacobian(m)
            assert np.all(dA[:3] == 0.0)
            assert rel_diff(dA[3], 3.0 * m.matrix / r) <= 1e-14

    def test_no_solve_pass_or_square_array_once_the_basis_is_built(self, monkeypatch):
        # at level 2 (N = 320) an added mass, its Jacobian and a residual
        # sample take O(N) work: no LU solve, no panel pass, and less
        # memory at their peak than one array of N x N doubles (819 kB)
        import tracemalloc
        import bubbledyn.potential as pot_mod
        scenario = self.scenario(*self.SPHERES[0], 2)
        state = scenario.initial_state()
        _unit_sphere_blocks(2).basis()
        solves, passes = [], []
        for name, calls in (("_blocked", passes), ("_panel_blocks", passes)):
            monkeypatch.setattr(pot_mod, name, lambda *a, _calls=calls, **kw:
                                _calls.append(1))
        plain = pot_mod.sla.lu_solve
        monkeypatch.setattr(pot_mod.sla, "lu_solve",
                            lambda *a, **kw: solves.append(1) or plain(*a, **kw))
        tracemalloc.start()
        try:
            mass = dyn.mass_at(scenario, state.config)
            acc = dyn._acceleration(scenario, mass, state.velocity)
            residual = dyn.boundary_residual(scenario, state, mass, acc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(residual) and residual > 0.0
        assert solves == [] and passes == []
        n = mass.assembly.meshes[0].n_panels
        assert n == 320 and peak < n * n * 8


@functools.lru_cache(maxsize=None)
def direct_unit_blocks(level, wall):
    """The unit sphere's panel data and own blocks (A, S) built directly,
    every row by its own panel pass (no symmetry)."""
    mesh = (wall_mesh(CavitySphere(center=np.zeros(3), radius=1.0), level) if wall
            else surface_mesh(SphereParams(center=np.zeros(3), radius=1.0), level))
    panels = surface_panels(mesh)
    return (panels, *_self_blocks(panels))


class TestUnitSphereSymmetry:
    """The unit sphere's blocks and basis gradient are computed at one
    panel per orbit of the icosahedral group and filled in by its
    permutations; the direct build, every row by its own pass, is the
    oracle."""

    # the largest invariance defect of the direct S over the 60 rotations,
    # relative to its largest entry, was 4.4e-15, 1.9e-14 and 8.0e-14 at
    # levels 1-3 (both orientations), and that of A 4.0e-15: twice that
    INVARIANCE_BOUNDS = {1: 1e-14, 2: 4e-14, 3: 1.6e-13}

    @pytest.mark.parametrize("wall", [False, True])
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_direct_blocks_are_invariant_under_the_group(self, level, wall, monkeypatch):
        _, A, S = direct_unit_blocks(level, wall)
        for perm in icosphere_symmetry(level).perm:
            assert rel_diff(S.take(perm, 0).take(perm, 1), S) <= self.INVARIANCE_BOUNDS[level]
            assert rel_diff(A.take(perm, 0).take(perm, 1), A) <= 1e-14
        # and the filled blocks agree with the direct ones to the same order:
        # a bubble's the unit sphere's, a wall's those its kept entry built
        import bubbledyn.potential as pot_mod
        monkeypatch.setattr(pot_mod, "_WALL", {})
        if wall:
            unit_wall = wall_mesh(CavitySphere(center=np.zeros(3), radius=1.0), level)
            A_kept, S_kept = pot_mod._wall(unit_wall).blocks
        else:
            unit = _unit_sphere_blocks(level)
            A_kept, S_kept = unit.A, unit.S
        assert rel_diff(S_kept, S) <= self.INVARIANCE_BOUNDS[level]
        assert rel_diff(A_kept, A) <= 1e-14

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_basis_matches_a_direct_solve_and_gradient_pass(self, level):
        # measured: 1.4e-15 (density), 1.3e-15 (potential) and 5.7e-14
        # (gradient) at level 3
        from bubbledyn.potential import _blocked
        panels, A, S = direct_unit_blocks(level, False)
        basis = _unit_sphere_blocks(level).basis()
        X = np.linalg.solve(A, basis.data)
        _, _, grad = _blocked(panels.points, panels, want_single=False, want_double=False,
                              density=X)
        assert rel_diff(basis.density, X) <= 1e-13
        assert rel_diff(basis.potential, S @ X) <= 1e-13
        assert rel_diff(basis.gradient, grad) <= 1e-13

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_lone_sphere_translation_mass_is_isotropic(self, level):
        # the group acts irreducibly on the translations, so the densities
        # of the translation data turn as a vector, those of the radius stay
        # (measured: at most 5.6e-15 relative, level 3), and the translation
        # block of the added mass is a multiple of I, uncoupled from the
        # radius (at most 6.6e-16 relative, levels 0-3): all to roundoff
        sym = icosphere_symmetry(level)
        X = _unit_sphere_blocks(level).basis().density
        for R, perm in zip(sym.rotations, sym.perm):
            assert rel_diff(X[perm, :3], X[:, :3] @ R.T) <= 2e-14
            assert rel_diff(X[perm, 3], X[:, 3]) <= 2e-14
        M = added_mass(Configuration(bubbles=(SphereParams(center=[0.3, -1.2, 0.7],
                                                            radius=1.7),)), level).matrix
        m = np.trace(M[:3, :3]) / 3.0
        assert np.abs(M[:3, :3] - m * np.eye(3)).max() <= 2e-15 * m
        assert np.abs(M[:3, 3]).max() <= 2e-15 * M[3, 3]


class TestFailedSolves:
    """Every collocation solve goes through the system's _Factorization,
    which checks its result: a non-finite value from the contraction's
    transposed solve z, its forward solve psi or the reference Jacobian's
    solve dX raises IllPosedProblemError."""

    @pytest.mark.parametrize("config", [ellipsoid_pair, sphere_pair_in_cavity])
    @pytest.mark.parametrize("solve, planted", [("z", 0), ("psi", 1), ("dX", 0)])
    def test_non_finite_solve_raises(self, monkeypatch, config, solve, planted):
        import bubbledyn.potential as pot_mod
        config = config()
        mass = added_mass(config, 1)
        calls, plain = [], pot_mod.sla.lu_solve

        def nan_on_call(lu, b, trans=0):
            calls.append(trans)
            x = plain(lu, b, trans=trans)
            return np.full_like(x, np.nan) if len(calls) == planted + 1 else x

        monkeypatch.setattr(pot_mod.sla, "lu_solve", nan_on_call)
        with pytest.raises(IllPosedProblemError, match="non-finite"):
            if solve == "dX":
                added_mass_jacobian(mass)
            else:
                velocity_rates(mass, np.linspace(0.1, 0.3, config.dim))
        # z is the transposed solve, psi's the forward one after it
        assert calls == {"z": [1], "psi": [1, 0], "dX": [0]}[solve]


class TestLapack:
    """The LU, solve and condition estimate come from the OpenBLAS numpy's
    linalg extension links (bubbledyn._lapack), else from the one scipy's
    LAPACK extension links, else from scipy.linalg.lapack; scipy.linalg is
    the oracle for all three.  The other two are forced through the
    discovery: numpy's OpenBLAS, or every OpenBLAS, is not found."""

    @pytest.fixture(params=["default", "scipy", "scipy.linalg.lapack"])
    def lapack(self, request, monkeypatch):
        import bubbledyn.potential as pot_mod
        from bubbledyn import _lapack
        if request.param != "default":
            plain = _lapack._openblas
            monkeypatch.setattr(_lapack, "_openblas", lambda module: None if (
                request.param != "scipy" or module.startswith("numpy.")) else plain(module))
            # no LU of another provider is solved with
            monkeypatch.setattr(pot_mod, "_UNIT_SPHERE_BLOCKS", {})
            _lapack.provider.cache_clear()
            if request.param == "scipy" and not _lapack.provider().threads:
                pytest.skip("scipy's LAPACK extension links no OpenBLAS")
        try:
            yield _lapack
        finally:
            _lapack.provider.cache_clear()

    def test_matches_scipy_linalg_on_an_ellipsoid_pair(self, lapack):
        import scipy.linalg
        mass = added_mass(ellipsoid_pair(), 1)
        A, b = mass.assembly.A, mass.data
        anorm = np.abs(A).sum(axis=0).max()
        with lapack.single_thread():
            lu, piv = lapack.lu_factor(A)
            ref = scipy.linalg.lu_factor(A)
        x, want = lapack.lu_solve((lu, piv), b), scipy.linalg.lu_solve(ref, b)
        assert b.shape[1] == len(mass.matrix) and x.shape == b.shape
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
        gecon = scipy.linalg.get_lapack_funcs(("gecon",), (ref[0],))[0]
        rcond = gecon(ref[0], anorm, norm="1")[0]
        assert abs(lapack.rcond((lu, piv), anorm) - rcond) <= 1e-12 * rcond
        # LAPACK's own pivots are one-based; scipy.linalg's, zero-based
        np.testing.assert_array_equal(piv, ref[1] + 1)
        column = lapack.lu_solve((lu, piv), b[:, 0])
        assert column.shape == (len(A),)
        assert np.abs(column - want[:, 0]).max() <= 1e-13 * np.abs(want[:, 0]).max()

    def test_transposed_solve_matches_numpy(self, lapack):
        A = np.random.default_rng(4).standard_normal((9, 9)) + 3.0 * np.eye(9)
        b = np.random.default_rng(5).standard_normal((9, 3))
        lu_piv = lapack.lu_factor(A)
        for trans in (1, 2):
            for rhs in (b, b[:, 0]):
                want = np.linalg.solve(A.T, rhs)
                got = lapack.lu_solve(lu_piv, rhs, trans=trans)
                assert got.shape == rhs.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.abs(lapack.lu_solve(lu_piv, b, trans=0)
                      - np.linalg.solve(A, b)).max() <= 1e-13 * np.abs(b).max()

    def test_malformed_operands_rejected(self, lapack):
        lu, piv = lapack.lu_factor(np.eye(3) + 0.1)
        for b in (np.ones(4), np.ones((2, 3))):
            with pytest.raises(ValueError):
                lapack.lu_solve((lu, piv), b)
        with pytest.raises(ValueError, match="trans"):
            lapack.lu_solve((lu, piv), np.ones(3), trans=3)
        if lapack.provider().threads:  # scipy.linalg.lapack factors a rectangle
            with pytest.raises(ValueError, match="square"):
                lapack.lu_factor(np.ones((3, 2)))

    def test_numpy_openblas_chosen_after_scipy(self):
        # the solver's LU of a fixed matrix comes from numpy's OpenBLAS, not
        # the one scipy.linalg links, and has the same bits whether or not
        # scipy.linalg (with its own OpenBLAS) was imported first
        code = ("import hashlib; {}import numpy as np; "
                "from bubbledyn import _lapack; "
                "from bubbledyn.potential import _Factorization; "
                "A = np.random.default_rng(7).standard_normal((160, 160)); "
                "lu, piv = _Factorization(A)._lu; "
                "numpy = _lapack._openblas('numpy.linalg._umath_linalg'); "
                "print(numpy is not None, "
                "numpy is not None and list(_lapack.provider().threads) == list(numpy.threads), "
                "hashlib.sha256(lu.tobytes() + piv.tobytes()).hexdigest())")
        outs = [_run_python(code.format(first)).split()
                for first in ("", "import scipy.linalg; ")]
        if outs[0][0] != "True":
            pytest.skip("numpy links no OpenBLAS")
        assert [out[1] for out in outs] == ["True", "True"]
        assert outs[0][2] == outs[1][2]

    def test_fallback_library_runs_on_one_thread(self):
        # where numpy's routines are not found, the LU comes from the
        # OpenBLAS that scipy's LAPACK extension links: inside the one-thread
        # scope that library reads one thread and is listed, and after it
        # every pool has its count back.  A first scope is entered before
        # scipy is imported, as at the start of a run, so that a library
        # list fixed at the first entry would miss the fallback's library
        code = """if True:
            import json
            import numpy as np
            from bubbledyn import _lapack
            from bubbledyn.potential import _Factorization
            plain = _lapack._openblas
            _lapack._openblas = lambda m: None if m.startswith("numpy.") else plain(m)
            with _lapack.single_thread():
                pass
            libs = [plain(m) for m in ("numpy.linalg._umath_linalg", "scipy.linalg._flapack")]
            pools = {k: v for lib in libs if lib is not None for k, v in lib.threads.items()}
            for _, put in pools.values():
                put(2)
            with _lapack.single_thread():
                _Factorization(np.eye(4) + 0.1).solve(np.ones(4))
                inside = _lapack.thread_counts()
                every = {k: get() for k, (get, _) in pools.items()}
            after = {k: get() for k, (get, _) in pools.items()}
            print(json.dumps([libs[1] and list(libs[1].threads), inside, every, after]))
        """
        fallback, inside, every, after = json.loads(_run_python(code))
        if not fallback:
            pytest.skip("scipy's LAPACK extension links no OpenBLAS")
        (name,) = fallback
        assert inside == {name: 1} and every[name] == 1
        assert after == dict.fromkeys(every, 2)

    def test_condition_estimate_repeats_whatever_the_heap_holds(self):
        # OpenBLAS sums in an order that depends on the alignment of
        # dgecon's work array: taken as the heap left it, the estimate of
        # the level-2 unit sphere's LU moved in its last bit as arrays of
        # 1280 to 1340 doubles were allocated between the calls
        from bubbledyn import _lapack
        if not openblas_lapack():
            pytest.skip("gecon is scipy.linalg.lapack's, whose work array is its own")
        unit = _unit_sphere_blocks(2)
        lu, anorm = unit.factorization()._lu, np.abs(unit.A).sum(axis=0).max()
        held, values = [], set()
        for k in range(60):
            held.append(np.empty(1280 + k))
            values.add(_lapack.rcond(lu, anorm))
        assert len(values) == 1

    def test_exactly_singular_matrix_is_ill_posed(self):
        from bubbledyn.potential import _Factorization
        A = np.eye(4)
        A[3] = A[2]
        with pytest.raises(IllPosedProblemError, match="exactly singular"):
            _Factorization(A)


def _run_python(code):
    """stdout of ``python -c code`` in a fresh process that imports this
    checkout's bubbledyn."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(bubbledyn.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


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


def _reference_edge_coefficients(A, v, geom, quadratic):
    """The per-field coefficients of V.((a - x) x (b - x)) on the monomials
    of the moments (1, x_k, then, if ``quadratic``, x_k x_l on SLOTS) for
    the fields V = A x + v, (n, 3, N, 4 or 10), as the per-term rate path
    formed them before the rates took stacked products."""
    from bubbledyn.potential import _cross
    from bubbledyn.shapes import slot_sum
    ab, D = geom.edge_cross, geom.edge_vector
    const = (ab @ v.T).transpose(2, 0, 1)
    linear = ab @ A[:, None] - _cross(D, v[:, None, None])
    if not quadratic:
        return np.concatenate([const[..., None], linear], axis=-1)
    Q = _cross(D[:, :, None], A.transpose(0, 2, 1)[:, None, None])
    return np.concatenate([const[..., None], linear, -slot_sum(Q)], axis=-1)


def _reference_corner_coefficients(G, c, geom):
    """The coefficients (n, 3, N, 4) on 1, x_k of u.((a - x) x (b - x)) for
    u = G (y - c) at each edge's ends y = a and y = b: the pair (Ca, Cb)."""
    from bubbledyn.potential import _cross, _dot
    u = (geom.corners - c) @ G[:, None].transpose(0, 1, 3, 2)
    ab, D = geom.edge_cross, geom.edge_vector
    return tuple(np.concatenate([_dot(ue, ab)[..., None], -_cross(D, ue)], axis=-1)
                 for ue in (u, u[:, [1, 2, 0]]))


def _reference_on_panels(C, F):
    """Coefficients (n, 3, N, J) on moments (3, N, J, p), summed over the
    edges and monomials panel by panel: (n, N, p)."""
    n, _, N, J = C.shape
    return (C.transpose(2, 0, 1, 3).reshape(N, n, 3 * J)
            @ F.transpose(1, 0, 2, 3).reshape(N, 3 * J, -1)).transpose(1, 0, 2)


def _reference_rate_terms(x, geom, X, Y, degree, corners, cot):
    """The rate terms of a _panel_blocks pass, one product per term and
    edge: grad (M, 3, p), T (M, 6, p) with ``corners``, the moments
    F (3, N, J, p) and, with ``corners``, Fa (3, N, 4, p), and the
    cotangent's panel and point sums, from the kernel terms of _kernel."""
    from bubbledyn.potential import _dot, _kernel
    M, N = len(x), geom.n_panels
    kernel = _kernel(x, geom, moments=True, tensor=corners)
    omega, logs = kernel.grad[0], kernel.grad[1:]
    nh, scale = geom.unit_normal, -geom.lift / (4.0 * np.pi)
    k, l = SLOTS.T
    panel_sum, point_sum = np.zeros(N), np.zeros(M)
    c, Xs = X * scale[:, None], X * scale[:, None]
    grad, T = np.zeros((M, 3, X.shape[1])), np.zeros((M, 6, X.shape[1]))

    def add_products(out, term, factors, cols):
        out += np.matmul(term, factors.T[:, :, None] * cols).transpose(1, 0, 2)

    def gradient_term(term, vectors):
        add_products(grad, term, vectors, c)
        panel_sum[:] += _dot((cot.field.T @ term).T, vectors)

    def tensor_term(term, factors):
        add_products(T, term, factors, Xs)
        if cot.weight is not None:
            panel_sum[:] += (cot.weight @ term) * (factors @ cot.strain)

    gradient_term(omega, nh)
    h = x @ nh.T - geom.plane_offset[None]
    if corners:
        tensor_term(h * omega, nh[:, k] * nh[:, l])
    mono = [np.ones(M), *x.T]
    if degree == 2:
        mono += [x[:, k] * x[:, l] for k, l in SLOTS]
    mono = np.stack(mono, axis=1)
    F = np.zeros((3, N, len(mono.T), Y.shape[1]))
    Fa = np.zeros((3, N, 4, Y.shape[1]))
    for e, (L, le, mhat, am, edge) in enumerate(zip(
            logs, geom.edge_length, geom.edge_normal, geom.edge_offset, geom.edge_vector)):
        gradient_term(L, -mhat)
        if corners:
            d = x @ mhat.T - am[None]
            eh = edge / le[:, None]
            tensor_term(h * L, -(nh[:, k] * mhat[:, l] + mhat[:, k] * nh[:, l]))
            tensor_term(d * L, -mhat[:, k] * mhat[:, l])
            tensor_term(kernel.dl[e], 0.5 * (eh[:, k] * mhat[:, l] + eh[:, l] * mhat[:, k]))
        f = kernel.moments[e]
        add_products(F[e], f.T, mono, Y)
        point_sum += _dot(f @ cot.coeffs[e], mono)
        if corners:
            g = kernel.moments[3 + e]
            add_products(Fa[e], g.T, mono[:, :4], Y)
            point_sum += _dot(g @ cot.corner_coeffs[e], mono[:, :4])
    return grad, T, F, Fa, panel_sum * scale, point_sum


def _reference_block_rates(x, geom, X, Y, A, v, corners, cotangent):
    """_block_rates as the per-term rate path took it: per field and map
    the coefficients of the edge terms on their moments, (n, M, p),
    (n, N, p), u^T dS (N,) and dK^T zeta (M,), the motions the fields
    A x + v, then the corner maps G about c of ``corners`` = (G, c) or
    None, and the ``cotangent`` = (u, zeta, kappa) with kappa a weight per
    motion."""
    from bubbledyn.potential import _Cotangent
    from bubbledyn.shapes import slot_sum

    def along(V, grad):
        return (V.transpose(1, 0, 2) @ grad).transpose(1, 0, 2)

    quadratic = bool(np.any(A != A[:, :1, :1] * np.eye(3)))
    C = _reference_edge_coefficients(A, v, geom, quadratic)
    u, zeta, kappa = cotangent
    Av, vv = np.tensordot(kappa[:len(A)], A, 1), kappa[:len(A)] @ v
    V = x @ Av.T + vv
    coeffs = _reference_edge_coefficients(Av[None], vv[None], geom, quadratic)[0]
    corner_coeffs = strain = None
    if corners is not None:
        Gv = np.tensordot(kappa[len(A):], corners[0], 1)
        V -= (x - corners[1]) @ Gv.T
        Ca, Cb = (C_[0] for C_ in _reference_corner_coefficients(Gv[None], corners[1], geom))
        coeffs[..., :4] -= Cb
        corner_coeffs, strain = Cb - Ca, slot_sum(Gv)
    lift = zeta * geom.lift / (4.0 * np.pi)
    cot = _Cotangent(field=u[:, None] * V, weight=u, strain=strain,
                     coeffs=coeffs * lift[:, None],
                     corner_coeffs=None if corners is None else corner_coeffs * lift[:, None])
    grad, T, F, Fa, panel_sum, point_sum = _reference_rate_terms(
        x, geom, X, Y, 2 if quadratic else 1, corners is not None, cot)
    dS = [along(x @ A.transpose(0, 2, 1) + v[:, None], grad)]
    dK = [_reference_on_panels(C, F)]
    if corners is not None:
        G, c = corners
        dS.append(np.tensordot(slot_sum(G), T, axes=(1, 1))
                  - along((x - c) @ G.transpose(0, 2, 1), grad))
        Ca, Cb = _reference_corner_coefficients(G, c, geom)
        dK.append(-_reference_on_panels(Ca - Cb, Fa) - _reference_on_panels(Cb, F[:, :, :4]))
    return (np.concatenate(dS), np.concatenate(dK) * (geom.lift / (4.0 * np.pi))[:, None],
            panel_sum, point_sum)


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

    @staticmethod
    def motion_fields(A, v, G, c):
        """The motions of _block_rates, [v | A | G]: the point fields
        A x + v, then the corner maps G about c."""
        fields = np.zeros((len(A) + len(G), 3, 7))
        fields[:len(A), :, 0], fields[:len(A), :, 1:4] = v, A
        fields[len(A):, :, 0], fields[len(A):, :, 4:] = G @ c, G
        return fields

    def test_panel_rates_match_central_differences(self):
        # the contracted rates of S X and K^T Y as the points move along
        # affine fields and as the panel corners move by linear maps (the
        # lift held), against central differences of the blocks of moved
        # points and of moved mesh vertices (a moved mesh's flat areas and
        # normals move with its vertices; its panel data keeps the lift of
        # the unmoved mesh)
        import dataclasses
        from bubbledyn.potential import _block_rates, _panel_blocks
        mesh, x, X, Y, A, v, (G, c) = self.block_motions(11)
        geom = surface_panels(mesh)
        dSX, dKY = _block_rates(x, geom, X, Y, self.motion_fields(A, v, G, c))
        assert dSX.shape == (4, len(x), 3) and dKY.shape == (4, mesh.n_panels, 3)
        h = 1e-6

        def contracted(x, vertices):
            moved = surface_panels(dataclasses.replace(mesh, vertices=vertices))
            S, K, _ = _panel_blocks(x, dataclasses.replace(moved, lift=geom.lift), True, True)
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

    @pytest.mark.parametrize("cotangent", [False, True])
    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("surface", ["sphere", "ellipsoid", "wall"])
    def test_stacked_rate_pass_matches_the_per_term_path(self, surface, level, cotangent):
        # the rates of one block from the stacked term families against the
        # per-term path (one product per term, edge and field), over the
        # panels of a sphere (fields of degree 1), a wall (degree 2) and an
        # ellipsoid (degree 2 and corner maps, its panels deforming): the
        # contraction's width one with a cotangent, the Jacobian's width
        # three without; each output within 1e-12 of its largest entry
        from bubbledyn.potential import _block_rates
        mesh = (wall_mesh(CavitySphere(center=[0.1, 0.0, -0.2], radius=2.5), level)
                if surface == "wall" else surface_mesh(
                    ellipsoid_pair().bubbles[0] if surface == "ellipsoid"
                    else SphereParams(center=[0.3, -0.2, 0.1], radius=0.7), level))
        geom = surface_panels(mesh)
        pts, nrm, h = mesh.quad_points, mesh.quad_normals, mesh.edge_length()
        # near the panels, and another surface's points farther off
        x = np.concatenate([pts[::3] + 0.1 * h * nrm[::3], 1.4 * pts[1::4] + 0.3])
        rng = np.random.default_rng([level, cotangent])
        p = 1 if cotangent else 3
        X, Y = rng.normal(size=(mesh.n_panels, p)), rng.normal(size=(len(x), p))
        A, v = rng.normal(size=(3, 3, 3)), rng.normal(size=(3, 3))
        if surface == "sphere":
            A = rng.normal(size=(3, 1, 1)) * np.eye(3)
        corners = None
        fields = self.motion_fields(A, v, np.zeros((0, 3, 3)), np.zeros(3))
        if surface == "ellipsoid":
            corners = (rng.normal(size=(2, 3, 3)), mesh.shape.center + rng.normal(size=3))
            fields = self.motion_fields(A, v, *corners)
        n = len(fields)
        weights = [rng.normal(size=k) if cotangent else np.zeros(k)
                   for k in (len(x), mesh.n_panels, n)]
        ref = _reference_block_rates(x, geom, X, Y, A, v, corners, weights)
        u, zeta, kappa = weights
        phi = (kappa @ fields.reshape(n, -1)).reshape(3, 7)  # the fields weighted by kappa
        got = _block_rates(x, geom, X, Y, fields, (u, zeta, phi) if cotangent else None)
        assert len(got) == (4 if cotangent else 2)
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_contracted_rates_match_per_field_formula(self):
        # the tensor T and the edge moments against the per-field rate
        # blocks, each applied to the densities afterwards
        from bubbledyn.potential import _block_rates
        mesh, x, X, Y, A, v, (G, c) = self.block_motions(12)
        geom = surface_panels(mesh)
        dSX, dKY = _block_rates(x, geom, X, Y, self.motion_fields(A, v, G, c))
        V = x @ A.transpose(0, 2, 1) + v[:, None]
        W = (geom.corners - c) @ G[:, None].transpose(0, 1, 3, 2)
        dS, dK = _per_field_rates(x, geom, V, W)
        assert rel_diff(dSX, dS @ X) <= 1e-12
        assert rel_diff(dKY, dK.transpose(0, 2, 1) @ Y) <= 1e-12

    def test_panel_arrays_read_only(self):
        meshes = configuration_meshes(sphere_pair_in_cavity(), 1)
        for mesh in meshes:
            geom = surface_panels(mesh)
            assert geom.closure == mesh.closure
            arrays = [v for v in vars(geom).values() if isinstance(v, np.ndarray)]
            assert len(arrays) >= 16
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0.0
        # the mesh's own arrays stay as they were
        assert meshes[0].quad_points.flags.writeable

    def test_only_potential_calls_the_panel_kernel(self):
        # one module owns the panel integrals: the rest of the package asks
        # potential for fields and blocks, and never calls the kernel itself
        import ast
        import pathlib
        import bubbledyn
        kernel = {"_blocked", "_panel_blocks"}
        calls = {}
        for path in pathlib.Path(bubbledyn.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            calls[path.stem] = {ast.unparse(node.func).rpartition(".")[2]
                                for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert kernel <= calls.pop("potential")
        assert calls and not {name: names & kernel for name, names in calls.items()
                              if names & kernel}

    def test_one_rhs_builds_panels_once_per_new_surface(self, monkeypatch):
        # two spheres in a cavity at level 1: the base configuration builds
        # the meshes and panel data of its three surfaces, the wall's with
        # its own blocks, from an empty wall entry; the Jacobian, exact in
        # every centre and radius, builds none
        import os
        import bubbledyn.potential as pot_mod
        from bubbledyn.scenario import parse_scenario
        scenario = parse_scenario(os.path.join(os.path.dirname(__file__), "..",
                                               "scenarios", "two_bubble_cavity.json"))
        state = scenario.initial_state()
        config, (_, qd) = state.config, state.packed()
        _unit_sphere_blocks(scenario.mesh_level)  # cached across the process: fill it first
        monkeypatch.setattr(pot_mod, "_WALL", {})  # and so is the wall: empty it
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
