import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from mixeddg import apply_operator, build_dofmap, build_face_topology, \
    build_uniform_tri, solve_saddle
from mixeddg.forms import StabilizationParams, assemble_system, exact_residual
from mixeddg.solve import ResidualToleranceError, SingularSystemError

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


@pytest.fixture
def small_system(two_tri, case2d):
    mesh, topo = two_tri
    dm = build_dofmap(mesh, 1, 1)
    stab = StabilizationParams()
    system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
    return mesh, topo, dm, stab, system


class TestSolveSaddle:
    def test_zero_load_gives_zero_solution(self, two_tri, case2d):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(mesh, topo, dm, case2d.material,
                                 StabilizationParams(),
                                 lambda x: np.zeros_like(x))
        coeffs, report = solve_saddle(system)
        assert np.abs(coeffs.values).max() == 0.0
        assert report.relative_residual == 0.0

    def test_residual_gate(self, small_system):
        *_, system = small_system
        coeffs, report = solve_saddle(system)
        assert report.relative_residual <= 1e-10

    def test_linearity(self, two_tri, case2d):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams()
        s1 = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        s10 = assemble_system(mesh, topo, dm, case2d.material, stab,
                              lambda x: 10.0 * case2d.f(x))
        x1, _ = solve_saddle(s1)
        x10, _ = solve_saddle(s10)
        assert x10.values == pytest.approx(10.0 * x1.values, rel=1e-12)

    def test_determinism(self, two_tri, case2d):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams()
        a = solve_saddle(assemble_system(mesh, topo, dm, case2d.material,
                                         stab, case2d.f))[0]
        b = solve_saddle(assemble_system(mesh, topo, dm, case2d.material,
                                         stab, case2d.f))[0]
        assert np.array_equal(a.values, b.values)

    def test_report_counts_factor(self, small_system):
        *_, system = small_system
        _, report = solve_saddle(system)
        assert report.factor_nnz >= system.M.nnz
        assert report.factor_s > 0.0
        assert report.solve_s > 0.0

    def test_singular_system_reported(self, small_system):
        *_, system = small_system
        # k = l = 1 with the displacement penalty removed: rigid motions make
        # the operator singular, which must be reported rather than papered over
        n_s = system.dofmap.n_stress_dofs
        penalty = sp.block_diag((sp.csc_matrix((n_s, n_s)), system.Cc), format="csc")
        singular = dataclasses.replace(system, M=system.M - penalty)
        with pytest.raises((SingularSystemError, ResidualToleranceError)):
            solve_saddle(singular)


class TestApplyOperator:
    def test_columns_match_dense_reconstruction(self, small_system):
        *_, system = small_system
        dm = system.dofmap
        dense = np.zeros((dm.total_dofs, dm.total_dofs))
        dense[:dm.n_stress_dofs, :dm.n_stress_dofs] = system.Aa.toarray()
        dense[:dm.n_stress_dofs, dm.n_stress_dofs:] = system.Bb.toarray()
        dense[dm.n_stress_dofs:, :dm.n_stress_dofs] = -system.Bb.toarray().T
        dense[dm.n_stress_dofs:, dm.n_stress_dofs:] = system.Cc.toarray()
        for i in range(dm.total_dofs):
            e = np.zeros(dm.total_dofs)
            e[i] = 1.0
            assert apply_operator(system, e) == pytest.approx(dense[:, i],
                                                              abs=1e-14)

    def test_solution_residual_matches_report(self, small_system):
        *_, system = small_system
        coeffs, report = solve_saddle(system)
        b = system.full_rhs()
        res = np.linalg.norm(apply_operator(system, coeffs.values) - b)
        assert res / np.linalg.norm(b) == pytest.approx(
            report.relative_residual, rel=1e-6, abs=1e-15)

    def test_block_diagonal_quadratic_form_nonnegative(self, small_system, rng):
        *_, system = small_system
        dm = system.dofmap
        for _ in range(20):
            x = rng.randn(dm.total_dofs)
            xs, xu = x[:dm.n_stress_dofs], x[dm.n_stress_dofs:]
            assert xs @ (system.Aa @ xs) + xu @ (system.Cc @ xu) >= 0.0

    def test_size_mismatch(self, small_system):
        *_, system = small_system
        with pytest.raises(ValueError):
            apply_operator(system, np.zeros(3))


class TestGalerkinOrthogonality:
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 2)])
    def test_exact_solution_moments_match_load(self, case2d, k, l):
        mesh = build_uniform_tri(4, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, k, l)
        stab = StabilizationParams()
        system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        r, rhs_direct = exact_residual(mesh, topo, dm, case2d.material, stab,
                                       case2d.sigma, case2d.u, case2d.grad_u,
                                       case2d.f)
        # g_i = A(sigma, u; basis_i) = r + (0; F moments)
        g = r.copy()
        g[dm.n_stress_dofs:] += rhs_direct
        target = np.concatenate([np.zeros(dm.n_stress_dofs), system.rhs_u])
        scale = 1.0 + np.abs(target).max()
        assert np.abs(g - target).max() <= 1e-8 * scale
