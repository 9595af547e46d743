import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from mixeddg import apply_operator, build_dofmap, build_face_topology, \
    build_uniform_tet, build_uniform_tri, solve_saddle
from mixeddg.forms import MaterialParams, StabilizationParams, assemble_system, \
    exact_residual
from mixeddg.solve import ResidualToleranceError, SingularSystemError

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))
BOX3 = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


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

    @pytest.mark.parametrize("mesh_fn,eta,fill", [
        (lambda: build_uniform_tri(16, BOX2), 1.0, 1_568_730),
        (lambda: build_uniform_tri(16, BOX2), 0.0, 1_037_262),
        (lambda: build_uniform_tet(2, BOX3), 1.0, 551_232),
        (lambda: build_uniform_tet(2, BOX3), 0.0, 285_120),
    ], ids=["tri16", "tri16-c22zero", "tet2", "tet2-c22zero"])
    def test_factor_fill_pinned(self, mesh_fn, eta, fill):
        # SuperLU's ordering depends on M's stored pattern and numbering: a
        # layout that stores more entries or renumbers badly raises the fill
        mesh = mesh_fn()
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(mesh, build_face_topology(mesh), dm,
                                 MaterialParams(0.3, 0.35, mesh.dim),
                                 StabilizationParams(eta=eta), lambda x: np.zeros_like(x))
        _, report = solve_saddle(system)
        assert report.factor_nnz == fill

    def test_singular_system_reported(self, small_system):
        *_, system = small_system
        # k = l = 1 with the displacement penalty removed: rigid motions make
        # the operator singular, which must be reported rather than papered over
        disp, C = system.dofmap.disp_dofs, system.Cc.tocoo()
        penalty = sp.csc_matrix((C.data, (disp[C.row], disp[C.col])), shape=system.M.shape)
        singular = dataclasses.replace(system, M=system.M - penalty)
        with pytest.raises((SingularSystemError, ResidualToleranceError)):
            solve_saddle(singular)


class TestApplyOperator:
    def test_columns_match_dense_reconstruction(self, small_system):
        *_, system = small_system
        dm = system.dofmap
        s, u = dm.stress_dofs, dm.disp_dofs
        dense = np.zeros((dm.total_dofs, dm.total_dofs))
        dense[np.ix_(s, s)] = system.Aa.toarray()
        dense[np.ix_(s, u)] = system.Bb.toarray()
        dense[np.ix_(u, s)] = -system.Bb.toarray().T
        dense[np.ix_(u, u)] = system.Cc.toarray()
        for i in range(dm.total_dofs):
            e = np.zeros(dm.total_dofs)
            e[i] = 1.0
            assert apply_operator(system, e) == pytest.approx(dense[:, i],
                                                              abs=1e-14)

    def test_solution_residual_matches_report(self, small_system):
        *_, system = small_system
        coeffs, report = solve_saddle(system)
        b = system.b
        res = np.linalg.norm(apply_operator(system, coeffs.values) - b)
        assert res / np.linalg.norm(b) == pytest.approx(
            report.relative_residual, rel=1e-6, abs=1e-15)

    def test_block_diagonal_quadratic_form_nonnegative(self, small_system, rng):
        *_, system = small_system
        dm = system.dofmap
        for _ in range(20):
            x = rng.randn(dm.total_dofs)
            xs, xu = x[dm.stress_dofs], x[dm.disp_dofs]
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
        g = r + rhs_direct
        target = system.b
        scale = 1.0 + np.abs(target).max()
        assert np.abs(g - target).max() <= 1e-8 * scale
