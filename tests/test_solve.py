import dataclasses
from importlib import resources

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mixeddg import apply_operator, build_dofmap, build_face_topology, \
    build_uniform_quad, build_uniform_tet, build_uniform_tri, case_2d_poly, \
    case_3d_sine, error_energy, error_l2, read_mesh, solve_saddle
from mixeddg.forms import MaterialParams, StabilizationParams, assemble_system, \
    exact_residual
from mixeddg.solve import ResidualToleranceError, SingularSystemError, \
    _block_graph, _stress_first_order

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))
BOX3 = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
STABS = pytest.mark.parametrize(
    "stab", [StabilizationParams(), StabilizationParams(eta=0.0)], ids=["default", "c22zero"])


def shipped_mesh():
    return read_mesh((resources.files("mixeddg") / "data/unstructured_square.msh").read_text())


# (mesh, k, l) on which the block order is checked
ORDER_CASES = {
    "tri-1-1": (lambda: build_uniform_tri(4, BOX2), 1, 1),
    "tri-2-1": (lambda: build_uniform_tri(4, BOX2), 2, 1),
    "tri-1-0": (lambda: build_uniform_tri(4, BOX2), 1, 0),
    "quad-2-2": (lambda: build_uniform_quad(3, BOX2), 2, 2),
    "tet-1-1": (lambda: build_uniform_tet(2, BOX3), 1, 1),
    "file-1-1": (shipped_mesh, 1, 1),
}


def assemble_case(name, stab=StabilizationParams()):
    mesh_fn, k, l = ORDER_CASES[name]
    mesh = mesh_fn()
    case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
    dm = build_dofmap(mesh, k, l)
    return assemble_system(mesh, build_face_topology(mesh), dm, case.material, stab, case.f)


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
        (lambda: build_uniform_tri(16, BOX2), 1.0, 1_375_526),
        (lambda: build_uniform_tri(16, BOX2), 0.0, 962_398),
        (lambda: build_uniform_tet(2, BOX3), 1.0, 441_550),
        (lambda: build_uniform_tet(2, BOX3), 0.0, 206_258),
    ], ids=["tri16", "tri16-c22zero", "tet2", "tet2-c22zero"])
    def test_factor_fill_pinned(self, mesh_fn, eta, fill):
        # the fill follows the block order and the stored pattern: storing
        # zeros or a worse order of the block graph raises it
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


class TestBlockOrder:
    @STABS
    @pytest.mark.parametrize("name", list(ORDER_CASES))
    def test_matches_plain_splu(self, name, stab):
        system = assemble_case(name, stab)
        coeffs, _ = solve_saddle(system)
        x = splu(system.M, permc_spec="MMD_AT_PLUS_A").solve(system.b)
        assert np.linalg.norm(coeffs.values - x) <= 1e-10 * np.linalg.norm(x)

    @STABS
    @pytest.mark.parametrize("name", list(ORDER_CASES))
    def test_blocks_contiguous_stress_first(self, name, stab):
        system = assemble_case(name, stab)
        dm = system.dofmap
        perm = _stress_first_order(system.M, dm)
        assert np.array_equal(np.sort(perm), np.arange(dm.total_dofs))
        # each (cell, field) block is one run of the size of the block
        cell, is_disp = np.divmod(perm, dm.cell_size)
        is_disp = is_disp >= dm.stress_cell_size
        node = 2 * cell + is_disp
        starts = np.flatnonzero(np.diff(node, prepend=-1))
        assert np.array_equal(np.sort(node[starts]), np.arange(2 * dm.num_cells))
        sizes = np.diff(np.append(starts, dm.total_dofs))
        expected = np.where(is_disp[starts], dm.disp_cell_size, dm.stress_cell_size)
        assert np.array_equal(sizes, expected)
        # a cell's stress run comes before its displacement run
        first = np.empty(2 * dm.num_cells, int)
        first[node[starts]] = starts
        assert np.all(first[0::2] < first[1::2])

    @pytest.mark.parametrize("name", ["tri-1-1", "quad-2-2", "tet-1-1", "file-1-1"])
    def test_node_graph_is_stored_graph(self, name):
        system = assemble_case(name)
        dm, M = system.dofmap, system.M.tocoo()
        cell, local = np.divmod(np.arange(dm.total_dofs), dm.cell_size)
        node = 2 * cell + (local >= dm.stress_cell_size)
        n_nodes = 2 * dm.num_cells
        ref = sp.csc_matrix((np.ones(M.nnz), (node[M.row], node[M.col])),
                            shape=(n_nodes, n_nodes))
        got_node, graph = _block_graph(system.M, dm)
        assert np.array_equal(got_node, node)
        graph.sort_indices()
        ref.sort_indices()
        assert np.array_equal(graph.indptr, ref.indptr)
        assert np.array_equal(graph.indices, ref.indices)

    def test_matrix_untouched_by_solve(self):
        system = assemble_case("tet-1-1")
        before = [getattr(system.M, name).copy() for name in ("data", "indices", "indptr")]
        solve_saddle(system)
        for name, old in zip(("data", "indices", "indptr"), before):
            assert np.array_equal(getattr(system.M, name), old)


class TestPolynomialReproduction:
    @STABS
    @pytest.mark.parametrize("mesh_fn", [
        lambda: build_uniform_tri(2, BOX2), lambda: build_uniform_quad(2, BOX2), shipped_mesh,
    ], ids=["tri2", "quad2", "file"])
    def test_degree_7_recovered(self, case2d, mesh_fn, stab):
        # the degree-7 displacement and its stress lie in the k = l = 7 spaces,
        # so the solve recovers them up to the roundoff of its order
        mesh = mesh_fn()
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 7, 7)
        system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        coeffs, _ = solve_saddle(system)
        assert error_l2(mesh, dm, coeffs, case2d) < 1e-11
        assert error_energy(mesh, topo, dm, coeffs, coeffs, case2d, stab) < 1e-11


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
