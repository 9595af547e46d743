import dataclasses
import hashlib
import inspect
import tracemalloc
import warnings
import weakref
from importlib import resources
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from mixeddg import build_dofmap, build_face_topology, \
    build_uniform_quad, build_uniform_tet, build_uniform_tri, case_2d_poly, \
    case_3d_sine, error_energy, error_l2, read_mesh, refine_red, solve_saddle
from mixeddg import solve as solve_module
from mixeddg.cli import FLUX_ALIASES
from mixeddg.polybasis import cell_quadrature
from mixeddg.spaces import FieldCoeffs, prolongation
from mixeddg.forms import MaterialParams, StabilizationParams, assemble_system
from mixeddg.solve import FactorMemoryError, ResidualToleranceError, SingularSystemError, \
    _block_graph, _factor, _stress_first_order
from oracles import cell_blocks, cell_points, cell_ref_coords, cycle_bytes, dense_blocks, \
    evaluate_field, exact_residual, sign_flipped

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

    def test_report_counts_factor(self):
        # tri n=4 takes sparse LU
        system = assemble_case("tri-1-1")
        _, report = solve_saddle(system)
        assert report.factor_nnz >= system.M.nnz
        assert report.factor_s > 0.0
        assert report.solve_s > 0.0

    def test_report_counts_dense_factor(self, small_system):
        # two triangles take the dense factor: L and L2's lower triangles and W
        *_, system = small_system
        _, report = solve_saddle(system)
        ns, nu = system.dofmap.n_stress_dofs, system.dofmap.n_disp_dofs
        assert report.factor_nnz == ns * (ns + 1) // 2 + ns * nu + nu * (nu + 1) // 2
        assert report.factor_s > 0.0
        assert report.solve_s > 0.0

    @pytest.mark.parametrize("mesh_fn,eta,fill", [
        (lambda: build_uniform_tri(16, BOX2), 1.0, 1_376_162),
        (lambda: build_uniform_tri(16, BOX2), 0.0, 964_810),
        (lambda: build_uniform_tet(2, BOX3), 1.0, 441_526),
        (lambda: build_uniform_tet(2, BOX3), 0.0, 206_068),
    ], ids=["tri16", "tri16-c22zero", "tet2", "tet2-c22zero"])
    def test_factor_fill_pinned(self, mesh_fn, eta, fill):
        # the fill follows the block order and the stored pattern: storing
        # zeros or a worse order of the block graph raises it.  The block
        # graph's prediction, which sizes the memory preflight, stays over
        # the fill (tri16 1.13, tri16-c22zero 1.10, tet2 1.24, tet2-c22zero
        # 1.36 times)
        mesh = mesh_fn()
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(mesh, build_face_topology(mesh), dm,
                                 MaterialParams(0.3, 0.35, mesh.dim),
                                 StabilizationParams(eta=eta), lambda x: np.zeros_like(x))
        _, report = solve_saddle(system)
        assert report.factor_nnz == fill
        assert fill <= _stress_first_order(system.L, dm)[1] <= 1.4 * fill

    def test_singular_system_reported(self, small_system, monkeypatch):
        *_, system = small_system
        # k = l = 1 with the displacement penalty removed: rigid motions make
        # the operator singular, which must be reported rather than papered
        # over, by the dense factor the two triangles take and by sparse LU
        disp, C = system.dofmap.disp_dofs, system.Cc.tocoo()
        penalty = sp.csc_matrix((C.data, (disp[C.row], disp[C.col])), shape=system.L.shape)
        singular = dataclasses.replace(system, L=system.L + sp.tril(penalty, format="csc"))
        dense, lu = spy_dense(monkeypatch), spy_factor(monkeypatch)
        with pytest.raises((SingularSystemError, ResidualToleranceError)):
            solve_saddle(singular)
        assert dense and not lu
        monkeypatch.setattr(solve_module, "DENSE_MAX_RATIO", 0)
        dense.clear()
        with pytest.raises((SingularSystemError, ResidualToleranceError)):
            solve_saddle(singular)
        assert lu and not dense


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
        perm, _ = _stress_first_order(system.L, dm)
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
        got_node, graph = _block_graph(system.L, dm)
        assert np.array_equal(got_node, node)
        graph.sort_indices()
        ref.sort_indices()
        assert np.array_equal(graph.indptr, ref.indptr)
        assert np.array_equal(graph.indices, ref.indices)

    def test_matrix_untouched_by_solve(self):
        system = assemble_case("tet-1-1")
        before = [getattr(system.L, name).copy() for name in ("data", "indices", "indptr")]
        solve_saddle(system)
        for name, old in zip(("data", "indices", "indptr"), before):
            assert np.array_equal(getattr(system.L, name), old)


def spy_factor(monkeypatch):
    """The dtypes of the matrices SuperLU factors, in call order."""
    dtypes, real = [], solve_module.splu

    def splu(A, permc_spec=None, **kwargs):
        if permc_spec == "NATURAL":  # not the block graph's ordering
            dtypes.append(A.dtype)
        return real(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(solve_module, "splu", splu)
    return dtypes


def spy_splu(monkeypatch):
    """The bound arguments of every splu call, in call order."""
    calls, real = [], solve_module.splu

    def splu(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(solve_module, "splu", splu)
    return calls


def spy_dense(monkeypatch):
    """The dtypes the dense block Cholesky factors in, in call order."""
    dtypes, real = [], solve_module._dense_factor

    def dense_factor(M, dofmap, dtype):
        dtypes.append(dtype)
        return real(M, dofmap, dtype)

    monkeypatch.setattr(solve_module, "_dense_factor", dense_factor)
    return dtypes


def double_lu(system):
    """Solution and fill of the float64 LU of the stress-first order, which
    factors S M and so solves for S b."""
    lu_solve, nnz = _factor(system.L, system.dofmap)
    return lu_solve(sign_flipped(system)[1]), nnz


def count_runs(monkeypatch):
    """The entries in each run that _entries yields, in call order."""
    runs, real = [], solve_module._entries

    def entries(L):
        for run in real(L):
            runs.append(len(run[0]))
            yield run

    monkeypatch.setattr(solve_module, "_entries", entries)
    return runs


class TestMixedPrecision:
    @STABS
    @pytest.mark.parametrize("name", ["tri-1-1", "quad-2-2", "tet-1-1", "file-1-1"])
    def test_matches_double_lu(self, name, stab, monkeypatch):
        system = assemble_case(name, stab)
        dtypes = spy_factor(monkeypatch)
        coeffs, report = solve_saddle(system)
        assert dtypes == [np.float32]
        x, nnz = double_lu(system)
        assert np.linalg.norm(coeffs.values - x) <= 1e-12 * np.linalg.norm(x)
        assert true_residual(system, coeffs.values) <= 1e-13
        assert report.factor_nnz == nnz  # the same fill in both precisions

    @pytest.mark.parametrize("scale", [1e38, 1e-30], ids=["overflow", "subnormal"])
    def test_out_of_single_range_takes_double(self, scale, monkeypatch):
        system = assemble_case("tri-1-1")
        scaled = dataclasses.replace(system, L=system.L * scale, b=system.b * scale)
        finfo, magnitude = np.finfo(np.float32), np.abs(scaled.L.data)
        assert magnitude.max() > finfo.max or magnitude.min() < finfo.tiny
        dtypes = spy_factor(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, _ = solve_saddle(scaled)
        assert dtypes == [np.float64]
        assert np.array_equal(coeffs.values, double_lu(scaled)[0])

    def test_small_load_stays_single(self, monkeypatch):
        # each residual is scaled to unit norm before its cast, so a load far
        # under float32's normal range refines like any other
        system = assemble_case("tri-1-1")
        small = dataclasses.replace(system, b=system.b * 1e-40)
        dtypes = spy_factor(monkeypatch)
        coeffs, _ = solve_saddle(small)
        assert dtypes == [np.float32]
        assert true_residual(small, coeffs.values) <= 1e-13

    def test_single_failure_takes_double(self, monkeypatch):
        real = solve_module.splu

        def splu(A, **kwargs):
            if A.dtype == np.float32:
                raise RuntimeError("Factor is exactly singular")
            return real(A, **kwargs)

        monkeypatch.setattr(solve_module, "splu", splu)
        system = assemble_case("tet-1-1")
        coeffs, report = solve_saddle(system)
        x, nnz = double_lu(system)
        assert np.array_equal(coeffs.values, x)
        assert report.factor_nnz == nnz
        # x is pinned bit for bit, as in TestSolutionBits
        assert hashlib.sha256(x.tobytes()).hexdigest() == (
            "6479a57163d34b658c3ce66d2583d681041bece0f7daa9cf2cdbd20d558b823b")

    def test_refinement_miss_takes_double(self, monkeypatch):
        # no refinement reaches a zero residual
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 0.0)
        system = assemble_case("quad-2-2")
        dtypes = spy_factor(monkeypatch)
        coeffs, _ = solve_saddle(system)
        assert dtypes == [np.float32, np.float64]
        assert np.array_equal(coeffs.values, double_lu(system)[0])

    @pytest.mark.parametrize("kind,n,k", [("tri", 16, 1), ("tet", 3, 1), ("tri", 2, 10),
                                          ("tri", 4, 6)])
    def test_refinement_steps(self, kind, n, k, monkeypatch):
        # 3 steps at each on sparse LU: the residual reaches its roundoff
        # floor at the third, and a fourth correction would be under x's
        # last bit.  tri n=2 goes dense by the size rule, and is held on
        # sparse LU here; the dense factor's steps are pinned apart
        monkeypatch.setattr(solve_module, "DENSE_MAX_RATIO", 0)
        steps, real = [], solve_module._refine

        def refine(M, b, correct, tol, accept):
            def counted(r, left):
                steps.append(r)
                return correct(r, left)
            return real(M, b, counted, tol, accept)

        monkeypatch.setattr(solve_module, "_refine", refine)
        mesh = (build_uniform_tri(n, BOX2) if kind == "tri" else build_uniform_tet(n, BOX3))
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(), case.f)
        _, report = solve_saddle(system)
        assert len(steps) == 3
        assert report.relative_residual <= 1e-13

    @pytest.mark.parametrize("k,count", [(3, 3), (10, 4)])
    def test_dense_refinement_steps(self, k, count, monkeypatch):
        # the float32 block Cholesky is a few times less accurate than the
        # float32 sparse LU, so from k=4 on tri n=2 a fourth step still
        # halves the residual (k=10: 8.3e-5, 1.4e-9, 6.2e-14, 8.7e-15)
        steps, real = [], solve_module._refine

        def refine(M, b, correct, tol, accept):
            def counted(r, left):
                steps.append(r)
                return correct(r, left)
            return real(M, b, counted, tol, accept)

        monkeypatch.setattr(solve_module, "_refine", refine)
        dense = spy_dense(monkeypatch)
        mesh = build_uniform_tri(2, BOX2)
        case = case_2d_poly()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(), case.f)
        _, report = solve_saddle(system)
        assert dense == [np.float32] and len(steps) == count
        assert report.relative_residual <= 1e-13


class TestRefine:
    """_refine's contract, on a small system and a deliberately weak inner solver."""

    @pytest.fixture
    def system(self):
        A = np.random.default_rng(0).standard_normal((12, 12))
        return A @ A.T + 12 * np.eye(12), np.arange(1.0, 13.0)

    @staticmethod
    def damped(M, damping, lefts=None):
        # the exact solve scaled by damping: each step leaves 1 - damping of r
        def correct(r, left):
            if lefts is not None:
                lefts.append(left)
            return damping * np.linalg.solve(M, r), 1
        return correct

    def test_cap_returns_none(self, system, monkeypatch):
        monkeypatch.setattr(solve_module, "KRYLOV_MAX_ITERATIONS", 3)
        M, b = system
        lefts = []
        x, applications = solve_module._refine(M, b, self.damped(M, 0.9, lefts), 1e-12, 1e-9)
        assert (x, applications) == (None, 3) and lefts == [3, 2, 1]

    @pytest.mark.parametrize("accept,stands", [(1e-9, False), (0.8, True)])
    def test_stagnation(self, system, accept, stands):
        # 0.7 of r is left after one step: it does not halve, so the loop ends
        M, b = system
        x, applications = solve_module._refine(M, b, self.damped(M, 0.3), 1e-12, accept)
        assert applications == 1 and (x is not None) == stands

    def test_reaching_tol_returns_x(self, system):
        M, b = system
        x, applications = solve_module._refine(M, b, self.damped(M, 0.99), 1e-5, 1e-5)
        assert applications == 3  # ||r|| / ||b|| is 1e-2, 1e-4, 1e-6
        assert np.linalg.norm(b - M @ x) <= 1e-5 * np.linalg.norm(b)


DENSE_MESHES = {
    "tri1": lambda: build_uniform_tri(1, BOX2), "tri2": lambda: build_uniform_tri(2, BOX2),
    "quad2": lambda: build_uniform_quad(2, BOX2), "tet1": lambda: build_uniform_tet(1, BOX3),
}


class TestDenseFactor:
    @settings(max_examples=24, derandomize=True, database=None, deadline=None)
    @given(mesh=st.sampled_from(sorted(DENSE_MESHES)), k=st.integers(1, 6),
           flux=st.sampled_from(sorted(FLUX_ALIASES)))
    def test_matches_sparse_lu(self, mesh, k, flux):
        # the block Cholesky and sparse LU, each refined, agree on every
        # preset, C22 = 0 included
        mesh = DENSE_MESHES[mesh]()
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(**FLUX_ALIASES[flux]), case.f)
        solutions = []
        for ratio in (np.inf, 0):  # every system dense, then none
            with mock.patch.object(solve_module, "DENSE_MAX_RATIO", ratio):
                solutions.append(solve_saddle(system)[0].values)
        dense, sparse = solutions
        assert np.linalg.norm(dense - sparse) <= 1e-10 * np.linalg.norm(sparse)

    @pytest.mark.parametrize("kind,n,k,stab,dense", [
        *[("tri", 2, k, "default", True) for k in range(11)],
        *[("tri", 2, 1, flux, True) for flux in sorted(FLUX_ALIASES)],
        *[("tri", 4, k, "default", False) for k in (2, 3, 4)],
        ("tri", 4, 2, "c11=hinv,c22=0", False), ("tri", 8, 1, "default", False),
        ("tet", 2, 1, "default", False), ("tet", 2, 1, "c11=hinv,c22=0", False),
    ])
    def test_crossover(self, kind, n, k, stab, dense, monkeypatch):
        # n^2 <= 6 nnz(M): tri n=2 is a quarter dense at every k.  tri n=4 at
        # k >= 2 (n^2 / nnz = 16), tri n=8 (60) and tet n=2 (33), among them
        # the benchmark's smallest h-sweep levels and coarsest multilevel
        # grids, stay sparse
        mesh = build_uniform_tri(n, BOX2) if kind == "tri" else build_uniform_tet(n, BOX3)
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(**FLUX_ALIASES.get(stab, {})),
                                 case.f)
        lu, cholesky = spy_factor(monkeypatch), spy_dense(monkeypatch)
        solve_module._factor(system.L, system.dofmap, np.float32)
        assert (cholesky, lu) == (([np.float32], []) if dense else ([], [np.float32]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k,scan,chunks", [(3, None, 1), (10, None, 13), (3, 3000, 27)],
                             ids=["3", "10", "3-chunked"])
    def test_blocks_copied_from_lower(self, k, scan, chunks, dtype, monkeypatch):
        # A's lower triangle, B and C's lower triangle, the parts the block
        # Cholesky reads, are copied from L bit for bit as from the full M,
        # whether L is read in one run of columns or in many
        mesh = build_uniform_tri(2, BOX2)
        case = case_2d_poly()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(), case.f)
        if scan is not None:
            monkeypatch.setattr(solve_module, "SCAN_ENTRIES", scan)
        runs = count_runs(monkeypatch)
        got = solve_module._dense_blocks(system.L, system.dofmap, dtype)
        assert len(runs) == chunks and sum(runs) == system.L.nnz
        assert max(runs) <= solve_module.SCAN_ENTRIES // 4
        want = dense_blocks(system.M, system.dofmap, dtype)
        for part, (g, w) in zip(("A", "B", "C"), zip(got, want)):
            assert g.dtype == dtype and g.flags.f_contiguous
            if part != "B":
                g, w = np.tril(g), np.tril(w)
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("scale", [1e38, 1e-30], ids=["overflow", "subnormal"])
    def test_out_of_single_range_takes_double(self, small_system, scale, monkeypatch):
        *_, system = small_system
        scaled = dataclasses.replace(system, L=system.L * scale, b=system.b * scale)
        dtypes = spy_dense(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, _ = solve_saddle(scaled)
        assert dtypes == [np.float32, np.float64]
        assert true_residual(scaled, coeffs.values) <= 1e-13


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
        M = system.M
        for i in range(dm.total_dofs):
            e = np.zeros(dm.total_dofs)
            e[i] = 1.0
            assert M @ e == pytest.approx(dense[:, i], abs=1e-14)

    def test_solution_residual_matches_report(self, small_system):
        *_, system = small_system
        coeffs, report = solve_saddle(system)
        b = system.b
        res = np.linalg.norm(system.M @ coeffs.values - b)
        assert res / np.linalg.norm(b) == pytest.approx(
            report.relative_residual, rel=1e-6, abs=1e-15)

    def test_block_diagonal_quadratic_form_nonnegative(self, small_system, rng):
        *_, system = small_system
        dm = system.dofmap
        for _ in range(20):
            x = rng.randn(dm.total_dofs)
            xs, xu = x[dm.stress_dofs], x[dm.disp_dofs]
            assert xs @ (system.Aa @ xs) + xu @ (system.Cc @ xu) >= 0.0


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


def tet_system(n, stab=StabilizationParams(), k=1):
    mesh = build_uniform_tet(n, BOX3)
    case = case_3d_sine()
    dm = build_dofmap(mesh, k, k)
    return mesh, assemble_system(mesh, build_face_topology(mesh), dm, case.material, stab,
                                 case.f)


def tri_system(n, stab=StabilizationParams(), mesh=None):
    mesh = build_uniform_tri(n, BOX2) if mesh is None else mesh
    case = case_2d_poly()
    dm = build_dofmap(mesh, 1, 1)
    return mesh, assemble_system(mesh, build_face_topology(mesh), dm, case.material, stab,
                                 case.f)


def true_residual(system, x):
    return np.linalg.norm(system.M @ x - system.b) / np.linalg.norm(system.b)


C22_ONE = StabilizationParams(**FLUX_ALIASES["c11=hinv,c22=1"])
# (alpha1, beta1) of the penalties C11 ~ 1/h, C22 ~ h, the one 2D scaling on
# which the multilevel cycle beats LU
H_SCALED = (-1.0, 1.0)


def assert_prolongation_reproduces(mesh, k, l, rng):
    """P maps a random coarse field to the same field on the fine cells."""
    coarse, parent = mesh.coarse_level
    dm, coarse_dm = build_dofmap(mesh, k, l), build_dofmap(coarse, k, l)
    P = prolongation(mesh, dm)
    assert P.shape == (dm.total_dofs, coarse_dm.total_dofs)
    xc = FieldCoeffs(coarse_dm, rng.randn(coarse_dm.total_dofs))
    xf = FieldCoeffs(dm, P @ xc.values)
    points = cell_quadrature(mesh.cell_kind, 4).points
    for cell in range(mesh.num_cells):
        on_coarse = cell_ref_coords(coarse, parent[cell], cell_points(mesh, cell, points))
        for fine, ref in zip(evaluate_field(xf, cell, points),
                             evaluate_field(xc, parent[cell], on_coarse)):
            assert np.abs(fine - ref).max() <= 1e-13 * np.abs(ref).max()


class TestTwoLevel:
    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 0)])
    def test_prolongation_reproduces_coarse_field(self, k, l, rng):
        mesh = build_uniform_tet(4, ((-1.0, 2.0), (0.5, 0.7), (-3.0, -1.0)))
        assert_prolongation_reproduces(mesh, k, l, rng)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 1), (1, 0)])
    def test_prolongation_reproduces_coarse_field_tri(self, k, l, rng):
        assert_prolongation_reproduces(build_uniform_tri(8, ((-1.0, 2.0), (0.5, 0.7))),
                                       k, l, rng)

    @pytest.mark.parametrize("stab", [StabilizationParams(), C22_ONE],
                             ids=["default", "c11=hinv,c22=1"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_direct(self, n, stab, monkeypatch):
        # tet n=4 at k=1 has 13,824 dofs, above the size constant
        if n == 2:
            monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        mesh, system = tet_system(n, stab)
        direct, direct_report = solve_saddle(system)
        coeffs, report = solve_saddle(system, mesh)
        assert 0 < report.iterations < solve_module.KRYLOV_MAX_ITERATIONS
        assert report.factor_nnz < direct_report.factor_nnz  # the coarse LU
        assert true_residual(system, coeffs.values) <= 1e-12
        assert report.relative_residual <= 1e-12
        diff = np.linalg.norm(coeffs.values - direct.values)
        assert diff <= 1e-10 * np.linalg.norm(direct.values)

    def test_splu_gets_no_relax_or_panel_size(self, monkeypatch):
        # scipy's splu hands relax and panel_size to SuperLU unchecked:
        # panel_size=0 hangs and -1 segfaults, so neither the direct nor the
        # multilevel path sets them.  tri n=8 recurses once, to n=4 (480
        # dofs), whose sparse LU is the coarsest
        calls = spy_splu(monkeypatch)
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 1000)
        mesh, system = tri_system(8)
        solve_saddle(system)
        direct = len(calls)
        assert solve_saddle(system, mesh)[1].levels == 2
        assert 0 < direct < len(calls)
        for arguments in calls:
            assert not {"relax", "panel_size"} & set(arguments)
            assert not {"Relax", "PanelSize"} & set(arguments.get("options") or {})

    def test_dense_coarsest_calls_no_splu(self, monkeypatch):
        # tet n=2 recurses to n=1, whose 216 dofs go to the dense factor
        calls, dense = spy_splu(monkeypatch), spy_dense(monkeypatch)
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        mesh, system = tet_system(2)
        assert solve_saddle(system, mesh)[1].levels == 2
        assert calls == [] and dense == [np.float32]

    @pytest.mark.parametrize("stab,fewest,most", [
        (StabilizationParams(), 38, 45), (C22_ONE, 62, 70)], ids=["default", "c11=hinv,c22=1"])
    def test_iterations_pinned(self, stab, fewest, most):
        # tet n=4, k=1 converges in 43 and 66 iterations, restarted every
        # KRYLOV_RESTART steps; a slower Krylov method or preconditioner
        # leaves the band
        mesh, system = tet_system(4, stab)
        _, report = solve_saddle(system, mesh)
        assert fewest <= report.iterations <= most
        assert report.levels == 2  # the coarse n=2 level is below KRYLOV_MIN_DOFS

    def test_tri_iterations_pinned(self):
        # tri n=32, k=1 at the default C11 ~ 1/h, C22 ~ h: 28 iterations,
        # its coarse n=16 level factored
        mesh, system = tri_system(32)
        _, report = solve_saddle(system, mesh)
        assert 25 <= report.iterations <= 31
        assert report.levels == 2

    @pytest.mark.parametrize("kind,grids", [("tri", 4), ("tet", 3)])
    def test_recursive_matches_direct(self, kind, grids, monkeypatch):
        # with no size floor tri n=8 and tet n=4 recurse down to n=1
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        mesh, system = tri_system(8) if kind == "tri" else tet_system(4)
        direct, direct_report = solve_saddle(system)
        coeffs, report = solve_saddle(system, mesh)
        assert report.levels == grids
        assert 0 < report.iterations < solve_module.KRYLOV_MAX_ITERATIONS
        coarsest = build_dofmap(build_uniform_tri(1) if kind == "tri" else build_uniform_tet(1),
                                1, 1).total_dofs
        # the LU of the n=1 level: SuperLU stores the diagonal in L and in U
        assert report.factor_nnz <= coarsest ** 2 + coarsest
        assert true_residual(system, coeffs.values) <= 1e-12
        diff = np.linalg.norm(coeffs.values - direct.values)
        assert diff <= 1e-10 * np.linalg.norm(direct.values)

    @pytest.mark.parametrize("case", [name for name, exps in FLUX_ALIASES.items()
                                      if (exps["alpha1"], exps["beta1"]) != H_SCALED]
                             + ["quad", "refined"])
    def test_2d_direct_path(self, case, monkeypatch):
        # every 2D penalty scaling but C11 ~ 1/h, C22 ~ h, and every 2D mesh
        # but the uniform triangles, is solved by LU
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        stab = StabilizationParams(**FLUX_ALIASES.get(case, {}))
        mesh = {"quad": build_uniform_quad(8, BOX2),
                "refined": refine_red(refine_red(build_uniform_tri(2, BOX2)))}.get(case)
        mesh, system = tri_system(8, stab, mesh=mesh)

        def no_cycle(*_):
            raise AssertionError("the multilevel set-up ran")

        monkeypatch.setattr(solve_module, "_multilevel", no_cycle)
        _, report = solve_saddle(system, mesh)
        assert (report.iterations, report.levels) == (0, 1)

    @pytest.mark.parametrize("case", ["2d", "c22zero", "odd-n", "one-argument", "small"])
    def test_direct_path(self, case, monkeypatch):
        if case != "small":  # tet n=2 at k=1 has 1,728 dofs, below the size constant
            monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        if case == "2d":  # C22 ~ 1, off the 2D path rule
            mesh, system = tri_system(8, C22_ONE)
        else:
            n = 3 if case == "odd-n" else 2
            stab = StabilizationParams(eta=0.0) if case == "c22zero" else StabilizationParams()
            mesh, system = tet_system(n, stab)
        args = (system,) if case == "one-argument" else (system, mesh)

        def no_cycle(*_):
            raise AssertionError("the multilevel set-up ran")

        monkeypatch.setattr(solve_module, "_multilevel", no_cycle)
        coeffs, report = solve_saddle(*args)
        direct, direct_report = solve_saddle(system)
        assert (report.iterations, report.levels) == (0, 1)
        assert report.factor_nnz == direct_report.factor_nnz
        assert np.array_equal(coeffs.values, direct.values)

    def test_restart_from_x_reaches_tolerance(self, monkeypatch):
        # a cycle ends when its estimate passes, which the true residual may
        # not; a first cycle stopped at 1e-6 stands in for that, and each
        # restart from x takes KRYLOV_RESTART of the steps left, or all of them
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        runs, real = [], solve_module._arnoldi_cycle

        def arnoldi_cycle(M, r, precondition, steps, tol):
            loose = tol * 1e6 if not runs else tol
            dx, applications = real(M, r, precondition, steps, loose)
            runs.append((steps, applications))
            return dx, applications

        monkeypatch.setattr(solve_module, "_arnoldi_cycle", arnoldi_cycle)
        mesh, system = tet_system(2)
        coeffs, report = solve_saddle(system, mesh)
        left = cap = solve_module.KRYLOV_MAX_ITERATIONS
        assert len(runs) >= 2
        for steps, applications in runs:
            assert steps == min(left, solve_module.KRYLOV_RESTART)
            left -= applications
        assert report.iterations == cap - left <= cap
        assert report.levels == 2  # no fallback to LU
        assert true_residual(system, coeffs.values) <= 1e-12

    def test_float64_floor_ends_iteration(self, monkeypatch):
        # a KRYLOV_TOL under float64's floor at tri n=32: the first cycle
        # ends where its estimate rises, and a restart that no longer halves
        # the true residual ends the iteration, with x kept and no fallback
        monkeypatch.setattr(solve_module, "KRYLOV_TOL", 1e-16)
        runs, real = [], solve_module._arnoldi_cycle

        def arnoldi_cycle(M, r, precondition, steps, tol):
            dx, applications = real(M, r, precondition, steps, tol)
            runs.append(applications)
            return dx, applications

        monkeypatch.setattr(solve_module, "_arnoldi_cycle", arnoldi_cycle)
        mesh, system = tri_system(32)
        coeffs, report = solve_saddle(system, mesh)
        assert report.levels == 2
        assert len(runs) >= 2 and report.iterations == sum(runs)
        assert report.iterations < solve_module.KRYLOV_MAX_ITERATIONS
        assert true_residual(system, coeffs.values) <= 1e-12

    def test_cycles_bounded_by_restart(self, monkeypatch):
        # every cycle at tri n=32 gets at most KRYLOV_RESTART steps, and the
        # reported iterations are their applications summed over restarts
        runs, real = [], solve_module._arnoldi_cycle

        def arnoldi_cycle(M, r, precondition, steps, tol):
            dx, applications = real(M, r, precondition, steps, tol)
            runs.append((steps, applications))
            return dx, applications

        monkeypatch.setattr(solve_module, "_arnoldi_cycle", arnoldi_cycle)
        mesh, system = tri_system(32)
        _, report = solve_saddle(system, mesh)
        assert len(runs) >= 2 and report.levels == 2
        assert max(steps for steps, _ in runs) <= solve_module.KRYLOV_RESTART
        assert report.iterations == sum(applications for _, applications in runs)

    def test_krylov_memory_bounded(self):
        # the traced peak of the solve at tri n=32 stays within the restarted
        # basis V and Z plus the cycle's own arrays, the sum that the memory
        # check sets against; unrestarted, V and Z alone reach about 35 MB
        mesh, system = tri_system(32)
        tracemalloc.start()
        try:
            _, report = solve_saddle(system, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.levels == 2
        assert peak <= cycle_bytes(system.L, system.dofmap, solve_module.KRYLOV_RESTART)

    @pytest.mark.parametrize("spare", [-1, 0], ids=["one-byte-short", "exact"])
    def test_cycle_memory_check(self, spare, monkeypatch):
        # the GMRES path's bytes are set against the memory left before any
        # of the cycle is built: one byte short refuses the level, exactly
        # enough runs it.  tri n=8 recurses once, to the LU of n=4
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 1000)
        mesh, system = tri_system(8)
        need = cycle_bytes(system.L, system.dofmap, solve_module.KRYLOV_RESTART)
        monkeypatch.setattr(solve_module, "_available_memory", lambda: need + spare)
        if spare == 0:
            assert solve_saddle(system, mesh)[1].levels == 2
            return

        def no_cycle(*_):
            raise AssertionError("the multilevel set-up ran")

        monkeypatch.setattr(solve_module, "_multilevel", no_cycle)
        with pytest.raises(FactorMemoryError, match=f"the multilevel cycle needs {need:,} bytes"):
            solve_saddle(system, mesh)

    def test_iteration_cap_falls_back_to_direct(self, monkeypatch):
        # the cap counts cycle applications summed over the restarts
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        monkeypatch.setattr(solve_module, "KRYLOV_MAX_ITERATIONS", 6)
        steps_given, applied = [], []
        real_cycle, real_refine = solve_module._arnoldi_cycle, solve_module._refine

        def arnoldi_cycle(M, r, precondition, steps, tol):
            steps_given.append(steps)

            def counted(v):
                applied.append(v)
                return precondition(v)

            return real_cycle(M, r, counted, min(steps, 4), tol)

        runs = []

        def refine(*args):
            runs.append(real_refine(*args))
            return runs[-1]

        monkeypatch.setattr(solve_module, "_arnoldi_cycle", arnoldi_cycle)
        monkeypatch.setattr(solve_module, "_refine", refine)
        mesh, system = tet_system(2)
        coeffs, report = solve_saddle(system, mesh)
        (cycle_x, cycle_applications), (direct_x, _) = runs
        direct, direct_report = solve_saddle(system)
        assert steps_given == [6, 2] and len(applied) == 6
        assert (cycle_x, cycle_applications) == (None, 6) and direct_x is not None
        assert report.iterations == 0
        assert report.factor_nnz == direct_report.factor_nnz
        assert np.array_equal(coeffs.values, direct.values)

    def test_failed_rungs_freed_before_next_factor(self, monkeypatch):
        # after a Krylov fallback and a refinement miss, the cycle and then
        # the float32 factor are freed before the next factor of M reads
        # MemAvailable
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        monkeypatch.setattr(solve_module, "_refine", lambda M, b, correct, tol, accept: (None, 0))
        mesh, system = tet_system(2)
        held, alive = [], []
        real_multilevel, real_factor = solve_module._multilevel, solve_module._factor

        def multilevel(*args):
            cycle, nnz, grids = real_multilevel(*args)
            held.append(weakref.ref(cycle))
            return cycle, nnz, grids

        def factor(M, dofmap, dtype=np.float64):
            if M is not system.L:  # the cycle's coarse factor
                return real_factor(M, dofmap, dtype)
            alive.append([ref() is not None for ref in held])
            lu_solve, nnz = real_factor(M, dofmap, dtype)
            held.append(weakref.ref(lu_solve))
            return lu_solve, nnz

        monkeypatch.setattr(solve_module, "_multilevel", multilevel)
        monkeypatch.setattr(solve_module, "_factor", factor)
        coeffs, report = solve_saddle(system, mesh)
        assert alive == [[False], [False, False]]
        assert report.relative_residual <= 1e-12

    def test_out_of_single_range_takes_direct(self, monkeypatch):
        # the float32 cycle cannot hold M; the direct path takes float64
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        mesh, system = tet_system(2)
        scaled = dataclasses.replace(system, L=system.L * 1e38, b=system.b * 1e38)
        dtypes = spy_factor(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, report = solve_saddle(scaled, mesh)
        assert dtypes == [np.float64]
        assert (report.iterations, report.levels) == (0, 1)
        assert np.array_equal(coeffs.values, double_lu(scaled)[0])

    def test_cycle_is_single_precision(self, monkeypatch):
        # tri n=8 recurses once, to the sparse LU of n=4 (480 dofs)
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 1000)
        mesh, system = tri_system(8)
        dtypes = spy_factor(monkeypatch)
        cycle, _, grids = solve_module._multilevel(system.L, system.dofmap, mesh)
        r = np.ones(system.dofmap.total_dofs, np.float32)
        assert cycle(r).dtype == np.float32
        assert dtypes == [np.float32] and grids == 2  # the n=4 level's LU

    def test_cycle_is_single_precision_dense(self, monkeypatch):
        # with no size floor tri n=8 recurses to n=1, whose factor is dense
        monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", 0)
        mesh, system = tri_system(8)
        lu, dense = spy_factor(monkeypatch), spy_dense(monkeypatch)
        cycle, _, grids = solve_module._multilevel(system.L, system.dofmap, mesh)
        r = np.ones(system.dofmap.total_dofs, np.float32)
        assert cycle(r).dtype == np.float32
        assert lu == [] and dense == [np.float32] and grids == 4


class TestCellBlocks:
    @pytest.mark.parametrize("scan", [None, 3000], ids=["default", "chunked"])
    @pytest.mark.parametrize("mesh_fn,chunks", [
        (lambda: build_uniform_tri(8, BOX2), {None: 1, 3000: 88}),
        (lambda: build_uniform_quad(4, BOX2), {None: 1, 3000: 8}),
        (lambda: build_uniform_tet(2, BOX3), {None: 2, 3000: 157}),
    ], ids=["tri", "quad", "tet"])
    def test_match_one_pass_oracle(self, mesh_fn, chunks, scan, monkeypatch):
        # the blocks mirrored from L are the expanded S M's, bit for bit; a
        # small SCAN_ENTRIES reads L in runs of a few columns each
        mesh = mesh_fn()
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        dm = build_dofmap(mesh, 2, 1)
        system = assemble_system(mesh, build_face_topology(mesh), dm, case.material,
                                 StabilizationParams(), case.f)
        if scan is not None:
            monkeypatch.setattr(solve_module, "SCAN_ENTRIES", scan)
        runs = count_runs(monkeypatch)
        D = solve_module._cell_blocks(system.L, dm)
        assert len(runs) == chunks[scan] and sum(runs) == system.L.nnz
        assert max(runs) <= solve_module.SCAN_ENTRIES // 4
        assert np.array_equal(D, cell_blocks(sign_flipped(system)[0], dm))
        assert np.all(D[:, np.arange(dm.cell_size), np.arange(dm.cell_size)] != 0.0)


class TestSignSymmetry:
    """S M is symmetric, S = +1 on stress and -1 on displacement dofs, so the
    system stores its lower triangle L and the solver applies
    S M x = L x + L^T x - D x over L's own index arrays."""

    @pytest.mark.parametrize("stab", [StabilizationParams(), C22_ONE],
                             ids=["default", "c11=hinv,c22=1"])
    @pytest.mark.parametrize("mesh_fn", [
        lambda: build_uniform_tri(8, BOX2), lambda: build_uniform_quad(4, BOX2),
        lambda: build_uniform_tet(2, BOX3),
    ], ids=["tri", "quad", "tet"])
    def test_float32_operator(self, mesh_fn, stab, rng):
        mesh = mesh_fn()
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        dm = build_dofmap(mesh, 2, 2)
        system = assemble_system(mesh, build_face_topology(mesh), dm, case.material, stab,
                                 case.f)
        M, _ = sign_flipped(system)
        x = rng.randn(dm.total_dofs).astype(np.float32)
        y = solve_module._operator(system.L, np.float32) @ x
        assert y.dtype == np.float32
        exact = x.astype(float)
        bound = np.finfo(np.float32).eps * np.linalg.norm(abs(M) @ abs(exact))
        assert np.linalg.norm(y - M @ exact) <= bound

    @pytest.mark.parametrize("x_dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("mesh_fn", [
        lambda: build_uniform_tri(8, BOX2), lambda: build_uniform_tet(2, BOX3),
    ], ids=["tri8", "tet2"])
    def test_half_product_matches_csc(self, mesh_fn, x_dtype, rng):
        # the float64 operator, on the float64 vectors of the residuals and
        # the float32 ones of the Arnoldi steps, against the CSC product
        mesh = mesh_fn()
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(mesh, build_face_topology(mesh), dm, case.material,
                                 StabilizationParams(), case.f)
        x = rng.randn(dm.total_dofs).astype(x_dtype)
        y = solve_module._operator(system.L) @ x
        exact = sign_flipped(system)[0] @ x.astype(float)
        assert y.dtype == np.float64
        assert np.linalg.norm(y - exact) <= 1e-15 * np.linalg.norm(exact)


class TestSolutionBits:
    """x's SHA-256 on one system per solver path, with the iterations, the
    grids and the factor's entries.  The pins hold under one and two OpenBLAS
    threads; tri n=32 and tet n=4 on the cycle do not, as threaded BLAS sums
    their Arnoldi products in another order, so the cycle is pinned on tri
    n=8 and tet n=2 with no size floor."""

    @pytest.mark.parametrize("kind,n,k,floor,report,digest", [
        ("tri", 8, 1, None, (0, 1, 218_078),
         "d9581733d77a109965e4c778a5ea8118d0359c6afedf3b9c97b7ee1592078919"),
        ("tri", 2, 3, None, (0, 1, 80_200),
         "a71f87bf770f68d67594392eb50cce22bfa7dd3038e7819950c95daa6a852187"),
        ("tri", 8, 1, 0, (29, 4, 465),
         "bf13b2791ae6ba1012b02147b55b181f43f0bad77442932dc7cf9c15e82a9a72"),
        ("tet", 2, 1, 0, (38, 2, 23_436),
         "68d998eab9b65805b1106b39eba1a31e27c73b524a80edc16988b30645b380f2"),
    ], ids=["lu", "dense", "cycle-tri", "cycle-tet"])
    def test_solution_pinned(self, kind, n, k, floor, report, digest, monkeypatch):
        if floor is not None:
            monkeypatch.setattr(solve_module, "KRYLOV_MIN_DOFS", floor)
        mesh = build_uniform_tri(n, BOX2) if kind == "tri" else build_uniform_tet(n, BOX3)
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(), case.f)
        coeffs, got = solve_saddle(system, mesh)
        assert (got.iterations, got.levels, got.factor_nnz) == report
        assert hashlib.sha256(coeffs.values.tobytes()).hexdigest() == digest
