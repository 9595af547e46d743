import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from mixeddg import (
    build_dofmap,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tet,
    build_uniform_tri,
    evaluate_field,
)
from mixeddg.forms import (
    MaterialParams,
    StabilizationParams,
    assemble_system,
    compliance_apply,
    exact_residual,
    form_a_direct,
    form_b_direct,
    form_c_direct,
    jump_avg_kernels,
    penalty_values,
    stiffness_apply,
)
from mixeddg.spaces import (
    STRESS_COMPONENTS,
    FieldCoeffs,
    evaluate_displacement_gradient,
    stress_unit_tensors,
)

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))
BOX3 = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
MAT2 = MaterialParams(0.3, 0.35, 2)
MAT3 = MaterialParams(0.3, 0.35, 3)


def voigt_stiffness_matrix(mat):
    """Dense stiffness acting on independent components; inverse is the oracle
    for compliance_apply."""
    comps = STRESS_COMPONENTS[mat.dim]
    E = stress_unit_tensors(mat.dim)
    n = len(comps)
    C = np.zeros((n, n))
    for b in range(n):
        # strain with eps_{ij} = eps_{ji} = 1 for the off-diagonal pair
        eps = E[b].copy()
        sig = stiffness_apply(eps, mat)
        for a, (i, j) in enumerate(comps):
            C[a, b] = sig[i, j]
    return C


class TestComplianceStiffness:
    @pytest.mark.parametrize("mat", [MAT2, MAT3])
    def test_identity_tensor(self, mat):
        d = mat.dim
        out = compliance_apply(np.eye(d), mat)
        assert out == pytest.approx(np.eye(d) / (d * mat.lam + 2 * mat.mu), rel=1e-14)

    def test_pure_shear(self):
        sig = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert compliance_apply(sig, MAT2) == pytest.approx(sig / (2 * MAT2.mu),
                                                            rel=1e-14)

    def test_zero_strain(self):
        assert np.all(stiffness_apply(np.zeros((2, 2)), MAT2) == 0)

    def test_identity_strain_2d(self):
        out = stiffness_apply(np.eye(2), MAT2)
        assert out == pytest.approx((2 * MAT2.mu + 2 * MAT2.lam) * np.eye(2),
                                    rel=1e-14)

    @pytest.mark.parametrize("mat", [MAT2, MAT3])
    def test_inverse_roundtrip_against_voigt_oracle(self, mat, rng):
        comps = STRESS_COMPONENTS[mat.dim]
        C = voigt_stiffness_matrix(mat)
        Cinv = np.linalg.inv(C)
        for _ in range(100):
            eps = rng.randn(mat.dim, mat.dim)
            eps = 0.5 * (eps + eps.T)
            sig = stiffness_apply(eps, mat)
            # componentwise oracle for the compliance
            sig_comp = np.array([sig[i, j] for (i, j) in comps])
            eps_oracle_comp = Cinv @ sig_comp
            eps_oracle = np.zeros((mat.dim, mat.dim))
            for a, (i, j) in enumerate(comps):
                eps_oracle[i, j] = eps_oracle[j, i] = eps_oracle_comp[a]
            assert compliance_apply(sig, mat) == pytest.approx(eps_oracle, abs=1e-13)
            assert compliance_apply(sig, mat) == pytest.approx(eps, abs=1e-13)

    def test_material_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(0.0, 0.35, 2)
        with pytest.raises(ValueError):
            MaterialParams(0.3, -1.0, 2)


class _StubMesh:
    def __init__(self, diameters):
        self.diameters = np.asarray(diameters)


def _penalty(which, diameters, dm, stab, interior=True):
    """Penalty on one face between cells 0 and 1, or on cell 0 alone."""
    minus = np.array([1]) if interior else None
    return penalty_values(_StubMesh(diameters), dm, stab, which, np.array([0]), minus)[0]


class TestPenalties:
    def test_c11_interior_min(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams(alpha1=-1.0, alpha2=0.0)
        val = _penalty("c11", [0.5, 0.25], dm, stab)
        assert val == pytest.approx(2.0, rel=1e-14)

    def test_c11_constant(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams(alpha1=0.0, alpha2=0.0)
        for h in ([0.5, 0.25], [2.0, 2.0]):
            assert _penalty("c11", h, dm, stab) == 1.0

    def test_c11_p_scaling(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 2, 2)
        stab = StabilizationParams(alpha1=0.0, alpha2=-1.0)
        assert _penalty("c11", [1.0, 1.0], dm, stab) == 3.0

    def test_c22_linear_h(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams(beta1=1.0, beta2=0.0)
        val = _penalty("c22", [0.25, 0.25], dm, stab)
        assert val == pytest.approx(0.25, rel=1e-14)

    def test_c22_zero_flag(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams(eta=0.0)
        assert stab.c22_zero
        assert not StabilizationParams(eta=1e-300).c22_zero
        with pytest.raises(TypeError):
            StabilizationParams(c22_zero=True)
        assert _penalty("c22", [0.25, 0.25], dm, stab) == 0.0

    def test_c22_out_of_theory(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams(beta1=-1.0, beta2=0.0, allow_out_of_theory=True)
        val = _penalty("c22", [0.25, 0.25], dm, stab)
        assert val == pytest.approx(4.0, rel=1e-14)

    def test_c22_on_boundary_rejected(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams()
        with pytest.raises(ValueError, match="interior"):
            _penalty("c22", [0.25], dm, stab, interior=False)

    def test_exponent_ranges_enforced(self):
        with pytest.raises(ValueError, match="alpha"):
            StabilizationParams(alpha1=-2.0)
        with pytest.raises(ValueError, match="beta"):
            StabilizationParams(beta1=-1.0)
        StabilizationParams(beta1=-1.0, allow_out_of_theory=True)
        with pytest.raises(ValueError):
            StabilizationParams(zeta=0.0)
        with pytest.raises(ValueError):
            StabilizationParams(eta=-0.5)

    def test_min_is_order_free(self, two_tri):
        mesh2, _ = two_tri
        dm = build_dofmap(mesh2, 1, 1)
        stab = StabilizationParams()
        a = _penalty("c11", [0.5, 0.25], dm, stab)
        b = _penalty("c11", [0.25, 0.5], dm, stab)
        assert a == b


class TestJumpAverageKernels:
    def test_continuous_field_has_zero_jumps(self, rng):
        n = np.array([0.6, 0.8])
        v = rng.randn(5, 2)
        ker = jump_avg_kernels(n, v_plus=v, v_minus=v)
        assert np.abs(ker["jump_v"]).max() == 0.0
        assert np.abs(ker["mjump_v"]).max() == 0.0
        assert ker["avg_v"] == pytest.approx(v)

    def test_normal_valued_field(self):
        n = np.array([0.0, 1.0])
        v = np.broadcast_to(n, (3, 2))
        ker = jump_avg_kernels(n, v_plus=v, v_minus=v)
        assert ker["avg_v"] == pytest.approx(v)
        assert np.abs(ker["jump_v"]).max() == 0.0

    def test_boundary_matrix_jump(self):
        n = np.array([0.0, 1.0])
        v = np.array([[1.0, 0.0]])
        ker = jump_avg_kernels(n, v_plus=v)
        assert ker["mjump_v"][0] == pytest.approx(
            np.array([[0.0, 0.5], [0.5, 0.0]]), abs=1e-15)

    def test_tensor_jump_boundary(self):
        n = np.array([1.0, 0.0])
        tau = np.array([[[2.0, 1.0], [1.0, -1.0]]])
        ker = jump_avg_kernels(n, tau_plus=tau)
        assert ker["jump_tau"][0] == pytest.approx(np.array([2.0, 1.0]))
        assert ker["avg_tau"] == pytest.approx(tau)


def _discrete_evals(mesh, coeffs):
    def tau(c, x):
        _, s = evaluate_field(coeffs, c, mesh.cell_ref_coords(c, x))
        return s

    def v(c, x):
        u, _ = evaluate_field(coeffs, c, mesh.cell_ref_coords(c, x))
        return u

    def grad_v(c, x):
        return evaluate_displacement_gradient(coeffs, mesh, c, mesh.cell_ref_coords(c, x))

    return tau, v, grad_v


def quadratic_form_direct(mesh, topo, dofmap, mat, stab, coeffs, exactness):
    """A(t,v;t,v) by direct quadrature of all four forms."""
    tau, v, grad_v = _discrete_evals(mesh, coeffs)
    a = form_a_direct(mesh, topo, dofmap, mat, stab, tau, tau, exactness)
    b = form_b_direct(mesh, topo, v, grad_v, tau, exactness)
    c = form_c_direct(mesh, topo, dofmap, stab, v, v, exactness)
    return a + b - b + c, abs(a) + 2 * abs(b) + abs(c)


def bilinear_form_direct(mesh, topo, dofmap, mat, stab, cx, cy, exactness):
    """x^T M y = a(sx, sy) + b(uy, sx) - b(ux, sy) + c(ux, uy) by direct quadrature."""
    tau_x, v_x, grad_x = _discrete_evals(mesh, cx)
    tau_y, v_y, grad_y = _discrete_evals(mesh, cy)
    terms = (form_a_direct(mesh, topo, dofmap, mat, stab, tau_x, tau_y, exactness),
             form_b_direct(mesh, topo, v_y, grad_y, tau_x, exactness),
             -form_b_direct(mesh, topo, v_x, grad_x, tau_y, exactness),
             form_c_direct(mesh, topo, dofmap, stab, v_x, v_y, exactness))
    return sum(terms), sum(abs(t) for t in terms)


def _zero_load(x):
    return np.zeros_like(x)


def _assemble(mesh, k, l, stab=StabilizationParams()):
    topo = build_face_topology(mesh)
    dm = build_dofmap(mesh, k, l)
    mat = MAT2 if mesh.dim == 2 else MAT3
    return topo, dm, mat, assemble_system(mesh, topo, dm, mat, stab, _zero_load)


def reference_pattern(topo, dm, with_c22):
    """Canonical CSC indptr and indices of the union of M's cell-pair blocks."""
    s, size = dm.stress_cell_size, dm.cell_size

    def stress(c):
        return c[:, None] * size + np.arange(s)

    def disp(c):
        return c[:, None] * size + np.arange(s, size)

    cells = np.arange(dm.num_cells)
    own = np.hstack([stress(cells), disp(cells)])
    plus, minus = topo.plus[topo.interior], topo.minus[topo.interior]
    r, c = np.concatenate([plus, minus]), np.concatenate([minus, plus])
    blocks = [(own, own), (stress(r), disp(c)), (disp(r), stress(c)), (disp(r), disp(c))]
    if with_c22:
        blocks.append((stress(r), stress(c)))
    rows = np.concatenate([np.broadcast_to(R[:, :, None], (len(R), R.shape[1], C.shape[1]))
                           .ravel() for R, C in blocks])
    cols = np.concatenate([np.broadcast_to(C[:, None, :], (len(R), R.shape[1], C.shape[1]))
                           .ravel() for R, C in blocks])
    n = dm.total_dofs
    ref = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsc()
    return ref.indptr, ref.indices


class TestAssembly:
    @pytest.mark.parametrize("stab", [StabilizationParams(), StabilizationParams(eta=0.0)],
                             ids=["default", "c22zero"])
    @pytest.mark.parametrize("kind,k,l", [("tri", 1, 1), ("tri", 2, 1), ("tri", 1, 0),
                                          ("quad", 2, 2), ("tet", 1, 1)])
    def test_bilinear_form_identity(self, kind, k, l, stab, rng):
        mesh = {"tri": lambda: build_uniform_tri(2, BOX2),
                "quad": lambda: build_uniform_quad(2, BOX2),
                "tet": lambda: build_uniform_tet(1, BOX3)}[kind]()
        topo, dm, mat, system = _assemble(mesh, k, l, stab)
        exactness = 2 * max(k, l) + 2
        for _ in range(2):
            x, y = rng.randn(dm.total_dofs), rng.randn(dm.total_dofs)
            direct, scale = bilinear_form_direct(
                mesh, topo, dm, mat, stab, FieldCoeffs(dm, x), FieldCoeffs(dm, y),
                exactness)
            assert abs(x @ (system.M @ y) - direct) <= 1e-11 * max(scale, 1.0)
        lower_left = system.M[dm.disp_dofs][:, dm.stress_dofs]
        assert np.array_equal(lower_left.toarray(), -system.Bb.T.toarray())

    @pytest.mark.parametrize("mesh_fn,k,eta,nnz", [
        (lambda: build_uniform_tri(8, BOX2), 1, 1.0, 108_000),
        (lambda: build_uniform_tri(8, BOX2), 1, 0.0, 79_488),
        (lambda: build_uniform_tri(16, BOX2), 1, 1.0, 446_400),
        (lambda: build_uniform_tri(16, BOX2), 1, 0.0, 327_168),
        (lambda: build_uniform_tet(2, BOX3), 1, 1.0, 248_832),
        (lambda: build_uniform_tri(2, BOX2), 10, 1.0, 2_613_600),
    ], ids=["tri8", "tri8-c22zero", "tri16", "tri16-c22zero", "tet2", "tri2-k10"])
    def test_pattern_is_cell_pair_blocks(self, mesh_fn, k, eta, nnz):
        # stored zeros inside blocks stay: SuperLU's ordering depends on them
        topo, dm, _, system = _assemble(mesh_fn(), k, k, StabilizationParams(eta=eta))
        M = system.M
        assert M.format == "csc" and M.has_canonical_format
        assert M.nnz == nnz
        indptr, indices = reference_pattern(topo, dm, with_c22=eta > 0)
        assert np.array_equal(M.indptr, indptr)
        assert np.array_equal(M.indices, indices)

    def test_reassembly_bit_identical(self):
        mesh = build_uniform_tri(4, BOX2)
        *_, a = _assemble(mesh, 2, 2)
        *_, b = _assemble(mesh, 2, 2)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.M, name), getattr(b.M, name))
        assert np.array_equal(a.b, b.b)

    def test_block_diagonal_stress_block_when_c22_zero(self, two_tri, case2d):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams(eta=0.0)
        system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        off_diag = system.Aa[:9, 9:].toarray()
        assert np.abs(off_diag).max() == 0.0

    @pytest.mark.parametrize("stab", [
        StabilizationParams(),
        StabilizationParams(alpha1=0.0, beta1=0.0),
        StabilizationParams(eta=0.0),
    ])
    def test_blocks_symmetric(self, case2d, stab):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        for M in (system.Aa, system.Cc):
            diff = (M - M.T).toarray()
            scale = np.abs(M.toarray()).max()
            assert np.abs(diff).max() <= 1e-12 * scale

    def test_quadratic_form_identity(self, case2d, rng):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams()
        system = assemble_system(mesh, topo, dm, case2d.material, stab, case2d.f)
        exactness = 2 * max(dm.k, dm.l) + 2
        for _ in range(5):
            x = rng.randn(dm.total_dofs)
            coeffs = FieldCoeffs(dm, x)
            xs, xu = x[dm.stress_dofs], x[dm.disp_dofs]
            block_val = xs @ (system.Aa @ xs) + xu @ (system.Cc @ xu)
            direct, scale = quadratic_form_direct(
                mesh, topo, dm, case2d.material, stab, coeffs, exactness)
            assert abs(direct - block_val) <= 1e-11 * max(scale, 1.0)

    def test_stress_block_positive_definite(self, case2d, rng):
        # up to 512 cells: factorization succeeds and Rayleigh quotients stay positive
        mesh = build_uniform_tri(16, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(
            mesh, topo, dm, case2d.material, StabilizationParams(), case2d.f)
        lu = splu(system.Aa.tocsc())
        assert lu.nnz > 0
        for _ in range(20):
            z = rng.randn(dm.n_stress_dofs)
            assert z @ (system.Aa @ z) > 0

    def test_displacement_block_psd(self, case2d, rng):
        mesh = build_uniform_tri(4, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        system = assemble_system(
            mesh, topo, dm, case2d.material, StabilizationParams(), case2d.f)
        for _ in range(20):
            z = rng.randn(dm.n_disp_dofs)
            assert z @ (system.Cc @ z) >= -1e-12 * np.abs(z).max()


class TestConsistency:
    @pytest.mark.parametrize("k,l", [(1, 1), (1, 0), (2, 2)])
    def test_exact_solution_residual_vanishes(self, case2d, k, l):
        mesh = build_uniform_tri(4, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, k, l)
        stab = StabilizationParams()
        r, rhs = exact_residual(mesh, topo, dm, case2d.material, stab,
                                case2d.sigma, case2d.u, case2d.grad_u, case2d.f)
        scale = 1.0 + np.abs(rhs).max()
        assert np.abs(r).max() <= 1e-8 * scale
