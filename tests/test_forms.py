import hashlib
import math
import tracemalloc

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
    case_2d_poly,
    case_3d_sine,
)
from mixeddg import solve as solve_module
from mixeddg.forms import (
    MaterialParams,
    StabilizationParams,
    assemble_system,
    compliance_apply,
    penalty_values,
    stiffness_apply,
)
from mixeddg.solve import FactorMemoryError
from mixeddg.spaces import STRESS_COMPONENTS, FieldCoeffs, stress_unit_tensors
from oracles import (
    cell_ref_coords,
    evaluate_displacement_gradient,
    evaluate_field,
    exact_residual,
    form_a_direct,
    form_b_direct,
    form_c_direct,
    jump_avg_kernels,
    sign_flipped,
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_material_rejects_non_finite(self, bad):
        # nan <= 0 is False: such a constant used to reach the solve, which
        # then reported a singular factor
        for lam, mu in ((bad, 0.35), (0.3, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                MaterialParams(lam, mu, 2)
        with pytest.raises(ValueError, match="positive and finite"):
            case_3d_sine(lam=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            case_3d_sine(mu=bad)


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
        _, s = evaluate_field(coeffs, c, cell_ref_coords(mesh, c, x))
        return s

    def v(c, x):
        u, _ = evaluate_field(coeffs, c, cell_ref_coords(mesh, c, x))
        return u

    def grad_v(c, x):
        return evaluate_displacement_gradient(coeffs, mesh, c, cell_ref_coords(mesh, c, x))

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
        (lambda: build_uniform_tri(8, BOX2), 1, 1.0, 60_192),
        (lambda: build_uniform_tri(8, BOX2), 1, 0.0, 44_224),
        (lambda: build_uniform_tri(16, BOX2), 1, 1.0, 246_496),
        (lambda: build_uniform_tri(16, BOX2), 1, 0.0, 180_512),
        (lambda: build_uniform_tet(2, BOX3), 1, 1.0, 88_522),
        (lambda: build_uniform_tri(2, BOX2), 10, 1.0, 1_672_424),
    ], ids=["tri8", "tri8-c22zero", "tri16", "tri16-c22zero", "tet2", "tri2-k10"])
    def test_pattern_is_cell_pair_blocks(self, mesh_fn, k, eta, nnz):
        # M stores the nonzero entries of its cell-pair blocks and no zeros,
        # and L the lower triangle of S M's
        topo, dm, _, system = _assemble(mesh_fn(), k, k, StabilizationParams(eta=eta))
        L, M = system.L, system.M
        assert L.format == "csc" and L.has_canonical_format
        assert np.all(L.data != 0.0) and sp.triu(L, 1).nnz == 0
        assert M.nnz == 2 * L.nnz - np.count_nonzero(L.diagonal())
        assert M.format == "csc" and M.has_canonical_format
        assert M.nnz == nnz
        assert np.all(M.data != 0.0)
        indptr, indices = reference_pattern(topo, dm, with_c22=eta > 0)
        ref = sp.csc_matrix((np.ones(len(indices)), indices, indptr), shape=M.shape)
        rows, cols = M.nonzero()
        assert np.all(ref[rows, cols] == 1.0)

    @pytest.mark.parametrize("kind,n,k,eta,digest", [
        ("tri", 4, 2, 1.0, "3d5565271cec2df924764af48df1a6a3db0d45d337f6f2bf1ebebcf59153c52d"),
        ("tri", 4, 2, 0.0, "e15d8af1da024bdf637d487d1d843b6a49c573475bd14f7c50726e9e20e7c72f"),
        ("tet", 2, 1, 1.0, "2f1c4ab101978ced0ebc5aeeef7a2fd7244a0133737ff6a58bd6df5e2b5a8526"),
        ("tet", 2, 1, 0.0, "090dc3807387bb432c98ea1f43c1c616440711c9615b635c22daf382be108449"),
        ("quad", 2, 3, 1.0, "aa5a8e5dee3c16a70f9c394d809a24516ffa3cae296ae6440a9f5b8881fbfdb9"),
        ("quad", 2, 3, 0.0, "3d1733428e733ebe5924da8fc9676449e4cd094b87f4676da7c877187af249f6"),
    ], ids=["tri4-k2", "tri4-k2-c22zero", "tet2", "tet2-c22zero", "quad2-k3",
            "quad2-k3-c22zero"])
    def test_bits_pinned(self, kind, n, k, eta, digest):
        # SHA-256 of L's indptr, indices and data and of b, with the manufactured
        # load: any change to the term order or the layout changes a bit
        mesh = {"tri": build_uniform_tri, "quad": build_uniform_quad,
                "tet": build_uniform_tet}[kind](n, BOX3 if kind == "tet" else BOX2)
        case = case_2d_poly() if mesh.dim == 2 else case_3d_sine()
        system = assemble_system(mesh, build_face_topology(mesh), build_dofmap(mesh, k, k),
                                 case.material, StabilizationParams(eta=eta), case.f)
        sha = hashlib.sha256()
        for array in (system.L.indptr, system.L.indices, system.L.data, system.b):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("kind,n,k", [("tet", 3, 1), ("quad", 3, 2), ("tri", 2, 8)])
    def test_scratch_bounded(self, kind, n, k):
        # the traced peak inside assemble_system stays within 20 % of the
        # cell-pair blocks of the lower triangle, padded to the most pairs of
        # any column cell, plus the final L, plus 128 KiB for numpy's einsum
        # buffers, which dominate on the 9 quads: no zero-filled copy of the
        # blocks beside them
        mesh = {"tri": build_uniform_tri, "quad": build_uniform_quad,
                "tet": build_uniform_tet}[kind](n, BOX3 if kind == "tet" else BOX2)
        topo, dm, mat, _ = _assemble(mesh, k, k)  # fills the basis and quadrature caches
        tracemalloc.start()
        try:
            L = assemble_system(mesh, topo, dm, mat, StabilizationParams(), _zero_load).L
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = 1 + np.bincount(np.minimum(topo.plus[topo.interior], topo.minus[topo.interior]))
        blocks = mesh.num_cells * pairs.max() * dm.cell_size ** 2 * 8
        assert peak <= 1.2 * (blocks + L.data.nbytes + L.indices.nbytes + L.indptr.nbytes) + 2 ** 17

    def test_data_compacted_in_blocks(self):
        # L's data is the front of the padded blocks, compacted in place: at
        # tri n=2, k=10 the traced peak inside assemble_system stays under the
        # blocks of the lower pairs plus a boolean mask of them plus a
        # separate copy of L's data
        mesh = build_uniform_tri(2, BOX2)
        topo, dm, mat, _ = _assemble(mesh, 10, 10)  # fills the basis and quadrature caches
        tracemalloc.start()
        try:
            L = assemble_system(mesh, topo, dm, mat, StabilizationParams(), _zero_load).L
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = 1 + np.bincount(np.minimum(topo.plus[topo.interior], topo.minus[topo.interior]))
        padded = mesh.num_cells * pairs.max() * dm.cell_size ** 2
        assert peak < 9 * padded + L.data.nbytes

    @pytest.mark.parametrize("stage", ["blocks", "indices"])
    def test_memory_check(self, stage, monkeypatch):
        # tri n=4, k=1: 32 cells, at most 3 lower pairs per column cell and 15
        # dofs a cell, so the padded float64 blocks need 32 * 3 * 15^2 * 8 =
        # 172,800 bytes, and L's int32 indices 4 bytes per entry (its data is
        # compacted inside the blocks).  One byte short, each is refused
        # before the array it counts is built
        mesh = build_uniform_tri(4, BOX2)
        topo, dm, mat, system = _assemble(mesh, 1, 1)
        blocks, indices = 172_800, 4 * system.L.nnz
        need, free = ((blocks, [blocks - 1]) if stage == "blocks"
                      else (indices, [blocks, indices - 1]))
        monkeypatch.setattr(solve_module, "_available_memory", iter(free).__next__)
        tracemalloc.start()
        try:
            with pytest.raises(FactorMemoryError,
                               match=f"the assembly needs {need:,} bytes, {need - 1:,} available"):
                assemble_system(mesh, topo, dm, mat, StabilizationParams(), _zero_load)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if stage == "blocks":  # refused before the float64 blocks
            assert peak < blocks

    def test_reassembly_bit_identical(self):
        mesh = build_uniform_tri(4, BOX2)
        *_, a = _assemble(mesh, 2, 2)
        *_, b = _assemble(mesh, 2, 2)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a.L, name), getattr(b.L, name))
        assert np.array_equal(a.b, b.b)

    @pytest.mark.parametrize("kind,eta", [("tri", 1.0), ("tri", 0.0), ("tet", 1.0)])
    def test_expanded_matrix_sign_symmetric(self, kind, eta):
        # S M, from M = S (L + L^T - D), is exactly symmetric with L its lower
        # triangle, and Aa, Bb and Cc are M's blocks
        mesh = build_uniform_tri(4, BOX2) if kind == "tri" else build_uniform_tet(1, BOX3)
        _, dm, _, system = _assemble(mesh, 2, 2, StabilizationParams(eta=eta))
        M, (SM, _) = system.M, sign_flipped(system)
        assert (SM.T - SM).count_nonzero() == 0
        assert np.array_equal(sp.tril(SM).toarray(), system.L.toarray())
        s, u = dm.stress_dofs, dm.disp_dofs
        for block, rows, cols in ((system.Aa, s, s), (system.Bb, s, u), (system.Cc, u, u)):
            assert np.array_equal(block.toarray(), M.toarray()[np.ix_(rows, cols)])
        assert np.array_equal(M.toarray()[np.ix_(u, s)], -system.Bb.T.toarray())

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
