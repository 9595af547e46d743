"""Independent cross-checks of the library, used by the tests only.

The forms are quadratured directly on arbitrary side-aware fields, one face
at a time through jump_avg_kernels.  They share only penalty_values and
face_quadrature with the batched assembly in mixeddg.forms and serve as its
cross-check.  Field callables take (cell_index, physical_points) and return
values at the points: (nq, d) for vectors, (nq, d, d) for tensors.  The
elementwise L2 projections of exact fields live here too; no library path
uses them.
"""

import math

import numpy as np
import scipy.sparse as sp

from mixeddg.forms import (
    MaterialParams,
    StabilizationParams,
    _sym_outer,
    compliance_apply,
    penalty_values,
)
from mixeddg.mesh import all_cell_points, face_quadrature
from mixeddg.polybasis import BasisSet, cell_quadrature, orthonormal_basis
from mixeddg.spaces import (
    STRESS_COMPONENTS,
    DofMap,
    FieldCoeffs,
    data_exactness,
    stress_unit_tensors,
    tensor_from_components,
)


def cell_points(mesh, cell: int, ref_points: np.ndarray) -> np.ndarray:
    """Map reference points to physical coordinates of a cell."""
    return mesh.cell_v0[cell] + ref_points @ mesh.jacobians[cell].T


def cell_ref_coords(mesh, cell: int, phys_points: np.ndarray) -> np.ndarray:
    """Invert the affine cell map at physical points."""
    return (phys_points - mesh.cell_v0[cell]) @ mesh.jac_inv[cell].T


def project_displacement(mesh, dofmap: DofMap, u_exact, exactness=None) -> FieldCoeffs:
    """Elementwise L2 projection Q_h of a vector field onto the displacement space.

    With the orthonormal reference basis the local mass matrix is |det J|
    times the identity, so coefficients are plain quadrature moments.
    """
    if exactness is None:
        exactness = data_exactness(dofmap)
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vk = orthonormal_basis(mesh.cell_kind, dofmap.k).eval(rule.points)
    phys = all_cell_points(mesh, rule.points)
    vals = np.asarray(u_exact(phys.reshape(-1, mesh.dim))).reshape(phys.shape)
    coeffs = FieldCoeffs(dofmap)
    # int_K u phi dx / det J = sum_q w_ref u(x_q) phi(x_q)
    coeffs.all_disp_blocks()[:] = np.einsum("Fqd,q,mq->Fdm", vals, rule.weights, Vk)
    return coeffs


def project_stress(mesh, dofmap: DofMap, sigma_exact, exactness=None) -> FieldCoeffs:
    """Componentwise L2 projection P_h of a symmetric tensor field."""
    if exactness is None:
        exactness = data_exactness(dofmap)
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vl = orthonormal_basis(mesh.cell_kind, dofmap.l).eval(rule.points)
    phys = all_cell_points(mesh, rule.points)
    vals = np.asarray(sigma_exact(phys.reshape(-1, mesh.dim)))
    if np.max(np.abs(vals - np.swapaxes(vals, -1, -2))) > 1e-10:
        raise ValueError("stress field is not symmetric")
    rows, cols = np.array(STRESS_COMPONENTS[dofmap.dim]).T
    comp_vals = vals[:, rows, cols].reshape(phys.shape[:2] + (len(rows),))
    coeffs = FieldCoeffs(dofmap)
    coeffs.all_stress_blocks()[:] = np.einsum("Fqa,q,mq->Fam", comp_vals, rule.weights, Vl)
    return coeffs


def stress_block(coeffs: FieldCoeffs, cell: int) -> np.ndarray:
    """View of cell stress coefficients, shape (n_comp, m_l)."""
    return coeffs.all_stress_blocks()[cell]


def disp_block(coeffs: FieldCoeffs, cell: int) -> np.ndarray:
    """View of cell displacement coefficients, shape (dim, m_k)."""
    return coeffs.all_disp_blocks()[cell]


def evaluate_field(coeffs: FieldCoeffs, cell: int, ref_points: np.ndarray):
    """Displacement vectors and full symmetric stress tensors at reference points."""
    dm = coeffs.dofmap
    pts = np.asarray(ref_points, dtype=float)
    Vk = orthonormal_basis(dm.cell_kind, dm.k).eval(pts)
    Vl = orthonormal_basis(dm.cell_kind, dm.l).eval(pts)
    u = disp_block(coeffs, cell) @ Vk                    # (dim, nq)
    sig_comp = stress_block(coeffs, cell) @ Vl           # (n_comp, nq)
    sigma = tensor_from_components(sig_comp.T, dm.dim)   # (nq, dim, dim)
    return u.T, sigma


def stress_offset(dofmap: DofMap, cell: int) -> int:
    """First global stress dof of a cell."""
    return cell * dofmap.cell_size


def disp_offset(dofmap: DofMap, cell: int) -> int:
    """First global displacement dof of a cell."""
    return cell * dofmap.cell_size + dofmap.stress_cell_size


def evaluate_displacement_gradient(coeffs: FieldCoeffs, mesh, cell: int, ref_points):
    """Physical gradient of the discrete displacement; shape (nq, dim, dim).

    Entry [q, i, j] is du_i/dx_j.
    """
    dm = coeffs.dofmap
    basis = orthonormal_basis(dm.cell_kind, dm.k)
    gref = basis.eval_grad(np.asarray(ref_points, dtype=float))
    gphys = np.einsum("mqr,rs->mqs", gref, mesh.jac_inv[cell])
    return np.einsum("im,mqs->qis", disp_block(coeffs, cell), gphys)


def jump_avg_kernels(normal, v_plus=None, v_minus=None, tau_plus=None, tau_minus=None):
    """Averages and jumps at face trace points.

    Supply minus-side traces for interior faces; with plus traces only, the
    boundary conventions {.} = trace, [v] = v.n, [tau] = tau n,
    [[v]] = sym(v x n) apply.  Returns a dict with keys among
    'avg_v', 'jump_v', 'mjump_v', 'avg_tau', 'jump_tau'.
    """
    n = np.asarray(normal, dtype=float)
    out = {}
    if v_plus is not None:
        v_plus = np.asarray(v_plus, dtype=float)
        if v_minus is None:
            out["avg_v"] = v_plus
            out["jump_v"] = v_plus @ n
            out["mjump_v"] = _sym_outer(v_plus, n)
        else:
            v_minus = np.asarray(v_minus, dtype=float)
            out["avg_v"] = 0.5 * (v_plus + v_minus)
            out["jump_v"] = (v_plus - v_minus) @ n
            out["mjump_v"] = _sym_outer(v_plus, n) - _sym_outer(v_minus, n)
    if tau_plus is not None:
        tau_plus = np.asarray(tau_plus, dtype=float)
        if tau_minus is None:
            out["avg_tau"] = tau_plus
            out["jump_tau"] = tau_plus @ n
        else:
            tau_minus = np.asarray(tau_minus, dtype=float)
            out["avg_tau"] = 0.5 * (tau_plus + tau_minus)
            out["jump_tau"] = (tau_plus - tau_minus) @ n
    return out


def _face_points(mesh, topo, i, exactness):
    """Quadrature points (nq, d) and weights (nq,) of face i alone."""
    x, wq = face_quadrature(mesh, topo, slice(i, i + 1), exactness)
    return x[0], wq[0]


def _face_penalties(mesh, topo, dofmap, stab, i):
    """(C11, C22) on face i; C22 is 0 on boundary faces."""
    plus, minus = topo.plus[i:i + 1], topo.minus[i:i + 1]
    if i >= topo.interior_count:
        return float(penalty_values(mesh, dofmap, stab, "c11", plus)[0]), 0.0
    return (float(penalty_values(mesh, dofmap, stab, "c11", plus, minus)[0]),
            float(penalty_values(mesh, dofmap, stab, "c22", plus, minus)[0]))


def form_a_direct(mesh, topo, dofmap, mat, stab, tau1, tau2, exactness):
    rule = cell_quadrature(mesh.cell_kind, exactness)
    total = 0.0
    for c in range(mesh.num_cells):
        x = cell_points(mesh, c, rule.points)
        wq = rule.weights * abs(mesh.det_jac[c])
        total += np.einsum("q,qij,qij->", wq,
                           compliance_apply(tau1(c, x), mat), tau2(c, x))
    for i in range(topo.interior_count):
        _, c22 = _face_penalties(mesh, topo, dofmap, stab, i)
        if c22 == 0.0:
            continue
        x, wq = _face_points(mesh, topo, i, exactness)
        p, m, n = int(topo.plus[i]), int(topo.minus[i]), topo.normals[i]
        k1 = jump_avg_kernels(n, tau_plus=tau1(p, x), tau_minus=tau1(m, x))
        k2 = jump_avg_kernels(n, tau_plus=tau2(p, x), tau_minus=tau2(m, x))
        total += c22 * np.einsum("q,qi,qi->", wq, k1["jump_tau"], k2["jump_tau"])
    return total


def form_b_direct(mesh, topo, v, grad_v, tau, exactness):
    rule = cell_quadrature(mesh.cell_kind, exactness)
    total = 0.0
    for c in range(mesh.num_cells):
        x = cell_points(mesh, c, rule.points)
        wq = rule.weights * abs(mesh.det_jac[c])
        g = np.asarray(grad_v(c, x))
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        total -= np.einsum("q,qij,qij->", wq, eps, tau(c, x))
    for i in range(topo.num_faces):
        x, wq = _face_points(mesh, topo, i, exactness)
        p, m, n = int(topo.plus[i]), int(topo.minus[i]), topo.normals[i]
        kv = jump_avg_kernels(n, v_plus=v(p, x), v_minus=v(m, x) if m >= 0 else None)
        kt = jump_avg_kernels(n, tau_plus=tau(p, x),
                              tau_minus=tau(m, x) if m >= 0 else None)
        total += np.einsum("q,qij,qij->", wq, kv["mjump_v"], kt["avg_tau"])
    return total


def form_c_direct(mesh, topo, dofmap, stab, v1, v2, exactness):
    total = 0.0
    for i in range(topo.num_faces):
        c11, _ = _face_penalties(mesh, topo, dofmap, stab, i)
        x, wq = _face_points(mesh, topo, i, exactness)
        p, m, n = int(topo.plus[i]), int(topo.minus[i]), topo.normals[i]
        k1 = jump_avg_kernels(n, v_plus=v1(p, x), v_minus=v1(m, x) if m >= 0 else None)
        k2 = jump_avg_kernels(n, v_plus=v2(p, x), v_minus=v2(m, x) if m >= 0 else None)
        total += c11 * np.einsum("q,qij,qij->", wq, k1["mjump_v"], k2["mjump_v"])
    return total


def exact_residual(mesh, topo, dofmap: DofMap, mat: MaterialParams,
                   stab: StabilizationParams, sigma_fn, u_fn, grad_u_fn, f_fn,
                   exactness=None):
    """Consistency residual of the exact solution against every basis function.

    Returns (r, rhs), both over the whole DofMap, where for stress tests t_i
    and displacement tests v_j

        r_i = a(sigma, t_i) + b(u, t_i)
        r_j = -b(v_j, sigma) + c(u, v_j) - F(v_j)

    and rhs holds the F moments, zero at the stress dofs.  Both r_i and r_j
    should vanish for the exact solution; this drives every volume and face
    term through quadrature jointly.
    """
    if exactness is None:
        exactness = data_exactness(dofmap)
    d = mesh.dim
    basis_l = orthonormal_basis(mesh.cell_kind, dofmap.l)
    basis_k = orthonormal_basis(mesh.cell_kind, dofmap.k)
    E = stress_unit_tensors(d)
    s_size, d_size = dofmap.stress_cell_size, dofmap.disp_cell_size

    r = np.zeros(dofmap.total_dofs)
    rhs = np.zeros(dofmap.total_dofs)

    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vl = basis_l.eval(rule.points)
    Vk = basis_k.eval(rule.points)
    Gk = basis_k.eval_grad(rule.points)

    for c in range(mesh.num_cells):
        x = cell_points(mesh, c, rule.points)
        wq = rule.weights * abs(mesh.det_jac[c])
        sig = np.asarray(sigma_fn(x))
        g = np.asarray(grad_u_fn(x))
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        fx = np.asarray(f_fn(x))
        gphys = np.einsum("jqr,rs->jqs", Gk, mesh.jac_inv[c])

        # a + b volume parts against stress tests: int (A sigma - eps(u)) : E_a phi_i
        T = compliance_apply(sig, mat) - eps
        so = stress_offset(dofmap, c)
        r[so:so + s_size] += np.einsum("qde,ade,q,iq->ai", T, E, wq, Vl).ravel()

        # -b volume part against displacement tests: + int eps(v_j) : sigma
        do = disp_offset(dofmap, c)
        moments_f = np.einsum("qc,q,jq->cj", fx, wq, Vk)
        r[do:do + d_size] += (
            np.einsum("qcm,q,jqm->cj", sig, wq, gphys) - moments_f).ravel()
        rhs[do:do + d_size] += moments_f.ravel()

    for i in range(topo.num_faces):
        x, wq = _face_points(mesh, topo, i, exactness)
        n = topo.normals[i]
        En = E @ n
        ux = np.asarray(u_fn(x))
        sig = np.asarray(sigma_fn(x))
        c11, c22 = _face_penalties(mesh, topo, dofmap, stab, i)
        if topo.minus[i] >= 0:
            ker = jump_avg_kernels(n, v_plus=ux, v_minus=ux,
                                   tau_plus=sig, tau_minus=sig)
            sides = ((int(topo.plus[i]), 1.0), (int(topo.minus[i]), -1.0))
            avg_w = 0.5
        else:
            ker = jump_avg_kernels(n, v_plus=ux, tau_plus=sig)
            sides = ((int(topo.plus[i]), 1.0),)
            avg_w = 1.0
        mj_u = ker["mjump_v"]
        tj_s = ker["jump_tau"]
        mj_u_n = mj_u @ n
        avg_s_n = ker["avg_tau"] @ n

        for cell, sign in sides:
            ref = cell_ref_coords(mesh, cell, x)
            Vl_t = basis_l.eval(ref)
            Vk_t = basis_k.eval(ref)
            so = stress_offset(dofmap, cell)
            do = disp_offset(dofmap, cell)

            # b face against stress tests: [[u]] : {E_a phi_i} on this side
            blk = avg_w * np.einsum("qde,ade,q,iq->ai", mj_u, E, wq, Vl_t)
            if c22 != 0.0:
                # a face: C22 [sigma].[t_i] with [t_i] = sign E_a n phi_i
                blk += c22 * sign * np.einsum("qd,ad,q,iq->ai", tj_s, En, wq, Vl_t)
            r[so:so + s_size] += blk.ravel()

            # -b face against displacement tests: -[[v_j]] : {sigma},
            # plus c face: C11 [[u]] : [[v_j]]
            blk_u = -sign * np.einsum("qc,q,jq->cj", avg_s_n, wq, Vk_t)
            blk_u += (c11 * sign) * np.einsum("qc,q,jq->cj", mj_u_n, wq, Vk_t)
            r[do:do + d_size] += blk_u.ravel()

    return r, rhs


def seminorm_B(mesh, topo, dofmap: DofMap, tau_eval, v_eval,
               stab: StabilizationParams, exactness: int) -> float:
    """Face-only seminorm pairing C22/C11 weights with their reciprocals.

    Requires eta > 0: with C22 = 0 the 1/C22 average term is undefined, so
    the seminorm does not make sense for the LDG limit.  Field callables take
    (cell, physical points) and return (nq, d, d) / (nq, d).
    """
    if stab.c22_zero:
        raise ValueError(
            "the B-seminorm is undefined for C22 = 0 (1/C22 average term)"
        )
    total = 0.0
    for i in range(topo.num_faces):
        x, wq = _face_points(mesh, topo, i, exactness)
        c11, c22 = _face_penalties(mesh, topo, dofmap, stab, i)
        p, m, n = int(topo.plus[i]), int(topo.minus[i]), topo.normals[i]
        if m >= 0:
            ker = jump_avg_kernels(
                n,
                v_plus=v_eval(p, x),
                v_minus=v_eval(m, x),
                tau_plus=tau_eval(p, x),
                tau_minus=tau_eval(m, x),
            )
            jt, at = ker["jump_tau"], ker["avg_tau"]
            av, mj = ker["avg_v"], ker["mjump_v"]
            total += np.einsum("q,qi,qi->", wq, jt, jt) * c22
            total += np.einsum("q,qij,qij->", wq, at, at) / c11
            total += np.einsum("q,qi,qi->", wq, av, av) / c22
            total += np.einsum("q,qij,qij->", wq, mj, mj) * c11
        else:
            tau = np.asarray(tau_eval(p, x))
            ker = jump_avg_kernels(n, v_plus=v_eval(p, x))
            mj = ker["mjump_v"]
            total += np.einsum("q,qij,qij->", wq, tau, tau) / c11
            total += np.einsum("q,qij,qij->", wq, mj, mj) * c11
    return math.sqrt(total)


def eval_basis_on_cell(basis: BasisSet, mesh, cell: int, ref_points: np.ndarray):
    """Values and physical gradients of `basis` on a mesh cell.

    Values are unchanged under the affine cell map; gradients transform by
    the inverse Jacobian transpose.
    """
    vals = basis.eval(ref_points)
    jinv = mesh.jac_inv[cell]
    grads = np.einsum("iqr,rs->iqs", basis.eval_grad(ref_points), jinv)
    return vals, grads


def cell_blocks(M, dofmap: DofMap) -> np.ndarray:
    """Each cell's own dense diagonal block of M, (cells, cell size, cell size),
    picked out through index arrays of M's full size in one pass."""
    size = dofmap.cell_size
    col = np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))
    own = M.indices // size == col // size
    row, col = M.indices[own], col[own]
    D = np.zeros((dofmap.num_cells, size, size))
    D[col // size, row % size, col % size] = M.data[own]
    return D


def sign_flipped(system):
    """(S M, S b) from the public system.M and system.b, S = +1 on the stress
    and -1 on the displacement dofs: the symmetric system the solver works on."""
    S = np.ones(system.dofmap.total_dofs)
    S[system.dofmap.disp_dofs] = -1.0
    return (sp.diags(S) @ system.M).tocsc(), S * system.b


def cycle_bytes(L, dofmap: DofMap, restart: int) -> int:
    """Bytes of the multilevel GMRES path's fine level, summed from its arrays.

    (m + 1) float64 and m float32 basis vectors for m = restart; the data of
    L, the stored lower triangle of S M, in float32; and per entry of the
    cells' diagonal blocks (n * cell size of them), 8 + 8 + 4 bytes for the
    float64 blocks, their inverses and the kept float32 inverses, and 8 + 12
    for the prolongation's dense float64 blocks and their CSR copy.
    """
    n = L.shape[0]
    return ((restart + 1) * 8 + restart * 4) * n + 4 * L.nnz + (20 + 20) * n * dofmap.cell_size


def dense_blocks(M, dofmap: DofMap, dtype):
    """A = Aa, B = Bb and C = Cc of the full M in dtype, Fortran-ordered, copied
    from dense float64 chunks of M's columns, each within one cell's stress or
    displacement columns: the reference for the copies from L."""
    n, ns, nu = M.shape[0], dofmap.n_stress_dofs, dofmap.n_disp_dofs
    size, s, cells = dofmap.cell_size, dofmap.stress_cell_size, dofmap.num_cells
    A, B, C = (np.zeros(shape, dtype, order="F") for shape in ((ns, ns), (ns, nu), (nu, nu)))
    width = max(1, (1 << 18) // n)
    fields = (((0, s), ((A, slice(0, s)),)), ((s, size), ((B, slice(0, s)), (C, slice(s, size)))))
    for cell in range(cells):
        for (lo, hi), blocks in fields:  # stress columns fill A, displacement ones B and C
            for start in range(lo, hi, width):
                w, col = min(width, hi - start), cell * size + start
                # rows as (local row, cell), as are those of each block's columns p:p+w
                chunk = M[:, col:col + w].toarray(order="F").reshape((size, cells, w), order="F")
                p = cell * (hi - lo) + start - lo
                for block, rows in blocks:
                    block[:, p:p + w].reshape((-1, cells, w), order="F")[...] = chunk[rows]
    return A, B, C


def gauss_jacobi_long(n: int, alpha: int, nodes: np.ndarray):
    """The n-point Gauss rule for int_-1^1 (1-t)^alpha f(t) dt in long double.

    Newton steps on the classical Jacobi polynomial P_n^(alpha,0), evaluated
    by its three-term recurrence, move the given float nodes to the roots;
    the weights are 2^(alpha+1) / ((1-t^2) P_n'(t)^2).  Long double carries
    about 19 digits on x86-64, where this oracle is some 1,000 times finer
    than float64.
    """
    a = np.longdouble(alpha)
    t = np.asarray(nodes, dtype=np.longdouble)
    for _ in range(4):
        p_prev, p = np.ones_like(t), ((a + 2) * t + a) / 2
        dp_prev, dp = np.zeros_like(t), np.full_like(t, (a + 2) / 2)
        for k in range(2, n + 1):
            c = 2 * k + a
            lead = 2 * k * (k + a) * (c - 2)
            mid = (c - 1) * (c * (c - 2) * t + a * a)
            tail = 2 * (k - 1 + a) * (k - 1) * c
            dp_prev, dp = dp, (mid * dp + (c - 1) * c * (c - 2) * p - tail * dp_prev) / lead
            p_prev, p = p, (mid * p - tail * p_prev) / lead
        t = t - p / dp
    return t, 2 ** (a + 1) / ((1 - t * t) * dp * dp)
