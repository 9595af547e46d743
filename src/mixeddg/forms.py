"""Bilinear forms of the mixed DG method and their assembly.

The discrete problem couples a stress block a(.,.), an off-diagonal strain /
trace block b(.,.), and a displacement jump penalty c(.,.):

    a(s, t) = int A s : t dx + int_{interior faces} C22 [s].[t] ds
    b(v, t) = -sum_K int eps(v) : t dx + int_{all faces} [[v]] : {t} ds
    c(u, v) = int_{all faces} C11 [[u]] : [[v]] ds
    F(v)    = int f . v dx

assembled in one pass into the saddle matrix M, which is [[Aa, Bb], [-Bb^T, Cc]]
on (stress; displacement) coefficients.  The dofs are numbered cell by cell,
so M is block-sparse with one dense [stress | displacement] block per pair of
a cell with itself or with a face neighbour.  Each volume and face term is
such a block, batched over the cells and the interior and boundary faces; a
0/1 pair-by-term product sums each pair's terms in a fixed order, so reruns
are bit-identical, and scipy's BSR-to-CSR conversion lays the blocks out as
M's CSC arrays.  Homogeneous Dirichlet data enters only through the retained
boundary-face terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import face_quadrature
from .polybasis import cell_quadrature, orthonormal_basis
from .spaces import DofMap, data_exactness, stress_unit_tensors


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic Lame constants in stress units."""

    lam: float
    mu: float
    dim: int

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("Lame constants must be positive")

    @property
    def trace_factor(self) -> float:
        return self.lam / (self.dim * self.lam + 2.0 * self.mu)


def compliance_apply(sigma: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """A sigma = (sigma - lam/(d*lam + 2*mu) tr(sigma) I) / (2*mu)."""
    sigma = np.asarray(sigma, dtype=float)
    tr = np.trace(sigma, axis1=-2, axis2=-1)
    eye = np.eye(mat.dim)
    return (sigma - mat.trace_factor * tr[..., None, None] * eye) / (2.0 * mat.mu)


def stiffness_apply(eps: np.ndarray, mat: MaterialParams) -> np.ndarray:
    """Inverse law: 2*mu*eps + lam tr(eps) I."""
    eps = np.asarray(eps, dtype=float)
    tr = np.trace(eps, axis1=-2, axis2=-1)
    eye = np.eye(mat.dim)
    return 2.0 * mat.mu * eps + mat.lam * tr[..., None, None] * eye


@dataclass(frozen=True)
class StabilizationParams:
    """Face penalty family C11 = zeta*h^a1/p^a2, C22 = eta*h^b1/p^b2.

    Exponent ranges -1 <= a1, a2 <= 0 <= b1, b2 <= 1 are enforced unless
    `allow_out_of_theory` is set (needed for the C22 = O(1/h) experiment).
    Interior faces take the min over the two incident cells; C22 exists on
    interior faces only, and vanishes exactly when eta = 0.
    """

    zeta: float = 1.0
    eta: float = 1.0
    alpha1: float = -1.0
    alpha2: float = 0.0
    beta1: float = 1.0
    beta2: float = 0.0
    allow_out_of_theory: bool = False

    def __post_init__(self):
        for name in ("zeta", "eta", "alpha1", "alpha2", "beta1", "beta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if not self.allow_out_of_theory:
            if not (-1.0 <= self.alpha1 <= 0.0 and -1.0 <= self.alpha2 <= 0.0):
                raise ValueError(
                    f"alpha exponents {(self.alpha1, self.alpha2)} outside [-1, 0]; "
                    "pass allow_out_of_theory to override"
                )
            if not (0.0 <= self.beta1 <= 1.0 and 0.0 <= self.beta2 <= 1.0):
                raise ValueError(
                    f"beta exponents {(self.beta1, self.beta2)} outside [0, 1]; "
                    "pass allow_out_of_theory to override"
                )

    @property
    def c22_zero(self) -> bool:
        return self.eta == 0.0


def _sym_outer(v, n):
    """sym(v x n) pointwise; broadcasts v (..., d) against n (..., d)."""
    outer = v[..., :, None] * n[..., None, :]
    return 0.5 * (outer + np.swapaxes(outer, -1, -2))


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


@dataclass(frozen=True)
class AssembledSystem:
    """The saddle matrix M as one canonical CSC matrix, and its right-hand side b.

    M and b are in cell-major DofMap order; b holds the load moments at the
    displacement dofs and zeros at the stress dofs.  M stores the whole block,
    zeros included, of each cell with itself and with its face neighbours,
    less the neighbour stress-stress part when C22 vanishes.  The Aa, Bb and
    Cc properties pick the stress and displacement dofs out of M on each
    access; Aa and Cc are symmetric.
    """

    M: sp.csc_matrix
    b: np.ndarray
    dofmap: DofMap

    Aa = property(lambda self: self._block(0, 0))
    Bb = property(lambda self: self._block(0, 1))
    Cc = property(lambda self: self._block(1, 1))

    def _block(self, i: int, j: int) -> sp.csc_matrix:
        dofs = (self.dofmap.stress_dofs, self.dofmap.disp_dofs)
        return self.M[dofs[i]][:, dofs[j]]


def side_ref_coords(mesh, cells, x):
    """Reference coordinates of physical face points in each incident cell."""
    delta = x - mesh.cell_v0[cells][:, None, :]
    return np.einsum("Frs,Fqs->Fqr", mesh.jac_inv[cells], delta)


def eval_on_faces(basis, ref):
    """Basis values at (nf, nq, d) reference points; shape (m, nf, nq)."""
    nf, nq, d = ref.shape
    return basis.eval(ref.reshape(nf * nq, d)).reshape(basis.size, nf, nq)


def penalty_values(mesh, dofmap, stab, which: str, plus, minus=None):
    """C11 (which="c11") or C22 ("c22") on faces with incident cells plus/minus.

    Interior faces (minus given) take the min over their two cells; C22 exists
    on interior faces only.  p = min(k, l) + 1 on every cell.
    """
    p = float(min(dofmap.k, dofmap.l) + 1)
    if which == "c11":
        coef, e1, e2 = stab.zeta, stab.alpha1, stab.alpha2
    else:
        if minus is None:
            raise ValueError("C22 terms exist on interior faces only")
        coef, e1, e2 = stab.eta, stab.beta1, stab.beta2
        if stab.c22_zero:
            return np.zeros(len(plus))
    h = mesh.diameters
    val = h[plus] ** e1 / p ** e2
    if minus is not None:
        val = np.minimum(val, h[minus] ** e1 / p ** e2)
    return coef * val


def assemble_system(mesh, topo, dofmap: DofMap, mat: MaterialParams,
                    stab: StabilizationParams, f) -> AssembledSystem:
    """Assemble a, b, c into the CSC matrix M and the load into b.

    Discrete-discrete integrals use quadrature exact to 2*max(k,l)+2; the
    load integral uses the manufactured-data exactness.
    """
    d = mesh.dim
    matrix_exactness = 2 * max(dofmap.k, dofmap.l) + 2

    basis_l = orthonormal_basis(mesh.cell_kind, dofmap.l)
    basis_k = orthonormal_basis(mesh.cell_kind, dofmap.k)
    E = stress_unit_tensors(d)
    A_comp = np.einsum("aij,bij->ab", compliance_apply(E, mat), E)  # (A E_a) : E_b

    nc = mesh.num_cells
    s_size, d_size, size = dofmap.stress_cell_size, dofmap.disp_cell_size, dofmap.cell_size
    detj = np.abs(mesh.det_jac)
    inner = topo.interior
    c22 = penalty_values(mesh, dofmap, stab, "c22", topo.plus[inner], topo.minus[inner])
    with_c22 = bool(np.any(c22 != 0.0))

    # one dense block per term of M, stored (term, local column, local row):
    # every cell's volume terms, then every interior face under the four
    # (row side, column side) combinations, then every boundary face
    terms = np.zeros((nc + 4 * topo.interior_count + topo.boundary_count, size, size))
    rows, cols = [np.arange(nc)], [np.arange(nc)]

    # volume terms, batched over cells
    rule = cell_quadrature(mesh.cell_kind, matrix_exactness)
    w = rule.weights
    Vl = basis_l.eval(rule.points)
    Gk = basis_k.eval_grad(rule.points)

    M_ref = np.einsum("iq,q,jq->ij", Vl, w, Vl)
    kron = np.kron(A_comp, M_ref)
    T_ref = np.einsum("iq,q,jqr->ijr", Vl, w, Gk)
    blocks_b = -np.einsum("acm,ijr,Frm,F->Faicj", E, T_ref, mesh.jac_inv,
                          detj).reshape(nc, s_size, d_size)
    terms[:nc, :s_size, :s_size] = detj[:, None, None] * kron.T[None, :, :]
    terms[:nc, s_size:, :s_size] = blocks_b.transpose(0, 2, 1)
    terms[:nc, :s_size, s_size:] = -blocks_b

    # load vector, batched over cells at data exactness
    rule_f = cell_quadrature(mesh.cell_kind, data_exactness(dofmap))
    Vk_f = basis_k.eval(rule_f.points)
    phys = mesh.cell_v0[:, None, :] + np.einsum(
        "qr,Fir->Fqi", rule_f.points, mesh.jacobians)
    fx = np.asarray(f(phys.reshape(-1, d))).reshape(nc, rule_f.size, d)
    b = np.zeros(dofmap.total_dofs)
    b[dofmap.disp_dofs] = np.einsum("Fqc,q,jq,F->Fcj", fx, rule_f.weights, Vk_f, detj).ravel()

    # face terms, batched over the interior and then the boundary faces
    start = nc
    for faces in (topo.interior, topo.boundary):
        nf = faces.stop - faces.start
        if nf == 0:
            continue
        x, wq = face_quadrature(mesh, topo, faces, matrix_exactness)
        n = topo.normals[faces]
        En = np.einsum("aij,Fj->Fai", E, n)
        Q = 0.5 * (np.eye(d)[None, :, :] + n[:, :, None] * n[:, None, :])
        plus = topo.plus[faces]
        minus = topo.minus[faces] if faces == topo.interior else None
        c11 = penalty_values(mesh, dofmap, stab, "c11", plus, minus)

        if minus is not None:
            sides = ((plus, 1.0), (minus, -1.0))
            avg_w = 0.5
            R = np.einsum("Fai,Fbi->Fab", En, En)
        else:
            sides = ((plus, 1.0),)
            avg_w = 1.0

        Vk_s, Vl_s = [], []
        for cells, _sign in sides:
            ref = side_ref_coords(mesh, cells, x)
            Vk_s.append(eval_on_faces(basis_k, ref))
            Vl_s.append(eval_on_faces(basis_l, ref))

        ns = len(sides)
        blk = terms[start:start + ns * ns * nf].reshape(ns, ns, nf, size, size)
        start += ns * ns * nf
        for i, (cells_i, sign_i) in enumerate(sides):
            for j, (cells_j, sign_j) in enumerate(sides):
                rows.append(cells_i)
                cols.append(cells_j)
                Mk = np.einsum("iFq,Fq,jFq->Fij", Vk_s[i], wq, Vk_s[j])
                blk[i, j, :, s_size:, s_size:] = np.einsum(
                    "F,Fcd,Fjk->Fdkcj", c11 * (sign_i * sign_j), Q, Mk
                ).reshape(nf, d_size, d_size)

                if minus is not None and with_c22:
                    Ml = np.einsum("iFq,Fq,jFq->Fij", Vl_s[i], wq, Vl_s[j])
                    blk[i, j, :, :s_size, :s_size] = np.einsum(
                        "F,Fab,Fik->Fbkai", c22 * (sign_i * sign_j), R, Ml
                    ).reshape(nf, s_size, s_size)

                # b with stress tests on side i and displacements on side j,
                # transposed; minus b^T is the lower left of block (j, i)
                Mlk = np.einsum("iFq,Fq,jFq->Fij", Vl_s[i], wq, Vk_s[j])
                blk_bt = (avg_w * sign_j) * np.einsum(
                    "Fac,Fij->Fcjai", En, Mlk).reshape(nf, d_size, s_size)
                blk[i, j, :, s_size:, :s_size] = blk_bt
                blk[j, i, :, :s_size, s_size:] = -blk_bt.transpose(0, 2, 1)

    # number the cell pairs sorted by column cell, then row cell; a 0/1
    # pair-by-term product sums each pair's terms in term order
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    keys, pair_of_term = np.unique(cols * nc + rows, return_inverse=True)
    incidence = sp.csr_matrix(
        (np.ones(len(rows)), np.argsort(pair_of_term, kind="stable"),
         np.concatenate([[0], np.cumsum(np.bincount(pair_of_term))])),
        shape=(len(keys), len(rows)))
    blocks = (incidence @ terms.reshape(len(rows), -1)).reshape(-1, size, size)
    del terms, blk  # freed before the layout is built

    # the blocks, (pair, local column, local row) by column cell, are a BSR
    # of M^T, so the CSR arrays of M^T are the CSC arrays of M
    pair_row, pair_col = keys % nc, keys // nc
    cell_ptr = np.searchsorted(pair_col, np.arange(nc + 1))
    n = dofmap.total_dofs
    MT = sp.bsr_matrix((blocks, pair_row, cell_ptr), shape=(n, n)).tocsr()
    data, indices, indptr = MT.data, MT.indices, MT.indptr
    if not with_c22:
        # Aa is block diagonal: drop, rather than store as zeros, the
        # neighbour stress-stress entries, which would raise the LU fill
        keep = np.ones(blocks.shape, np.int8)
        keep[pair_row != pair_col, :s_size, :s_size] = 0
        kept = sp.bsr_matrix((keep, pair_row, cell_ptr), shape=(n, n)).tocsr().data == 1
        data, indices = data[kept], indices[kept]
        indptr = np.concatenate([[0], np.cumsum(kept)])[indptr]
    M = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return AssembledSystem(M=M, b=b, dofmap=dofmap)


# ---------------------------------------------------------------------------
# Direct quadrature of the forms on arbitrary side-aware fields, one face at a
# time through jump_avg_kernels.  They share only penalty_values and
# face_quadrature with the batched assembly above and serve as its
# cross-check.  Field callables take (cell_index, physical_points) and return
# values at the points: (nq, d) for vectors, (nq, d, d) for tensors.

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
        x = mesh.cell_points(c, rule.points)
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
        x = mesh.cell_points(c, rule.points)
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
        x = mesh.cell_points(c, rule.points)
        wq = rule.weights * abs(mesh.det_jac[c])
        sig = np.asarray(sigma_fn(x))
        g = np.asarray(grad_u_fn(x))
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        fx = np.asarray(f_fn(x))
        gphys = np.einsum("jqr,rs->jqs", Gk, mesh.jac_inv[c])

        # a + b volume parts against stress tests: int (A sigma - eps(u)) : E_a phi_i
        T = compliance_apply(sig, mat) - eps
        so = dofmap.stress_offset(c)
        r[so:so + s_size] += np.einsum("qde,ade,q,iq->ai", T, E, wq, Vl).ravel()

        # -b volume part against displacement tests: + int eps(v_j) : sigma
        do = dofmap.disp_offset(c)
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
            ref = mesh.cell_ref_coords(cell, x)
            Vl_t = basis_l.eval(ref)
            Vk_t = basis_k.eval(ref)
            so = dofmap.stress_offset(cell)
            do = dofmap.disp_offset(cell)

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
