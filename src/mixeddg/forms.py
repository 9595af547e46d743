"""Bilinear forms of the mixed DG method and their assembly.

The discrete problem couples a stress block a(.,.), an off-diagonal strain /
trace block b(.,.), and a displacement jump penalty c(.,.):

    a(s, t) = int A s : t dx + int_{interior faces} C22 [s].[t] ds
    b(v, t) = -sum_K int eps(v) : t dx + int_{all faces} [[v]] : {t} ds
    c(u, v) = int_{all faces} C11 [[u]] : [[v]] ds
    F(v)    = int f . v dx

assembled as sparse blocks with the saddle-point sign convention
M = [[Aa, Bb], [-Bb^T, Cc]] acting on (stress; displacement) coefficients.
Homogeneous Dirichlet data enters only through the retained boundary-face
terms; no rows are eliminated.  Assembly batches cells, then the interior and
the boundary slices of the face topology, with a fixed accumulation order, so
repeated runs build bit-identical matrices.
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
    interior faces only.
    """

    zeta: float = 1.0
    eta: float = 1.0
    alpha1: float = -1.0
    alpha2: float = 0.0
    beta1: float = 1.0
    beta2: float = 0.0
    c22_zero: bool = False
    allow_out_of_theory: bool = False

    def __post_init__(self):
        for name in ("zeta", "eta", "alpha1", "alpha2", "beta1", "beta2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.zeta <= 0:
            raise ValueError("zeta must be positive")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.eta == 0.0:
            object.__setattr__(self, "c22_zero", True)
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
    """Sparse saddle-point blocks with displacement load vector.

    Aa and Cc are symmetric; the full operator is [[Aa, Bb], [-Bb^T, Cc]]
    with right-hand side (0; rhs_u).
    """

    Aa: sp.csr_matrix
    Bb: sp.csr_matrix
    Cc: sp.csr_matrix
    rhs_u: np.ndarray
    dofmap: DofMap

    def full_matrix(self) -> sp.csr_matrix:
        return sp.bmat([[self.Aa, self.Bb], [-self.Bb.T, self.Cc]], format="csr")

    def full_rhs(self) -> np.ndarray:
        return np.concatenate([np.zeros(self.dofmap.n_stress_dofs), self.rhs_u])


class _Triplets:
    """COO accumulator; duplicate entries are summed on compression."""

    def __init__(self, shape):
        self.shape = shape
        self.rows = []
        self.cols = []
        self.vals = []

    def add_batch(self, row_base, col_base, blocks):
        """blocks: (nf, R, C) dense blocks at offsets row_base/col_base (nf,)."""
        nf, R, C = blocks.shape
        rp = np.repeat(np.arange(R), C)
        cp = np.tile(np.arange(C), R)
        self.rows.append((row_base[:, None] + rp[None, :]).ravel())
        self.cols.append((col_base[:, None] + cp[None, :]).ravel())
        self.vals.append(blocks.reshape(nf, R * C).ravel())

    def to_csr(self):
        if not self.rows:
            return sp.csr_matrix(self.shape)
        coo = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=self.shape,
        )
        return coo.tocsr()


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


def _compliance_component_matrix(mat: MaterialParams) -> np.ndarray:
    """(A E_a) : E_b over the stress component tensors."""
    E = stress_unit_tensors(mat.dim)
    return np.einsum("aij,bij->ab", compliance_apply(E, mat), E)


def assemble_system(mesh, topo, dofmap: DofMap, mat: MaterialParams,
                    stab: StabilizationParams, f,
                    matrix_exactness=None, rhs_exactness=None) -> AssembledSystem:
    """Assemble a, b, c and the load into sparse blocks.

    Discrete-discrete integrals use quadrature exact to 2*max(k,l)+2 by
    default; the load integral uses the manufactured-data exactness.
    """
    d = mesh.dim
    deg = max(dofmap.k, dofmap.l)
    if matrix_exactness is None:
        matrix_exactness = 2 * deg + 2
    if rhs_exactness is None:
        rhs_exactness = data_exactness(dofmap)

    basis_l = orthonormal_basis(mesh.cell_kind, dofmap.l)
    basis_k = orthonormal_basis(mesh.cell_kind, dofmap.k)
    E = stress_unit_tensors(d)
    A_comp = _compliance_component_matrix(mat)

    nc = mesh.num_cells
    s_size, d_size = dofmap.stress_cell_size, dofmap.disp_cell_size
    n_s, n_d = dofmap.n_stress_dofs, dofmap.n_disp_dofs
    soff = np.arange(nc) * s_size
    doff = np.arange(nc) * d_size
    detj = np.abs(mesh.det_jac)

    trip_a = _Triplets((n_s, n_s))
    trip_b = _Triplets((n_s, n_d))
    trip_c = _Triplets((n_d, n_d))

    # volume terms, batched over cells
    rule = cell_quadrature(mesh.cell_kind, matrix_exactness)
    w = rule.weights
    Vl = basis_l.eval(rule.points)
    Gk = basis_k.eval_grad(rule.points)

    M_ref = np.einsum("iq,q,jq->ij", Vl, w, Vl)
    kron = np.kron(A_comp, M_ref)
    trip_a.add_batch(soff, soff, detj[:, None, None] * kron[None, :, :])

    T_ref = np.einsum("iq,q,jqr->ijr", Vl, w, Gk)
    blocks_b = -np.einsum("acm,ijr,Frm,F->Faicj", E, T_ref, mesh.jac_inv, detj)
    trip_b.add_batch(soff, doff, blocks_b.reshape(nc, s_size, d_size))

    # load vector, batched over cells at data exactness
    rule_f = cell_quadrature(mesh.cell_kind, rhs_exactness)
    Vk_f = basis_k.eval(rule_f.points)
    phys = mesh.cell_v0[:, None, :] + np.einsum(
        "qr,Fir->Fqi", rule_f.points, mesh.jacobians)
    fx = np.asarray(f(phys.reshape(-1, d))).reshape(nc, rule_f.size, d)
    rhs = np.einsum("Fqc,q,jq,F->Fcj", fx, rule_f.weights, Vk_f, detj).ravel()

    # face terms, batched over the interior and then the boundary faces
    for faces in (topo.interior, topo.boundary):
        if faces.start == faces.stop:
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
            c22 = penalty_values(mesh, dofmap, stab, "c22", plus, minus)
            R = np.einsum("Fai,Fbi->Fab", En, En)
        else:
            sides = ((plus, 1.0),)
            avg_w = 1.0
            c22 = None

        Vk_s, Vl_s = [], []
        for cells, _sign in sides:
            ref = side_ref_coords(mesh, cells, x)
            Vk_s.append(eval_on_faces(basis_k, ref))
            Vl_s.append(eval_on_faces(basis_l, ref))

        for si, (cells_s, sign_s) in enumerate(sides):
            dbase_s = doff[cells_s]
            for ti, (cells_t, sign_t) in enumerate(sides):
                dbase_t = doff[cells_t]
                sbase_t = soff[cells_t]

                Mk = np.einsum("iFq,Fq,jFq->Fij", Vk_s[si], wq, Vk_s[ti])
                blk_c = np.einsum("F,Fcd,Fjk->Fcjdk",
                                  c11 * (sign_s * sign_t), Q, Mk)
                trip_c.add_batch(dbase_s, dbase_t,
                                 blk_c.reshape(-1, d_size, d_size))

                if c22 is not None and np.any(c22 != 0.0):
                    Ml = np.einsum("iFq,Fq,jFq->Fij", Vl_s[si], wq, Vl_s[ti])
                    blk_a = np.einsum("F,Fab,Fik->Faibk",
                                      c22 * (sign_s * sign_t), R, Ml)
                    trip_a.add_batch(soff[cells_s], sbase_t,
                                     blk_a.reshape(-1, s_size, s_size))

                # rows: stress test on side t, cols: displacement on side s
                Mlk = np.einsum("iFq,Fq,jFq->Fij", Vl_s[ti], wq, Vk_s[si])
                blk_b = (avg_w * sign_s) * np.einsum("Fac,Fij->Faicj", En, Mlk)
                trip_b.add_batch(sbase_t, dbase_s,
                                 blk_b.reshape(-1, s_size, d_size))

    return AssembledSystem(
        Aa=trip_a.to_csr(),
        Bb=trip_b.to_csr(),
        Cc=trip_c.to_csr(),
        rhs_u=rhs,
        dofmap=dofmap,
    )


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

    Returns (r, rhs) where, for stress tests t_i and displacement tests v_j,

        r_i = a(sigma, t_i) + b(u, t_i)
        r_j = -b(v_j, sigma) + c(u, v_j) - F(v_j)

    and rhs holds the F moments.  Both should vanish for the exact solution;
    this drives every volume and face term through quadrature jointly.
    """
    if exactness is None:
        exactness = data_exactness(dofmap)
    d = mesh.dim
    basis_l = orthonormal_basis(mesh.cell_kind, dofmap.l)
    basis_k = orthonormal_basis(mesh.cell_kind, dofmap.k)
    E = stress_unit_tensors(d)
    s_size, d_size = dofmap.stress_cell_size, dofmap.disp_cell_size

    r = np.zeros(dofmap.total_dofs)
    rhs = np.zeros(dofmap.n_disp_dofs)

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
        rhs[do - dofmap.n_stress_dofs:do - dofmap.n_stress_dofs + d_size] += \
            moments_f.ravel()

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
