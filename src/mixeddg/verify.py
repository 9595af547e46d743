"""Manufactured solutions, error norms, and observed convergence orders.

The energy error is the seminorm induced by the diagonal of the method:
sqrt(a(es, es) + c(eu, eu)) with es = sigma - sigma_h, eu = u - u_h, with
exact fields evaluated directly on faces so nonzero-trace variants stay
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import (
    MaterialParams,
    StabilizationParams,
    _sym_outer,
    compliance_apply,
    eval_on_faces,
    penalty_values,
    stiffness_apply,
)
from .mesh import all_cell_points, face_quadrature, side_ref_coords
from .polybasis import cell_quadrature, orthonormal_basis
from .spaces import (
    DofMap,
    FieldCoeffs,
    data_exactness,
    tensor_from_components,
)

# quadrature points per batch of cells in the energy error's volume term, which
# holds a few (points, d, d) float64 arrays at a time
VOLUME_BATCH_POINTS = 1 << 14


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact displacement with the load that drives it; the exact stress
    follows from the material."""

    box: tuple
    material: MaterialParams
    u: callable          # (n, d) -> (n, d)
    grad_u: callable     # (n, d) -> (n, d, d), [q, i, j] = du_i/dx_j
    f: callable          # (n, d) -> (n, d)

    @property
    def dim(self) -> int:
        return self.material.dim

    def sigma(self, x):
        """(n, d) -> (n, d, d): the stiffness applied to sym(grad u)."""
        g = self.grad_u(x)
        return stiffness_apply(0.5 * (g + np.swapaxes(g, -1, -2)), self.material)


def case_2d_poly(lam: float = 0.3, mu: float = 0.35) -> ManufacturedCase:
    """Degree-7 polynomial displacement on (-1,1)^2, zero on the boundary."""
    mat = MaterialParams(lam, mu, 2)
    A, B = 80.0 / 7.0, 4.0

    def parts(x):
        x1, x2 = x[..., 0], x[..., 1]
        P = x2 * (1 - x2**2) * (1 - x1**2) ** 2
        R = x1 * (1 - x1**2) * (1 - x2**2) ** 2
        return x1, x2, P, R

    def u(x):
        _, _, P, R = parts(x)
        return np.stack([-A * P - B * R, A * R - B * P], axis=-1)

    def grad_u(x):
        x1, x2, _, _ = parts(x)
        dP1 = -4 * x1 * x2 * (1 - x2**2) * (1 - x1**2)
        dP2 = (1 - 3 * x2**2) * (1 - x1**2) ** 2
        dR1 = (1 - 3 * x1**2) * (1 - x2**2) ** 2
        dR2 = -4 * x1 * x2 * (1 - x1**2) * (1 - x2**2)
        g = np.empty(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = -A * dP1 - B * dR1
        g[..., 0, 1] = -A * dP2 - B * dR2
        g[..., 1, 0] = A * dR1 - B * dP1
        g[..., 1, 1] = A * dR2 - B * dP2
        return g

    def f(x):
        x1, x2 = x[..., 0], x[..., 1]
        f1 = -8 * (x1 + x2) * (
            (3 * x1 * x2 - 2) * (x1**2 + x2**2) + 5 * (x1 * x2 - 1) ** 2
            - 2 * x1**2 * x2**2
        )
        f2 = -8 * (x1 - x2) * (
            (3 * x1 * x2 + 2) * (x1**2 + x2**2) - 5 * (x1 * x2 + 1) ** 2
            + 2 * x1**2 * x2**2
        )
        return np.stack([f1, f2], axis=-1)

    return ManufacturedCase(
        box=((-1.0, 1.0), (-1.0, 1.0)),
        material=mat,
        u=u,
        grad_u=grad_u,
        f=f,
    )


def case_3d_sine(lam: float = 0.3, mu: float = 0.35) -> ManufacturedCase:
    """u = (1,2,4) sin(pi x1) sin(pi x2) sin(pi x3) on the unit cube."""
    mat = MaterialParams(lam, mu, 3)
    a = np.array([1.0, 2.0, 4.0])
    pi = math.pi

    def u(x):
        s = np.sin(pi * x)
        return (s[..., 0] * s[..., 1] * s[..., 2])[..., None] * a

    def grad_u(x):
        s = np.sin(pi * x)
        c = np.cos(pi * x)
        dg = np.empty(x.shape)
        dg[..., 0] = pi * c[..., 0] * s[..., 1] * s[..., 2]
        dg[..., 1] = pi * s[..., 0] * c[..., 1] * s[..., 2]
        dg[..., 2] = pi * s[..., 0] * s[..., 1] * c[..., 2]
        return a[:, None] * dg[..., None, :]

    def f(x):
        # -div(2 mu eps(u) + lam div(u) I) in closed form; gated by the
        # finite-difference equilibrium oracle in the test suite.
        s = np.sin(pi * x)
        c = np.cos(pi * x)
        g = s[..., 0] * s[..., 1] * s[..., 2]
        out = np.empty(x.shape)
        for i in range(3):
            cross = np.zeros(x.shape[:-1])
            for j in range(3):
                if j == i:
                    continue
                k = 3 - i - j
                cross = cross + a[j] * c[..., i] * c[..., j] * s[..., k]
            out[..., i] = pi**2 * ((4 * mu + lam) * a[i] * g - (mu + lam) * cross)
        return out

    return ManufacturedCase(
        box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)),
        material=mat,
        u=u,
        grad_u=grad_u,
        f=f,
    )


def error_l2(mesh, dofmap: DofMap, u_h: FieldCoeffs, case: ManufacturedCase,
             exactness=None) -> float:
    """Broken L2 norm of u - u_h."""
    if exactness is None:
        exactness = data_exactness(dofmap)
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vk = orthonormal_basis(mesh.cell_kind, dofmap.k).eval(rule.points)
    uh = np.einsum("Fim,mq->Fqi", u_h.all_disp_blocks(), Vk)
    phys = all_cell_points(mesh, rule.points)
    ue = np.asarray(case.u(phys.reshape(-1, mesh.dim))).reshape(uh.shape)
    diff = ue - uh
    total = np.einsum("F,q,Fqi,Fqi->", np.abs(mesh.det_jac), rule.weights, diff, diff)
    return math.sqrt(total)


def _side_error_traces(mesh, cells, x, bases, sigma_h, u_h, ue, se):
    """(u - u_h, sigma - sigma_h) traces on one side of a batch of faces,
    from the exact values ue and se at the face points x."""
    ref = side_ref_coords(mesh, cells, x)
    Vk_s, Vl_s = (eval_on_faces(basis, ref) for basis in bases)
    uh = np.einsum("Fim,mFq->Fqi", u_h.all_disp_blocks()[cells], Vk_s)
    comp = np.einsum("Fam,mFq->Fqa", sigma_h.all_stress_blocks()[cells], Vl_s)
    return ue - uh, se - tensor_from_components(comp, mesh.dim)


def error_energy(mesh, topo, dofmap: DofMap, sigma_h: FieldCoeffs,
                 u_h: FieldCoeffs, case: ManufacturedCase,
                 stab: StabilizationParams, exactness=None) -> float:
    """Energy seminorm sqrt(a(es,es) + c(eu,eu)) of the error pair."""
    if exactness is None:
        exactness = data_exactness(dofmap)
    mat = case.material
    d = mesh.dim
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vl = orthonormal_basis(mesh.cell_kind, dofmap.l).eval(rule.points)
    bases = tuple(orthonormal_basis(mesh.cell_kind, p) for p in (dofmap.k, dofmap.l))

    # the volume term over batches of cells, of at most VOLUME_BATCH_POINTS
    # quadrature points unless one cell has more
    total = 0.0
    stress_blocks = sigma_h.all_stress_blocks()
    batch = max(1, VOLUME_BATCH_POINTS // rule.size)
    for start in range(0, mesh.num_cells, batch):
        cells = slice(start, start + batch)
        comp = np.einsum("Fam,mq->Fqa", stress_blocks[cells], Vl)
        sh = tensor_from_components(comp, d)
        phys = all_cell_points(mesh, rule.points, cells)
        es = np.asarray(case.sigma(phys.reshape(-1, d))).reshape(sh.shape) - sh
        total += np.einsum("F,q,Fqij,Fqij->", np.abs(mesh.det_jac[cells]), rule.weights,
                           compliance_apply(es, mat), es)

    for faces in (topo.interior, topo.boundary):
        if faces.start == faces.stop:
            continue
        x, wq = face_quadrature(mesh, topo, faces, exactness)
        n = topo.normals[faces]
        plus = topo.plus[faces]
        minus = topo.minus[faces] if faces == topo.interior else None
        c11 = penalty_values(mesh, dofmap, stab, "c11", plus, minus)
        # the exact fields at the face points, shared by both sides
        flat = x.reshape(-1, d)
        exact = (np.asarray(case.u(flat)).reshape(x.shape),
                 np.asarray(case.sigma(flat)).reshape(x.shape + (d,)))

        eu_p, es_p = _side_error_traces(mesh, plus, x, bases, sigma_h, u_h, *exact)
        if minus is not None:
            eu_m, es_m = _side_error_traces(mesh, minus, x, bases, sigma_h, u_h, *exact)
            mj = _sym_outer(eu_p, n[:, None, :]) - _sym_outer(eu_m, n[:, None, :])
            c22 = penalty_values(mesh, dofmap, stab, "c22", plus, minus)
            if np.any(c22 != 0.0):
                jt = np.einsum("Fqij,Fj->Fqi", es_p - es_m, n)
                total += np.einsum("F,Fq,Fqi,Fqi->", c22, wq, jt, jt)
        else:
            mj = _sym_outer(eu_p, n[:, None, :])
        total += np.einsum("F,Fq,Fqij,Fqij->", c11, wq, mj, mj)
    return math.sqrt(total)


def observed_orders(errors) -> list:
    """log2(e_i / e_{i+1}) for levels whose h halves; rejects other sequences."""
    hs = [h for h, _ in errors]
    es = [e for _, e in errors]
    orders = []
    for i in range(len(errors) - 1):
        if not math.isclose(hs[i + 1] / hs[i], 0.5, rel_tol=1e-9):
            raise ValueError(
                f"levels {i} -> {i + 1} do not halve h: {hs[i]} -> {hs[i + 1]}"
            )
        orders.append(math.log2(es[i] / es[i + 1]))
    return orders
