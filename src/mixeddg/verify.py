"""Manufactured solutions, error norms, and orders in h/p from raw errors.

The energy error is the seminorm induced by the diagonal of the method:
sqrt(a(es, es) + c(eu, eu)) with es = sigma - sigma_h, eu = u - u_h, with
exact fields evaluated directly on faces so nonzero-trace variants stay
correct.  Both error norms integrate in forms.cell_batches and
forms.face_batches, the assembly's batches, so their scratch is bounded by
forms.BATCH_POINTS and not by the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import (
    MaterialParams,
    StabilizationParams,
    _sym_outer,
    cell_batches,
    compliance_apply,
    face_batches,
    stiffness_apply,
)
from .polybasis import cell_quadrature, orthonormal_basis
from .spaces import (
    DofMap,
    FieldCoeffs,
    data_exactness,
    tensor_from_components,
)


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


def case_2d_poly() -> ManufacturedCase:
    """Degree-7 polynomial displacement on (-1,1)^2, zero on the boundary."""
    mat = MaterialParams(0.3, 0.35, 2)  # the closed-form f below holds for these only
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
        g = np.empty(x.shape[:-1] + (2, 2), np.result_type(x, float))
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
        dg = np.empty(x.shape, np.result_type(x, float))
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
    total = 0.0
    for cells, phys in cell_batches(mesh, rule):
        diff = (np.asarray(case.u(phys.reshape(-1, mesh.dim))).reshape(phys.shape)
                - np.einsum("Fim,mq->Fqi", u_h.all_disp_blocks()[cells], Vk))
        total += np.einsum("F,q,Fqi,Fqi->", np.abs(mesh.det_jac[cells]), rule.weights,
                           diff, diff)
    return math.sqrt(total)


def error_energy(mesh, topo, dofmap: DofMap, sigma_h: FieldCoeffs,
                 u_h: FieldCoeffs, case: ManufacturedCase,
                 stab: StabilizationParams, exactness=None) -> float:
    """Energy seminorm sqrt(a(es,es) + c(eu,eu)) of the error pair."""
    if exactness is None:
        exactness = data_exactness(dofmap)
    d = mesh.dim
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vl = orthonormal_basis(mesh.cell_kind, dofmap.l).eval(rule.points)
    stress_blocks, disp_blocks = sigma_h.all_stress_blocks(), u_h.all_disp_blocks()

    total = 0.0
    for cells, phys in cell_batches(mesh, rule):
        sh = tensor_from_components(np.einsum("Fam,mq->Fqa", stress_blocks[cells], Vl), d)
        es = np.asarray(case.sigma(phys.reshape(-1, d))).reshape(sh.shape) - sh
        total += np.einsum("F,q,Fqij,Fqij->", np.abs(mesh.det_jac[cells]), rule.weights,
                           compliance_apply(es, case.material), es)

    for faces, x, wq, c11, c22, sides in face_batches(mesh, topo, dofmap, stab, exactness):
        n = topo.normals[faces]
        # the exact fields at the face points, shared by both sides, and the
        # jumps of the error traces, plus side minus minus side
        flat = x.reshape(-1, d)
        ue = np.asarray(case.u(flat)).reshape(x.shape)
        se = np.asarray(case.sigma(flat)).reshape(x.shape + (d,))
        ju = jt = 0.0
        for cells, sign, Vk_s, Vl_s in sides:
            ju = ju + sign * (ue - np.einsum("Fim,mFq->Fqi", disp_blocks[cells], Vk_s))
            if c22 is not None:
                sh = tensor_from_components(
                    np.einsum("Fam,mFq->Fqa", stress_blocks[cells], Vl_s), d)
                jt = jt + sign * np.einsum("Fqij,Fj->Fqi", se - sh, n)
        if c22 is not None:
            total += np.einsum("F,Fq,Fqi,Fqi->", c22, wq, jt, jt)
        mj = _sym_outer(ju, n[:, None, :])
        total += np.einsum("F,Fq,Fqij,Fqij->", c11, wq, mj, mj)
    return math.sqrt(total)


def observed_orders(errors) -> list:
    """log(e_i / e_(i+1)) / log(x_i / x_(i+1)) of consecutive (x, e) pairs, signed;
    None where x repeats or a value is not positive and finite.  The CLI passes
    x = h/p and the raw errors: the h-order at fixed p, the p-order on one mesh."""
    orders = []
    for (x0, e0), (x1, e1) in zip(errors, errors[1:]):
        finite = all(0.0 < v < math.inf for v in (x0, e0, x1, e1))
        dx = math.log(x0) - math.log(x1) if finite else 0.0
        orders.append((math.log(e0) - math.log(e1)) / dx if dx else None)
    return orders
