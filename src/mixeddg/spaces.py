"""Degree-of-freedom layout and elementwise L2 projections.

Stress fields live in symmetric-tensor-valued P_l per cell, displacements in
vector-valued P_k, with |k - l| <= 1 so the strain/divergence/compliance
inclusion conditions hold automatically.  Both spaces are fully discontinuous,
so every dof belongs to one cell and the dofs are numbered cell by cell.
Symmetric tensors are stored by independent components (2D: s11, s22, s12;
3D: s11, s22, s33, s23, s13, s12); inner products always expand the full
tensor, so no Voigt weights appear.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .polybasis import CELL_DIM, cell_quadrature, orthonormal_basis, space_dimension

STRESS_COMPONENTS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


@lru_cache(maxsize=None)
def stress_unit_tensors(dim: int) -> np.ndarray:
    """Unit symmetric tensors E_a matching the component storage order."""
    comps = STRESS_COMPONENTS[dim]
    E = np.zeros((len(comps), dim, dim))
    for a, (i, j) in enumerate(comps):
        E[a, i, j] = 1.0
        E[a, j, i] = 1.0
    E.setflags(write=False)
    return E


def tensor_from_components(comp_vals: np.ndarray, dim: int) -> np.ndarray:
    """(..., n_comp) component array to full symmetric (..., dim, dim) tensors."""
    E = stress_unit_tensors(dim)
    return np.einsum("...a,aij->...ij", comp_vals, E)


@dataclass(frozen=True)
class DofMap:
    """Cell-major layout: cell c owns dofs [c*cell_size, (c+1)*cell_size).

    Within a cell, the stress dofs come first, component-major over the scalar
    P_l basis, then the displacement dofs, component-major over P_k.  The
    stress_dofs and disp_dofs index arrays pick either field out of a global
    vector, in cell order.  Every size and count derives from the five fields.
    """

    cell_kind: str
    dim: int
    num_cells: int
    k: int
    l: int

    n_stress_comp = property(lambda self: self.dim * (self.dim + 1) // 2)
    m_k = property(lambda self: space_dimension(self.dim, self.k))
    m_l = property(lambda self: space_dimension(self.dim, self.l))
    stress_cell_size = property(lambda self: self.n_stress_comp * self.m_l)
    disp_cell_size = property(lambda self: self.dim * self.m_k)
    cell_size = property(lambda self: self.stress_cell_size + self.disp_cell_size)
    n_stress_dofs = property(lambda self: self.num_cells * self.stress_cell_size)
    n_disp_dofs = property(lambda self: self.num_cells * self.disp_cell_size)
    total_dofs = property(lambda self: self.num_cells * self.cell_size)

    @property
    def stress_dofs(self) -> np.ndarray:
        """Global indices of the stress dofs, cell by cell."""
        return self._by_cell()[:, :self.stress_cell_size].ravel()

    @property
    def disp_dofs(self) -> np.ndarray:
        """Global indices of the displacement dofs, cell by cell."""
        return self._by_cell()[:, self.stress_cell_size:].ravel()

    def _by_cell(self) -> np.ndarray:
        return np.arange(self.total_dofs).reshape(self.num_cells, self.cell_size)

    def stress_offset(self, cell: int) -> int:
        return cell * self.cell_size

    def disp_offset(self, cell: int) -> int:
        return cell * self.cell_size + self.stress_cell_size


def build_dofmap(mesh, k: int, l: int) -> DofMap:
    """Dof layout for displacement degree k and stress degree l on a mesh."""
    if k < 0 or l < 0:
        raise ValueError("degrees must be >= 0")
    if abs(k - l) > 1:
        raise ValueError(
            f"|k - l| = {abs(k - l)} > 1 breaks the strain/divergence inclusion "
            "conditions between the stress and displacement spaces"
        )
    return DofMap(cell_kind=mesh.cell_kind, dim=mesh.dim, num_cells=mesh.num_cells,
                  k=k, l=l)


@dataclass
class FieldCoeffs:
    """Coefficient vector over the full cell-major (stress, displacement) layout."""

    dofmap: DofMap
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.values is None:
            self.values = np.zeros(self.dofmap.total_dofs)
        if self.values.shape != (self.dofmap.total_dofs,):
            raise ValueError("coefficient vector has wrong length")

    def stress_block(self, cell: int) -> np.ndarray:
        """View of cell stress coefficients, shape (n_comp, m_l)."""
        return self.all_stress_blocks()[cell]

    def disp_block(self, cell: int) -> np.ndarray:
        """View of cell displacement coefficients, shape (dim, m_k)."""
        return self.all_disp_blocks()[cell]

    def all_stress_blocks(self) -> np.ndarray:
        """Writable view of every cell's stress coefficients, (cells, n_comp, m_l)."""
        dm = self.dofmap
        cells = self.values.reshape(dm.num_cells, dm.cell_size)
        return cells[:, :dm.stress_cell_size].reshape(dm.num_cells, dm.n_stress_comp, dm.m_l)

    def all_disp_blocks(self) -> np.ndarray:
        """Writable view of every cell's displacement coefficients, (cells, dim, m_k)."""
        dm = self.dofmap
        cells = self.values.reshape(dm.num_cells, dm.cell_size)
        return cells[:, dm.stress_cell_size:].reshape(dm.num_cells, dm.dim, dm.m_k)


def data_exactness(dofmap: DofMap) -> int:
    """Default quadrature degree for integrals involving manufactured data."""
    return 2 * max(dofmap.k, dofmap.l) + 8


def project_displacement(mesh, dofmap: DofMap, u_exact, exactness=None) -> FieldCoeffs:
    """Elementwise L2 projection Q_h of a vector field onto the displacement space.

    With the orthonormal reference basis the local mass matrix is |det J|
    times the identity, so coefficients are plain quadrature moments.
    """
    if exactness is None:
        exactness = data_exactness(dofmap)
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vk = orthonormal_basis(mesh.cell_kind, dofmap.k).eval(rule.points)
    coeffs = FieldCoeffs(dofmap)
    blocks = coeffs.all_disp_blocks()
    for c in range(mesh.num_cells):
        vals = np.asarray(u_exact(mesh.cell_points(c, rule.points)))
        # int_K u phi dx / det J = sum_q w_ref u(x_q) phi(x_q)
        blocks[c] = np.einsum("qd,q,mq->dm", vals, rule.weights, Vk)
    return coeffs


def project_stress(mesh, dofmap: DofMap, sigma_exact, exactness=None) -> FieldCoeffs:
    """Componentwise L2 projection P_h of a symmetric tensor field."""
    if exactness is None:
        exactness = data_exactness(dofmap)
    rule = cell_quadrature(mesh.cell_kind, exactness)
    Vl = orthonormal_basis(mesh.cell_kind, dofmap.l).eval(rule.points)
    comps = STRESS_COMPONENTS[dofmap.dim]

    sample = np.asarray(sigma_exact(mesh.cell_points(0, rule.points[:1])))
    if np.max(np.abs(sample - np.swapaxes(sample, -1, -2))) > 1e-10:
        raise ValueError("stress field is not symmetric")

    coeffs = FieldCoeffs(dofmap)
    blocks = coeffs.all_stress_blocks()
    for c in range(mesh.num_cells):
        vals = np.asarray(sigma_exact(mesh.cell_points(c, rule.points)))
        comp_vals = np.stack([vals[:, i, j] for (i, j) in comps], axis=-1)
        blocks[c] = np.einsum("qa,q,mq->am", comp_vals, rule.weights, Vl)
    return coeffs


def evaluate_field(coeffs: FieldCoeffs, cell: int, ref_points: np.ndarray):
    """Displacement vectors and full symmetric stress tensors at reference points."""
    dm = coeffs.dofmap
    pts = np.asarray(ref_points, dtype=float)
    Vk = orthonormal_basis(dm.cell_kind, dm.k).eval(pts)
    Vl = orthonormal_basis(dm.cell_kind, dm.l).eval(pts)
    u = coeffs.disp_block(cell) @ Vk                     # (dim, nq)
    sig_comp = coeffs.stress_block(cell) @ Vl            # (n_comp, nq)
    sigma = tensor_from_components(sig_comp.T, dm.dim)   # (nq, dim, dim)
    return u.T, sigma


def evaluate_displacement_gradient(coeffs: FieldCoeffs, mesh, cell: int, ref_points):
    """Physical gradient of the discrete displacement; shape (nq, dim, dim).

    Entry [q, i, j] is du_i/dx_j.
    """
    dm = coeffs.dofmap
    basis = orthonormal_basis(dm.cell_kind, dm.k)
    gref = basis.eval_grad(np.asarray(ref_points, dtype=float))
    gphys = np.einsum("mqr,rs->mqs", gref, mesh.jac_inv[cell])
    return np.einsum("im,mqs->qis", coeffs.disp_block(cell), gphys)
