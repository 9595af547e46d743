"""Degree-of-freedom layout and the prolongation between nested meshes.

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
import scipy.sparse as sp

from .mesh import all_cell_points, side_ref_coords
from .polybasis import cell_quadrature, orthonormal_basis, space_dimension

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
    # S: +1 on the stress and -1 on the displacement dofs
    signs = property(lambda self: np.where(
        np.arange(self.total_dofs) % self.cell_size < self.stress_cell_size, 1.0, -1.0))

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


def prolongation(mesh, dofmap: DofMap) -> sp.csr_matrix:
    """DG injection P from the spaces on mesh.coarse_level to dofmap's spaces.

    P maps coarse coefficients to the fine coefficients of the same piecewise
    polynomials.  Fine cell c has one block, at its parent, that maps each
    stress component over P_l and each displacement component over P_k on
    its own.  With orthonormal reference bases, entry (i, j) of the scalar
    block of a degree is the reference integral of fine basis i against
    coarse basis j, taken at the fine quadrature points mapped into the
    parent; the quadrature is exact, as a coarse polynomial keeps its degree
    on the child.
    """
    coarse, parent = mesh.coarse_level
    nc, dim = mesh.num_cells, mesh.dim

    def scalar_blocks(p):
        rule = cell_quadrature(mesh.cell_kind, 2 * p)
        basis = orthonormal_basis(mesh.cell_kind, p)
        ref = side_ref_coords(coarse, parent, all_cell_points(mesh, rule.points))
        coarse_vals = basis.eval(ref.reshape(-1, dim)).reshape(basis.size, nc, rule.size)
        return np.einsum("iq,q,jFq->Fij", basis.eval(rule.points), rule.weights, coarse_vals)

    s, d = dofmap.stress_cell_size, dofmap.disp_cell_size
    blocks = np.zeros((nc, s + d, s + d))
    blocks[:, :s, :s] = np.einsum("ab,Fij->Faibj", np.eye(dofmap.n_stress_comp),
                                  scalar_blocks(dofmap.l)).reshape(nc, s, s)
    blocks[:, s:, s:] = np.einsum("ab,Fij->Faibj", np.eye(dim),
                                  scalar_blocks(dofmap.k)).reshape(nc, d, d)
    shape = (dofmap.total_dofs, coarse.num_cells * (s + d))
    P = sp.bsr_matrix((blocks, parent, np.arange(nc + 1)), shape=shape).tocsr()
    P.eliminate_zeros()  # the blocks between different components
    return P
