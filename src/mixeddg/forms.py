"""Bilinear forms of the mixed DG method and their assembly.

The discrete problem couples a stress block a(.,.), an off-diagonal strain /
trace block b(.,.), and a displacement jump penalty c(.,.):

    a(s, t) = int A s : t dx + int_{interior faces} C22 [s].[t] ds
    b(v, t) = -sum_K int eps(v) : t dx + int_{all faces} [[v]] : {t} ds
    c(u, v) = int_{all faces} C11 [[u]] : [[v]] ds
    F(v)    = int f . v dx

assembled into the saddle matrix M, which is [[Aa, Bb], [-Bb^T, Cc]] on
(stress; displacement) coefficients, and stored as the lower triangle L of the
symmetric S M = [[Aa, Bb], [Bb^T, -Cc]], S = +1 on the stress and -1 on the
displacement dofs.  The dofs are numbered cell by cell, so L has one dense
block per cell and face neighbour of a lower number, and a cell's own lower
triangle.  The face terms, the load and verify's error norms integrate in the batches of
face_batches and cell_batches, of at most BATCH_POINTS quadrature points each;
the terms add into their pairs' blocks in face order for any batch size, so L
is bit-identical for all.  The blocks are stored by column cell, its pairs
ordered by row cell and padded with zero blocks to a common count, so that a
transposed view is L's CSC order.  Chunk by chunk, the nonzeros of that view
move to the front of the same buffer, which then shrinks to L's data; only
L's int32 row indices are allocated beside the blocks.  Homogeneous Dirichlet
data enters only through the retained boundary-face terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import all_cell_points, face_quadrature, side_ref_coords
from .polybasis import cell_quadrature, orthonormal_basis, simplex_quadrature
from .solve import SCAN_ENTRIES, _expand, _reserve
from .spaces import DofMap, data_exactness, stress_unit_tensors

# quadrature points per batch of cells or faces in cell_batches and
# face_batches, whose callers hold a few arrays of that many points at a time
BATCH_POINTS = 1 << 14


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic Lame constants in stress units."""

    lam: float
    mu: float
    dim: int

    def __post_init__(self):
        # nan <= 0 is False: a NaN or infinite constant would pass to the solve
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf):
            raise ValueError("Lame constants must be positive and finite")

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


@dataclass(frozen=True)
class AssembledSystem:
    """The lower triangle L of S M as one canonical CSC matrix, and M x = b's b.

    L and b are in cell-major DofMap order; b holds the load moments at the
    displacement dofs and zeros at the stress dofs.  L stores the nonzero
    entries of S M's blocks of each cell with itself and with its face
    neighbours on and below the diagonal, so the neighbour stress-stress part
    is absent when C22 vanishes.  stab is the penalty family L was assembled
    with, from which solve_saddle picks its path.  The solver works on S M and
    S b throughout; the M property alone applies S to L + L^T - D, D the
    diagonal of L, expanding M on each access, exactly S-symmetric.  Aa, Bb
    and Cc expand M's blocks from L's.
    """

    L: sp.csc_matrix
    b: np.ndarray
    dofmap: DofMap
    stab: StabilizationParams

    M = property(lambda self: (sp.diags(self.dofmap.signs) @ _expand(self.L)).tocsc())
    Aa = property(lambda self: self._block(0, 0))
    Bb = property(lambda self: self._block(0, 1))
    Cc = property(lambda self: self._block(1, 1))

    def _block(self, i: int, j: int) -> sp.csc_matrix:
        # block (i, j) of S M from L's blocks (i, j) and (j, i), without expanding M
        dofs = (self.dofmap.stress_dofs, self.dofmap.disp_dofs)
        lower = self.L[dofs[i]][:, dofs[j]]
        block = lower + self.L[dofs[j]][:, dofs[i]].T
        block = block - sp.diags(lower.diagonal()) if i == j else block
        return (-block if i else block).tocsc()


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
    h = mesh.diameters
    val = h[plus] ** e1 / p ** e2
    if minus is not None:
        val = np.minimum(val, h[minus] ** e1 / p ** e2)
    return coef * val


def cell_batches(mesh, rule):
    """Consecutive batches of cells, of at most BATCH_POINTS points of `rule`
    unless one cell has more; yields (cells slice, physical points (n, nq, d))."""
    batch = max(1, BATCH_POINTS // rule.size)
    for start in range(0, mesh.num_cells, batch):
        cells = slice(start, min(start + batch, mesh.num_cells))
        yield cells, all_cell_points(mesh, rule.points, cells)


def face_batches(mesh, topo, dofmap: DofMap, stab: StabilizationParams, exactness: int):
    """Consecutive batches of the interior faces, then of the boundary faces,
    of at most BATCH_POINTS quadrature points unless one face has more.

    Yields (faces, x, w, c11, c22, sides): the slice of topo's faces, their
    physical points (nf, nq, d) and weights (nf, nq), the penalties, with c22
    None where there is no C22 term (on boundary faces, and when it vanishes),
    and for the plus and, on interior faces, the minus side a tuple (cells,
    sign, P_k traces, P_l traces), the traces being the bases at the points
    mapped into the side's cells, (m, nf, nq) each.
    """
    bases = [orthonormal_basis(mesh.cell_kind, p) for p in (dofmap.k, dofmap.l)]
    batch = max(1, BATCH_POINTS // simplex_quadrature(mesh.dim - 1, exactness).size)
    for group in (topo.interior, topo.boundary):
        for start in range(group.start, group.stop, batch):
            faces = slice(start, min(start + batch, group.stop))
            x, w = face_quadrature(mesh, topo, faces, exactness)
            plus = topo.plus[faces]
            minus = topo.minus[faces] if group == topo.interior else None
            c22 = (None if minus is None or stab.c22_zero
                   else penalty_values(mesh, dofmap, stab, "c22", plus, minus))
            sides = []
            for cells, sign in [(plus, 1.0), (minus, -1.0)][:1 if minus is None else 2]:
                ref = side_ref_coords(mesh, cells, x).reshape(-1, mesh.dim)
                sides.append((cells, sign, *(basis.eval(ref).reshape((basis.size,) + w.shape)
                                             for basis in bases)))
            yield faces, x, w, penalty_values(mesh, dofmap, stab, "c11", plus, minus), c22, sides


def assemble_system(mesh, topo, dofmap: DofMap, mat: MaterialParams,
                    stab: StabilizationParams, f) -> AssembledSystem:
    """Assemble a, b, c into L, the lower triangle of S M, and the load into b.

    Discrete-discrete integrals use quadrature exact to 2*max(k,l)+2; the
    load integral uses the manufactured-data exactness.  L's data is the
    compacted front of the padded float64 blocks, so assembly peaks at the
    blocks, L's int32 indices and one chunk's scratch.  FactorMemoryError is
    raised before the padded blocks (8 bytes an entry), or L's indices (4
    bytes a nonzero), would not fit.
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
    lo, hi = np.sort([topo.plus[topo.interior], topo.minus[topo.interior]], axis=0)

    # a dense block per cell pair whose row cell is at or after its column cell,
    # (column cell, rank, local column, local row), where rank orders a column
    # cell's pairs by their row cells, padded with zero blocks to the same number
    # of ranks for every column cell, so that rank 0 is the own pair; slot
    # numbers the own pairs, then each face's pair
    keys, slot = np.unique(np.concatenate([np.arange(nc) * (nc + 1), lo * nc + hi]),
                           return_inverse=True)
    pair_row, pair_col = keys % nc, keys // nc
    pair_rank = np.arange(len(keys)) - np.searchsorted(pair_col, pair_col)
    ranks = pair_rank.max() + 1
    slot = (pair_col * ranks + pair_rank)[slot]
    _reserve("the assembly", nc * ranks * size * size * 8)  # the padded blocks
    blocks = np.zeros((nc * ranks, size, size))
    stress, disp = slice(None, s_size), slice(s_size, None)

    # volume terms, batched over cells
    rule = cell_quadrature(mesh.cell_kind, matrix_exactness)
    w = rule.weights
    Vl = basis_l.eval(rule.points)
    Gk = basis_k.eval_grad(rule.points)

    M_ref = np.einsum("iq,q,jq->ij", Vl, w, Vl)
    kron = np.kron(A_comp, M_ref)
    T_ref = np.einsum("iq,q,jqr->ijr", Vl, w, Gk)
    blocks[slot[:nc], stress, stress] = detj[:, None, None] * kron.T[None, :, :]
    blocks[slot[:nc], stress, disp] = -np.einsum("acm,ijr,Frm,F->Faicj", E, T_ref, mesh.jac_inv,
                                                 detj).reshape(nc, s_size, d_size)

    # face terms, in face_batches.  A neighbour pair's block holds one term; a
    # cell's own block adds its terms in face order, one round of distinct cells
    # at a time.  Faces come in first-encounter order, so a cell's minus faces
    # precede its plus faces: each batch adds its minus side first.  S negates the
    # displacement rows, so the C11 terms enter negated
    for faces, x, wq, c11, c22, sides in face_batches(mesh, topo, dofmap, stab,
                                                      matrix_exactness):
        n = topo.normals[faces]
        En = np.einsum("aij,Fj->Fai", E, n)
        Q = 0.5 * (np.eye(d)[None, :, :] + n[:, :, None] * n[:, None, :])
        if c22 is not None:
            R = np.einsum("Fai,Fbi->Fab", En, En)
        rounds = []
        for own, *_ in sides:
            by_cell = np.argsort(own, kind="stable")
            rank = np.arange(len(own)) - np.searchsorted(own[by_cell], own[by_cell])
            rounds.append([by_cell[rank == r] for r in range(rank.max() + 1)])

        def add(i, j, on, rows, cols, part):
            if i != j:  # on the faces `on`, side i's cell is the row cell
                blocks[slot[nc:][faces][on], rows, cols] = part
            else:
                for faces_r in rounds[i]:
                    blocks[slot[sides[i][0][faces_r]], rows, cols] += part[faces_r]

        for i, j in [(1, 1), (0, 1), (1, 0), (0, 0)] if len(sides) == 2 else [(0, 0)]:
            (cells_i, sign_i, Vk_i, Vl_i), (cells_j, sign_j, Vk_j, Vl_j) = sides[i], sides[j]
            # a neighbour pair's block is stored where side i's cell is after side j's
            on = slice(None) if i == j else cells_i > cells_j
            Mk = np.einsum("iFq,Fq,jFq->Fij", Vk_i[:, on], wq[on], Vk_j[:, on])
            add(i, j, on, disp, disp, np.einsum(
                "F,Fcd,Fjk->Fdkcj", c11[on] * -(sign_i * sign_j), Q[on], Mk
            ).reshape(-1, d_size, d_size))

            if c22 is not None:
                Ml = np.einsum("iFq,Fq,jFq->Fij", Vl_i[:, on], wq[on], Vl_j[:, on])
                add(i, j, on, stress, stress, np.einsum(
                    "F,Fab,Fik->Fbkai", c22[on] * (sign_i * sign_j), R[on], Ml
                ).reshape(-1, s_size, s_size))

            # b with stress tests on side i and displacements on side j,
            # transposed; b^T is the lower left of block (j, i) of S M, and
            # of a cell's own block the only half stored
            Mlk = np.einsum("iFq,Fq,jFq->Fij", Vl_i, wq, Vk_j)
            blk_bt = (sign_j / len(sides)) * np.einsum(
                "Fac,Fij->Fcjai", En, Mlk).reshape(-1, d_size, s_size)
            if i != j:
                add(i, j, on, disp, stress, blk_bt[on])
                on = ~on
            add(j, i, on, stress, disp, blk_bt[on].transpose(0, 2, 1))
            del blk_bt  # before the next pair's parts

    # of a cell's own block, only the lower triangle is stored
    blocks[::ranks][:, np.tril(np.ones((size, size), bool), -1)] = 0.0

    # read as (column cell, local column, rank, local row), the blocks are L's
    # CSC arrays with the exact zeros, the padding and, when C22 = 0, the
    # neighbour stress-stress blocks among them.  Count each column's nonzeros
    # over chunks of whole column cells, then move each chunk's nonzeros to the
    # front of the same buffer: the running offset never passes the chunk's
    # start.  A chunk holds at most SCAN_ENTRIES padded entries and a sixteenth
    # of the cells, so that its scratch stays small beside the blocks
    by_col = blocks.reshape(nc, ranks, size, size).transpose(0, 2, 1, 3)
    step = max(1, min(SCAN_ENTRIES // (ranks * size * size), nc // 16))
    chunks = [slice(c, min(c + step, nc)) for c in range(0, nc, step)]
    n = dofmap.total_dofs
    indptr = np.zeros(n + 1, np.int32)
    np.cumsum(np.concatenate([(by_col[c] != 0.0).sum(axis=(2, 3)).ravel() for c in chunks]),
              out=indptr[1:])
    nnz = int(indptr[-1])
    _reserve("the assembly", 4 * nnz)  # L's int32 indices; its data stays in the blocks
    indices = np.empty(nnz, np.int32)
    row_cell = np.zeros((nc, 1, ranks, 1), np.int32)
    row_cell[pair_col, 0, pair_rank, 0] = pair_row
    local_row = np.arange(size, dtype=np.int32)
    flat = blocks.reshape(-1)
    for c in chunks:
        keep = by_col[c] != 0.0
        start, stop = indptr[c.start * size], indptr[c.stop * size]
        flat[start:stop] = by_col[c][keep]
        indices[start:stop] = np.broadcast_to(row_cell[c] * size + local_row, keep.shape)[keep]
    # no view of the blocks is left, so realloc may shrink them to L's data
    del by_col, flat
    blocks.resize(nnz, refcheck=False)
    L = sp.csc_matrix((blocks, indices, indptr), shape=(n, n))

    # load vector, in cell_batches at data exactness, after the blocks are compacted
    rule_f = cell_quadrature(mesh.cell_kind, data_exactness(dofmap))
    Vk_f = basis_k.eval(rule_f.points)
    b = np.zeros(n)
    b_disp = b.reshape(nc, size)[:, s_size:]
    for cells, phys in cell_batches(mesh, rule_f):
        fx = np.asarray(f(phys.reshape(-1, d))).reshape(phys.shape)
        b_disp[cells] = np.einsum("Fqc,q,jq,F->Fcj", fx, rule_f.weights, Vk_f,
                                  detj[cells]).reshape(-1, d_size)
    return AssembledSystem(L=L, b=b, dofmap=dofmap, stab=stab)
