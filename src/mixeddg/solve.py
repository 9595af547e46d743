"""Direct solution of the assembled saddle-point system."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .spaces import FieldCoeffs

# relative residual above which a solve is rejected
RESIDUAL_TOL = 1e-9


class SolverError(RuntimeError):
    """Raised when the saddle-point solve cannot be accepted."""


class SingularSystemError(SolverError):
    """Factorization failed: zeta <= 0 stabilization or a broken mesh."""


class ResidualToleranceError(SolverError):
    """Factorization succeeded but the residual gate failed."""

    def __init__(self, report):
        super().__init__(
            f"relative residual {report.relative_residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e}"
        )
        self.report = report


@dataclass(frozen=True)
class SolveReport:
    """Seconds in the factorization and in the solves plus residual check.

    factor_s covers the block ordering, the permuted copy of M and its LU
    factorization.

    factor_nnz is SuperLU.nnz, the stored factor entries; it is not
    L.nnz + U.nnz, which would copy the factors to count.
    """

    relative_residual: float
    factor_s: float
    solve_s: float
    factor_nnz: int


def _block_graph(M, dofmap):
    """(cell, field) node of each dof, and the node graph of M's stored entries.

    Cell c has a stress node 2c and a displacement node 2c + 1; the graph
    joins two nodes wherever M stores an entry between them, and its diagonal
    dominates so that SuperLU factors it without pivoting.
    """
    s, d = dofmap.stress_cell_size, dofmap.disp_cell_size
    node = np.empty(dofmap.total_dofs, np.int32)
    node[dofmap.stress_dofs] = 2 * (np.arange(dofmap.n_stress_dofs, dtype=np.int32) // s)
    node[dofmap.disp_dofs] = 2 * (np.arange(dofmap.n_disp_dofs, dtype=np.int32) // d) + 1
    rows = node[M.indices]
    cols = np.repeat(node, np.diff(M.indptr))
    new_edge = np.ones(len(rows), bool)  # drop entries that repeat the one before
    new_edge[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols = rows[new_edge], cols[new_edge]
    n_nodes = 2 * dofmap.num_cells
    graph = (sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_nodes, n_nodes))
             + len(rows) * sp.identity(n_nodes, format="csc"))
    return node, graph


def _stress_first_order(M, dofmap):
    """Dof order of M: minimum degree on its (cell, field) block graph.

    The order does not depend on which entries inside a block are stored.
    SuperLU's perm_c for the graph is each node's rank; within a cell the
    stress node takes the smaller of the cell's two ranks, since eliminating
    a displacement block before its own cell's stress block loses accuracy.
    """
    node, graph = _block_graph(M, dofmap)
    rank = splu(graph, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True}).perm_c
    rank = np.sort(rank.reshape(-1, 2), axis=1).ravel()
    return np.argsort(rank[node], kind="stable")


def solve_saddle(system):
    """Solve M x = b, M = [[Aa, Bb], [-Bb^T, Cc]] in cell-major order, by sparse LU.

    M is factored in the stress-first block order of _stress_first_order.
    Relative residuals above RESIDUAL_TOL, taken on the unpermuted M and b,
    raise; the system is never silently regularized.
    """
    M, b = system.M, system.b
    t0 = time.perf_counter()
    perm = _stress_first_order(M, system.dofmap)
    inv = np.empty(len(perm), np.int32)
    inv[perm] = np.arange(len(perm), dtype=np.int32)
    # relabel the rows on M's own arrays, then copy once by gathering columns
    Mp = sp.csc_matrix((M.data, inv[M.indices], M.indptr), shape=M.shape)[:, perm]
    Mp.sort_indices()
    try:
        # the block pattern is structurally symmetric; symmetric-mode SuperLU
        # with a relaxed diagonal pivot threshold cuts fill severalfold, and
        # the residual gate below catches any pivoting damage
        lu = splu(Mp, permc_spec="NATURAL",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    t1 = time.perf_counter()
    x = np.empty_like(b)
    x[perm] = lu.solve(b[perm])
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    norm_b = np.linalg.norm(b)
    resid = np.linalg.norm(M @ x - b) / (norm_b if norm_b > 0 else 1.0)
    report = SolveReport(
        relative_residual=float(resid),
        factor_s=t1 - t0,
        solve_s=time.perf_counter() - t1,
        factor_nnz=int(lu.nnz),
    )
    if resid > RESIDUAL_TOL:
        raise ResidualToleranceError(report)
    return FieldCoeffs(system.dofmap, x), report


def apply_operator(system, x: np.ndarray) -> np.ndarray:
    """y = M x with M = [[Aa, Bb], [-Bb^T, Cc]]."""
    dm = system.dofmap
    x = np.asarray(x, dtype=float)
    if x.shape != (dm.total_dofs,):
        raise ValueError(f"expected vector of length {dm.total_dofs}, got {x.shape}")
    return system.M @ x
