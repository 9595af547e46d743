"""Solution of the assembled saddle-point system.

Sparse LU solves every system, except the levels that have a coarse level,
C22 != 0 and at least KRYLOV_MIN_DOFS dofs, and that in 2D also have the
penalties C11 ~ 1/h and C22 ~ h: flexible GMRES, right-preconditioned by a
float32 multilevel cycle over the nested meshes, solves those.  (With
C22 = 0, and in 2D with any other penalty scaling, the cycle was measured not
to beat the direct solve.)  The cycle is linear only to float32 roundoff,
which plain GMRES does not allow; flexible GMRES keeps each preconditioned
vector instead.  It restarts from its iterate whenever the true residual
misses KRYLOV_TOL, and falls back to LU when KRYLOV_MAX_ITERATIONS cycle
applications, summed over the restarts, do not reach it, or when M leaves
float32's normal range.  The LU is float32, refined in float64 to KRYLOV_TOL,
or float64 where that fails; the multilevel cycle's coarsest LU is float32.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .spaces import FieldCoeffs, build_dofmap, prolongation

# relative residual above which a solve is rejected
RESIDUAL_TOL = 1e-9

# true relative residual at which GMRES stops, far under RESIDUAL_TOL so that
# the printed errors match the direct solve's
KRYLOV_TOL = 1e-12
# cycle applications after which GMRES gives up and LU takes over
KRYLOV_MAX_ITERATIONS = 100
# dofs from which GMRES beats the direct solve
KRYLOV_MIN_DOFS = 10_000
# damping of the cell-block Jacobi smoother
SMOOTHER_DAMPING = 0.7
# stored entries of M scanned at a time for the smoother's cell blocks
SCAN_ENTRIES = 1 << 18


class SolverError(RuntimeError):
    """Raised when the saddle-point solve cannot be accepted."""


class SingularSystemError(SolverError):
    """Factorization failed: zeta <= 0 stabilization or a broken mesh."""


class FactorMemoryError(SolverError):
    """SuperLU ran out of memory."""


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
    """Seconds in the set-up and in the solve plus residual check.

    On the direct path factor_s covers the block ordering, the permuted copy
    of M and its LU, solve_s the refinement, factor_nnz is the float32 LU's
    (the float64 one's after a fallback), iterations is 0 and levels 1.  On
    the GMRES path factor_s is the preconditioner's set-up, solve_s the
    iterations, factor_nnz the coarsest level's float32 LU's, iterations the
    cycle's applications on the fine grid, summed over GMRES's restarts, and
    levels the number of grids in the cycle, the level's own included.  A
    fallback from GMRES reports the direct path, its time in factor_s.

    factor_nnz is SuperLU.nnz, the stored factor entries; it is not
    L.nnz + U.nnz, which would copy the factors to count.
    """

    relative_residual: float
    factor_s: float
    solve_s: float
    factor_nnz: int
    iterations: int = 0
    levels: int = 1


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


def _factor(M, dofmap, dtype=np.float64):
    """LU of M in dtype, in the stress-first block order: (float64 solve, factor nnz)."""
    perm = _stress_first_order(M, dofmap)
    inv = np.empty(len(perm), np.int32)
    inv[perm] = np.arange(len(perm), dtype=np.int32)
    # cast (FloatingPointError out of dtype's normal range), relabel, gather columns
    with np.errstate(over="raise", under="raise"):
        Mp = sp.csc_matrix((M.data.astype(dtype), inv[M.indices], M.indptr),
                           shape=M.shape)[:, perm]
    Mp.sort_indices()
    try:
        # the block pattern is structurally symmetric; symmetric-mode SuperLU
        # with a relaxed diagonal pivot threshold cuts fill severalfold, and
        # the residual gate catches any pivoting damage
        lu = splu(Mp, permc_spec="NATURAL",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    except (MemoryError, SystemError) as exc:
        # SuperLU reports running out of memory as invalid arguments
        raise FactorMemoryError("sparse LU factorization ran out of memory") from exc
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm].astype(dtype, copy=False))
        return x

    return solve, int(lu.nnz)


def _refine(M, b, lu_solve):
    """x by float64 refinement on a float32 LU, or None if it misses KRYLOV_TOL.

    Refinement stops when the true residual no longer halves, or when the
    next correction, extrapolated from the last two by their ratio, would
    fall under float64's resolution of x.
    """
    x, r = np.zeros_like(b), b
    norm_b = norm_r = np.linalg.norm(b)
    norm_d = 0.0
    for _ in range(KRYLOV_MAX_ITERATIONS if norm_b > 0 else 0):
        d = norm_r * lu_solve(r / norm_r)  # at unit norm the cast stays in range
        x += d
        r = b - M @ x
        last, norm_r = norm_r, np.linalg.norm(r)
        last_d, norm_d = norm_d, np.linalg.norm(d)
        if not 0 < norm_r <= 0.5 * last:  # the true residual no longer halves
            break
        if norm_d ** 2 <= np.finfo(float).eps * np.linalg.norm(x) * last_d:
            break
    return x if norm_r <= KRYLOV_TOL * norm_b else None


def _cell_blocks(M, dofmap):
    """Each cell's own dense diagonal block of M, (cells, cell size, cell size).

    M's columns are scanned a chunk of whole cells at a time, of about
    SCAN_ENTRIES stored entries, so that the index arrays stay that small.
    """
    size = dofmap.cell_size
    D = np.zeros((dofmap.num_cells, size, size))
    chunk = max(1, SCAN_ENTRIES * dofmap.num_cells // M.nnz) * size
    for start in range(0, M.shape[1], chunk):
        stop = min(start + chunk, M.shape[1])
        lo, hi = M.indptr[start], M.indptr[stop]
        col = np.repeat(np.arange(start, stop, dtype=M.indices.dtype),
                        np.diff(M.indptr[start:stop + 1]))
        row = M.indices[lo:hi]
        own = row // size == col // size
        row, col = row[own], col[own]
        D[col // size, row % size, col % size] = M.data[lo:hi][own]
    return D


def _recurses(dofmap, mesh):
    """Whether the level takes a cycle of its own: big enough, with a coarse level."""
    return dofmap.total_dofs >= KRYLOV_MIN_DOFS and mesh.coarse_level is not None


def _single_operator(M, dofmap):
    """v -> M v in float32, over M's own index arrays.

    M's CSC arrays read as CSR hold M^T, and since Aa and Cc are symmetric,
    M = S M^T S with S = +1 on the stress and -1 on the displacement dofs.
    The float32 data is the one new array of M's size; the CSR product is
    also faster than the CSC one.  Raises FloatingPointError out of float32's
    normal range.
    """
    sign = np.ones(M.shape[0], np.float32)
    sign[dofmap.disp_dofs] = -1.0
    with np.errstate(over="raise", under="raise"):
        MT = sp.csr_matrix((M.data.astype(np.float32), M.indices, M.indptr), shape=M.shape)
    return lambda x: sign * (MT @ (sign * x))


def _multilevel(M, dofmap, mesh):
    """One float32 multilevel cycle as a preconditioner for M: (cycle, nnz, grids).

    Two damped cell-block Jacobi sweeps, whose blocks are the cells' own
    diagonal blocks of M (a Vanka-type smoother), inverted in float64; a
    coarse correction by the Galerkin operator P^T M P of the prolongation P
    from mesh.coarse_level; then two more sweeps.  The correction applies the
    coarse level's own cycle to P^T M P when _recurses holds for that level,
    and otherwise a float32 _factor of P^T M P.  The cycle maps float32 to
    float32; M enters it through _single_operator.  nnz is the coarsest LU's,
    and grids counts the levels down to it.  Raises FloatingPointError out of
    float32's normal range.
    """
    # the float64 cell blocks and their inverses live before any coarse data
    with np.errstate(over="raise", under="raise"):
        D_inv = np.linalg.inv(_cell_blocks(M, dofmap)).astype(np.float32)
    matvec = _single_operator(M, dofmap)
    size = dofmap.cell_size
    P = prolongation(mesh, dofmap)
    coarse_mesh = mesh.coarse_level[0]
    coarse = build_dofmap(coarse_mesh, dofmap.k, dofmap.l)
    M_coarse = (P.T @ (M @ P)).tocsc()
    if _recurses(coarse, coarse_mesh):
        coarse_solve, nnz, grids = _multilevel(M_coarse, coarse, coarse_mesh)
    else:
        (coarse_solve, nnz), grids = _factor(M_coarse, coarse, np.float32), 1
    with np.errstate(over="raise", under="raise"):
        P = P.astype(np.float32)
    PT = P.T.tocsr()

    def jacobi(r):
        return SMOOTHER_DAMPING * (D_inv @ r.reshape(-1, size, 1)).ravel()

    def cycle(r):
        x = jacobi(r)
        x += jacobi(r - matvec(x))
        x += P @ coarse_solve(PT @ (r - matvec(x)))
        x += jacobi(r - matvec(x))
        x += jacobi(r - matvec(x))
        return x

    return cycle, nnz, grids + 1


def _arnoldi_cycle(M, r, precondition, steps, tol):
    """One cycle of flexible GMRES on M dx = r: (dx, applications).

    The float64 Arnoldi basis V is built by classical Gram-Schmidt, done
    twice, on the products M z_j of the preconditioned vectors
    z_j = precondition(v_j).  They are kept in float32, as precondition may
    change from step to step.  The cycle ends when the least-squares
    estimate of ||r - M dx|| passes tol, or after steps applications of
    precondition; dx = Z y is summed in float64.
    """
    V = np.empty((steps + 1, len(r)))  # rows take memory only when written
    Z = np.empty((steps, len(r)), np.float32)
    H = np.zeros((steps + 1, steps))
    g = np.zeros(steps + 1)
    g[0] = np.linalg.norm(r)
    V[0] = r / g[0]
    for j in range(steps):
        Z[j] = precondition(V[j].astype(np.float32))
        w = M @ Z[j]
        h = V[:j + 1] @ w
        w -= V[:j + 1].T @ h
        again = V[:j + 1] @ w
        w -= V[:j + 1].T @ again
        H[:j + 1, j] = h + again
        H[j + 1, j] = np.linalg.norm(w)
        y = np.linalg.lstsq(H[:j + 2, :j + 1], g[:j + 2], rcond=None)[0]
        if H[j + 1, j] == 0 or np.linalg.norm(g[:j + 2] - H[:j + 2, :j + 1] @ y) <= tol:
            break
        V[j + 1] = w / H[j + 1, j]
    dx = np.zeros_like(r)
    for y_i, z_i in zip(y, Z):
        dx += y_i * z_i
    return dx, j + 1


def _fgmres(M, b, precondition):
    """Flexible GMRES from x = 0, right-preconditioned: (x, applications).

    An _arnoldi_cycle's estimate can pass KRYLOV_TOL while the true residual
    b - M x does not; a new cycle then starts from x with the steps left.
    KRYLOV_MAX_ITERATIONS caps the applications of precondition over all
    cycles; x is None when they run out above the tolerance.
    """
    tol = KRYLOV_TOL * np.linalg.norm(b)
    x, r, applications = np.zeros_like(b), b, 0
    while np.linalg.norm(r) > tol:
        if applications == KRYLOV_MAX_ITERATIONS:
            return None, applications
        dx, steps = _arnoldi_cycle(M, r, precondition, KRYLOV_MAX_ITERATIONS - applications, tol)
        x += dx
        applications += steps
        r = b - M @ x
    return x, applications


def solve_saddle(system, mesh=None):
    """Solve M x = b, M = [[Aa, Bb], [-Bb^T, Cc]] in cell-major order.

    mesh is the mesh the system was assembled on; without it, or off the
    GMRES cases in the module docstring, M is factored by sparse LU in the
    stress-first block order of _stress_first_order, in the precisions of the
    module docstring.  The penalties are read from system.stab.  Relative
    residuals above RESIDUAL_TOL, taken on M and b, raise on either path; the
    system is never silently regularized.
    """
    M, b, dofmap, stab = system.M, system.b, system.dofmap, system.stab
    t0 = time.perf_counter()
    x = None
    h_scaled = stab.alpha1 == -1.0 and stab.beta1 == 1.0  # C11 ~ 1/h, C22 ~ h
    if (mesh is not None and not stab.c22_zero and (mesh.dim == 3 or h_scaled)
            and _recurses(dofmap, mesh)):
        with contextlib.suppress(FloatingPointError, SingularSystemError):
            precondition, nnz, levels = _multilevel(M, dofmap, mesh)
            t1 = time.perf_counter()
            x, iterations = _fgmres(M, b, precondition)
    if x is None:
        iterations, levels = 0, 1
        with contextlib.suppress(FloatingPointError, SingularSystemError):
            lu_solve, nnz = _factor(M, dofmap, np.float32)
            t1 = time.perf_counter()
            x = _refine(M, b, lu_solve)
    if x is None:
        lu_solve, nnz = _factor(M, dofmap)
        t1 = time.perf_counter()
        x = lu_solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    norm_b = np.linalg.norm(b)
    resid = np.linalg.norm(M @ x - b) / (norm_b if norm_b > 0 else 1.0)
    report = SolveReport(relative_residual=float(resid), factor_s=t1 - t0,
                         solve_s=time.perf_counter() - t1, factor_nnz=nnz,
                         iterations=iterations, levels=levels)
    if resid > RESIDUAL_TOL:
        raise ResidualToleranceError(report)
    return FieldCoeffs(dofmap, x), report
