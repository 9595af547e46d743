"""Solution of the assembled saddle-point system.

Of M the system holds only L, the lower triangle of the symmetric S M, S = +1
on the stress and -1 on the displacement dofs.  Every path solves S M x = S b,
whose x and residual norms are M x = b's as negation is exact: _operator
applies S M over L's own arrays, and sparse LU factors _expand's S M.

Each solve is float64 iterative refinement on a low-precision inner solver,
_refine (Carson & Higham, SIAM J. Sci. Comput. 40, 2018).  Levels with a
coarse level, C22 != 0 and at least KRYLOV_MIN_DOFS dofs, and in 2D the
penalties C11 ~ 1/h and C22 ~ h, refine to KRYLOV_TOL on restarted flexible
GMRES, FGMRES(m) for m = KRYLOV_RESTART (Saad, SIAM J. Sci. Comput. 14,
1993): each step one cycle from the true residual, right-preconditioned by
a float32 multilevel cycle over the nested meshes; x stands at RESIDUAL_TOL.
(With C22 = 0, and in 2D with any other penalty scaling, the cycle was
measured not to beat the direct solve.)  The cycle is linear only to float32
roundoff, which plain GMRES does not allow; flexible GMRES keeps each
preconditioned vector instead.  Elsewhere, after KRYLOV_MAX_ITERATIONS cycle
applications over all restarts, or when L leaves float32's normal range,
the inner solver is a float32 factor of S M, refined to float64's floor, and
x stands at KRYLOV_TOL; where it misses, a float64 factor solves for x.
The direct factor is a dense block Cholesky of the quasi-definite S M when
n^2 <= DENSE_MAX_RATIO * nnz(M), else sparse LU.  Two checks set bytes
against _available_memory before anything is built, and raise
FactorMemoryError at once where they do not fit: the GMRES path's fine
level, a known sum as m is fixed, and each direct factor, exactly when dense
and from the block graph's own factor for sparse LU.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_blas_funcs, get_lapack_funcs
from scipy.sparse.linalg import LinearOperator, splu

from .spaces import FieldCoeffs, build_dofmap, prolongation

# relative residual above which a solve is rejected
RESIDUAL_TOL = 1e-9

# true relative residual at which GMRES stops, far under RESIDUAL_TOL so that
# the printed errors match the direct solve's
KRYLOV_TOL = 1e-12
# cycle applications after which GMRES gives up and the direct solve takes over
KRYLOV_MAX_ITERATIONS = 100
# Arnoldi steps after which flexible GMRES restarts from the true residual
KRYLOV_RESTART = 10
# dofs from which GMRES beats the direct solve
KRYLOV_MIN_DOFS = 10_000
# n^2 / nnz(M) up to which the direct solve factors S M as a dense matrix
DENSE_MAX_RATIO = 6
# damping of the cell-block Jacobi smoother
SMOOTHER_DAMPING = 0.7
# four times the entries of L that _entries yields at a time, for the smoother's
# cell blocks and the dense factor, and padded entries the assembly compacts at a time
SCAN_ENTRIES = 1 << 18


class SolverError(RuntimeError):
    """Raised when the saddle-point solve cannot be accepted."""


class SingularSystemError(SolverError):
    """Factorization failed: zeta <= 0 stabilization or a broken mesh."""


class FactorMemoryError(SolverError):
    """A factorization ran out of memory, or an assembly, factor or cycle
    would not fit."""


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

    factor_s covers the set-up of the inner solver that gave x: the
    multilevel cycle, or the direct factor with the block ordering and the
    permuted copy of S M for sparse LU; after a fallback from the cycle it
    includes the cycle's time.  solve_s covers _refine, or the float64 solve.
    factor_nnz is the direct factor's, float32 or after a miss float64, or
    the cycle's coarsest float32 factor's.  iterations counts the fine
    grid's cycle applications, summed over restarts, and levels the grids in
    the cycle, the level's own included; on the direct path they are 0 and 1.

    factor_nnz counts stored entries: SuperLU.nnz (L.nnz + U.nnz would copy
    the factors to count), or when dense L and L2's lower triangles and W.
    """

    relative_residual: float
    factor_s: float
    solve_s: float
    factor_nnz: int
    iterations: int = 0
    levels: int = 1


def _expand(L, dtype=np.float64):
    """S M = L + L^T - D, D the diagonal of L, as a canonical CSC matrix in dtype."""
    L = L.astype(dtype, copy=False)
    return (L + L.T - sp.diags(L.diagonal())).tocsc()


def _operator(L, dtype=np.float64):
    """S M as a LinearOperator in dtype, L v + L^T v - D v: L's CSC arrays read as
    CSR hold L^T, so the one new array is L's data in float32, half of M's.
    Raises FloatingPointError out of float32's normal range."""
    with np.errstate(over="raise", under="raise"):
        data = L.data.astype(dtype, copy=False)
    lower = sp.csc_matrix((data, L.indices, L.indptr), shape=L.shape)
    upper = sp.csr_matrix((data, L.indices, L.indptr), shape=L.shape)
    diag = lower.diagonal()

    def matvec(v):  # in place, two temporaries fewer than one expression
        y = lower @ v
        y += upper @ v
        y -= diag * v
        return y

    return LinearOperator(L.shape, matvec, dtype=dtype)


def _block_graph(L, dofmap):
    """(cell, field) node of each dof, and the node graph of M's stored entries.

    Cell c has a stress node 2c and a displacement node 2c + 1; the graph
    joins two nodes wherever L, or L^T, stores an entry between them, and its
    diagonal dominates so that SuperLU factors it without pivoting.
    """
    s, d = dofmap.stress_cell_size, dofmap.disp_cell_size
    node = np.empty(dofmap.total_dofs, np.int32)
    node[dofmap.stress_dofs] = 2 * (np.arange(dofmap.n_stress_dofs, dtype=np.int32) // s)
    node[dofmap.disp_dofs] = 2 * (np.arange(dofmap.n_disp_dofs, dtype=np.int32) // d) + 1
    rows = node[L.indices]
    cols = np.repeat(node, np.diff(L.indptr))
    new_edge = np.ones(len(rows), bool)  # drop entries that repeat the one before
    new_edge[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols = (np.concatenate([rows[new_edge], cols[new_edge]]),
                  np.concatenate([cols[new_edge], rows[new_edge]]))
    n_nodes = 2 * dofmap.num_cells
    graph = (sp.csc_matrix((np.ones(len(rows)), (rows, cols)), shape=(n_nodes, n_nodes))
             + len(rows) * sp.identity(n_nodes, format="csc"))
    return node, graph


def _stress_first_order(L, dofmap):
    """Dof order of M, and the predicted stored entries of its factor.

    The order is minimum degree on M's (cell, field) block graph, and does
    not depend on which entries inside a block are stored.  SuperLU's perm_c
    for the graph is each node's rank (perm_r is the same); within a cell the
    stress node takes the smaller of the cell's two ranks, since eliminating
    a displacement block before its own cell's stress block loses accuracy.
    Each entry of the graph's L and U stands for a block of M's factor, of
    row node by column node size; diagonal blocks, stored in both, count once.
    """
    node, graph = _block_graph(L, dofmap)
    lu = splu(graph, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    # node size at each position of the graph's factor
    size = np.array([dofmap.stress_cell_size, dofmap.disp_cell_size])[np.argsort(lu.perm_c) % 2]
    entries = sum(int(size[F.indices] @ np.repeat(size, np.diff(F.indptr)))
                  for F in (lu.L, lu.U)) - int(size @ size)
    rank = np.sort(lu.perm_c.reshape(-1, 2), axis=1).ravel()
    return np.argsort(rank[node], kind="stable"), entries


def _available_memory():
    """The smaller of MemAvailable and, under a finite soft RLIMIT_AS (ulimit
    -v), the limit less the address space mapped: bytes, or None if unread."""
    free = []
    with contextlib.suppress(OSError, ValueError, StopIteration), open("/proc/meminfo") as info:
        line = next(line for line in info if line.startswith("MemAvailable:"))
        free.append(1024 * int(line.split()[1]))
    limit = resource.getrlimit(resource.RLIMIT_AS)[0]
    if limit != resource.RLIM_INFINITY:
        with contextlib.suppress(OSError, ValueError), open("/proc/self/statm") as statm:
            free.append(limit - int(statm.read().split()[0]) * resource.getpagesize())
    return min(free, default=None)


def _reserve(what, need):
    """Raise FactorMemoryError when need bytes exceed _available_memory()."""
    free = _available_memory()
    if free is not None and need > free:
        raise FactorMemoryError(f"out of memory: {what} needs {need:,} bytes, {free:,} available")


def _entries(L):
    """L's stored entries as (rows, columns, values), one run of whole columns
    at a time: each run holds at most SCAN_ENTRIES // 4 entries, or one column,
    so that the few index arrays a caller derives from it stay that small."""
    indptr, start, most = L.indptr, 0, SCAN_ENTRIES // 4
    while start < L.shape[1]:
        stop = max(start + 1, np.searchsorted(indptr, indptr[start] + most, "right") - 1)
        lo, hi = indptr[start], indptr[stop]
        yield (L.indices[lo:hi], np.repeat(np.arange(start, stop, dtype=L.indices.dtype),
                                           np.diff(indptr[start:stop + 1])), L.data[lo:hi])
        start = stop


def _dense_blocks(L, dofmap, dtype):
    """A's lower triangle, B, and C's lower triangle of S M = [[A, B], [B^T, -C]]
    in dtype, Fortran-ordered views of one buffer scattered from _entries(L):
    L's stress rows of stress columns are A's, displacement rows of stress
    columns B^T, stress rows of displacement columns B, and the rest -C."""
    n, ns, nu = L.shape[0], dofmap.n_stress_dofs, dofmap.n_disp_dofs
    s, size = dofmap.stress_cell_size, dofmap.cell_size
    flat = np.zeros(ns * ns + ns * nu + nu * nu, dtype)
    A, B, C = (flat[lo:lo + r * c].reshape((r, c), order="F")
               for lo, r, c in ((0, ns, ns), (ns * ns, ns, nu), (ns * (ns + nu), nu, nu)))
    # each dof's index among its field's; an entry's place in flat is
    # at[row + n * (column is stress)] + by[column + n * (row is stress)]
    cell, local = np.divmod(np.arange(n), size)
    stress = local < s
    index = np.where(stress, cell * s + local, cell * (size - s) + local - s)
    at = np.where(stress, [ns * ns + index, index],
                  [ns * (ns + nu) + index, ns * ns + ns * index]).ravel()
    by = np.where(stress, [index, ns * index], [nu * index, ns * index]).ravel()
    half = n * stress
    for row, col, value in _entries(L):
        flat[at[half[col] + row] + by[half[row] + col]] = value.astype(dtype, copy=False)
    np.subtract(0.0, C, out=C)  # 0 - x leaves no -0.0 where L stores no entry
    return A, B, C


def _dense_factor(L, dofmap, dtype):
    """Block Cholesky of S M = [[A, B], [B^T, -C]] in dtype: (solve, factor entries).

    S M is symmetric quasi-definite, so A = L L^T and C + W^T W = L2 L2^T,
    W = L^-1 B, need no pivoting.  A, B and C come from _dense_blocks; solve
    takes S b.
    """
    A, B, C = _dense_blocks(L, dofmap, dtype)
    (ns, nu), stress, disp = B.shape, dofmap.stress_dofs, dofmap.disp_dofs
    potrf = get_lapack_funcs("potrf", dtype=dtype)
    trsm, syrk, trsv, gemv = get_blas_funcs(("trsm", "syrk", "trsv", "gemv"), dtype=dtype)
    L, info = potrf(A, lower=1, clean=0, overwrite_a=1)
    W = trsm(1.0, L, B, lower=1, overwrite_b=1)
    L2, info2 = potrf(syrk(1.0, W, beta=1.0, c=C, trans=1, lower=1, overwrite_c=1),
                      lower=1, clean=0, overwrite_a=1)
    if info or info2:
        raise RuntimeError(f"dense Cholesky of A, then of C + W^T W: info {info}, {info2}")

    def solve(b):
        # level-2 BLAS: LAPACK's potrs and trtrs were erratic under threaded OpenBLAS
        y = trsv(L, b[stress].astype(dtype), lower=1)
        u = gemv(1.0, W, y, beta=-1.0, y=b[disp].astype(dtype), trans=1)
        x = np.empty_like(b)
        x[disp] = u = trsv(L2, trsv(L2, u, lower=1), lower=1, trans=1)
        x[stress] = trsv(L, gemv(-1.0, W, u, beta=1.0, y=y), lower=1, trans=1)
        return x

    return solve, ns * (ns + 1) // 2 + ns * nu + nu * (nu + 1) // 2


def _factor(L, dofmap, dtype=np.float64):
    """Factor of S M in dtype from L: (solve, factor entries); solve(S b) keeps its dtype.

    _dense_factor when n^2 <= DENSE_MAX_RATIO * nnz(M), else sparse LU of S M
    in the stress-first block order.  Raises FactorMemoryError, before L is
    copied, when the factor would not fit in _available_memory(), and
    FloatingPointError when L leaves dtype's normal range.
    """
    itemsize, nnz = np.dtype(dtype).itemsize, 2 * L.nnz - np.count_nonzero(L.diagonal())
    dense = L.shape[0] ** 2 <= DENSE_MAX_RATIO * nnz
    if dense:  # _dense_factor's A, B and C
        ns, nu = dofmap.n_stress_dofs, dofmap.n_disp_dofs
        need = (ns * ns + ns * nu + nu * nu) * itemsize
    else:
        perm, entries = _stress_first_order(L, dofmap)
        need = (entries + nnz) * (itemsize + L.indices.itemsize)
    # raised outside the handlers below: solve_saddle retries their
    # SingularSystemError in float64, which needs more memory still
    _reserve("the factor", need)
    try:
        with np.errstate(over="raise", under="raise"):
            if dense:
                return _dense_factor(L, dofmap, dtype)
            inv = np.empty(len(perm), np.int32)
            inv[perm] = np.arange(len(perm), dtype=np.int32)
            Mp = _expand(L, dtype)
            Mp = sp.csc_matrix((Mp.data, inv[Mp.indices], Mp.indptr), shape=Mp.shape)[:, perm]
        Mp.sort_indices()
        # the block pattern is structurally symmetric; symmetric-mode SuperLU
        # with a relaxed diagonal pivot threshold cuts fill severalfold, and
        # the residual gate catches any pivoting damage
        lu = splu(Mp, permc_spec="NATURAL",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    except (MemoryError, SystemError) as exc:
        # SuperLU reports running out of memory as invalid arguments
        raise FactorMemoryError("factorization ran out of memory") from exc
    except RuntimeError as exc:
        raise SingularSystemError(f"factorization failed: {exc}") from exc

    def solve(b):
        x = np.empty_like(b)
        x[perm] = lu.solve(b[perm].astype(dtype, copy=False))
        return x

    return solve, int(lu.nnz)


def _cell_blocks(L, dofmap):
    """Each cell's own dense diagonal block of S M, (cells, cell size, cell size):
    the own entries of _entries(L), each block's lower triangle then mirrored."""
    size = dofmap.cell_size
    D = np.zeros((dofmap.num_cells, size, size))
    for row, col, value in _entries(L):
        own = row // size == col // size
        D[col[own] // size, row[own] % size, col[own] % size] = value[own]
    D += np.triu(D.transpose(0, 2, 1), 1)
    return D


def _recurses(dofmap, mesh):
    """Whether the level takes a cycle of its own: big enough, with a coarse level."""
    return dofmap.total_dofs >= KRYLOV_MIN_DOFS and mesh.coarse_level is not None


def _multilevel(L, dofmap, mesh):
    """One float32 multilevel cycle as a preconditioner for S M: (cycle, nnz, grids).

    Two damped cell-block Jacobi sweeps, whose blocks are the cells' own
    diagonal blocks of S M (a Vanka-type smoother), inverted in float64; a
    coarse correction by the Galerkin operator P^T S M P of the prolongation P
    from mesh.coarse_level; then two more sweeps.  P maps each field to
    itself, so the coarse L is the lower triangle of P^T L P + (P^T L P)^T
    - P^T D P.  The correction applies the coarse level's own cycle when
    _recurses holds for that level, and otherwise a float32 _factor.  The
    cycle maps float32 to float32; S M enters it through a float32 _operator.
    nnz is the coarsest factor's, and grids counts the levels down to it.
    Raises FloatingPointError out of float32's normal range.
    """
    # the float64 cell blocks and their inverses live before any coarse data
    with np.errstate(over="raise", under="raise"):
        D_inv = np.linalg.inv(_cell_blocks(L, dofmap)).astype(np.float32)
    matvec = _operator(L, np.float32)
    size = dofmap.cell_size
    P = prolongation(mesh, dofmap)
    coarse_mesh = mesh.coarse_level[0]
    coarse = build_dofmap(coarse_mesh, dofmap.k, dofmap.l)
    L_coarse = P.T @ (L @ P)
    L_coarse = sp.tril(L_coarse + L_coarse.T - P.T @ (sp.diags(L.diagonal()) @ P), format="csc")
    if _recurses(coarse, coarse_mesh):
        coarse_solve, nnz, grids = _multilevel(L_coarse, coarse, coarse_mesh)
    else:
        (coarse_solve, nnz), grids = _factor(L_coarse, coarse, np.float32), 1
    with np.errstate(over="raise", under="raise"):
        P = P.astype(np.float32)
    PT = P.T.tocsr()

    def jacobi(r):
        return SMOOTHER_DAMPING * (D_inv @ r.reshape(-1, size, 1)).ravel()

    def cycle(r):
        x = jacobi(r)
        x += jacobi(r - matvec @ x)
        x += P @ coarse_solve(PT @ (r - matvec @ x))
        x += jacobi(r - matvec @ x)
        x += jacobi(r - matvec @ x)
        return x

    return cycle, nnz, grids + 1


def _arnoldi_cycle(M, r, precondition, steps, tol):
    """One cycle of FGMRES(steps) on M dx = r: (dx, applications).

    The float64 Arnoldi basis V, steps + 1 rows, is built by classical
    Gram-Schmidt, done twice, on the products M z_j of the preconditioned
    vectors z_j = precondition(v_j); Z keeps them, steps float32 rows, as
    precondition may change from step to step.  The cycle ends when the
    least-squares estimate of ||r - M dx|| passes tol or rises (only at its
    roundoff floor), or after steps applications; dx = Z y is in float64.
    """
    V = np.empty((steps + 1, len(r)))
    Z = np.empty((steps, len(r)), np.float32)
    H = np.zeros((steps + 1, steps))
    g = np.zeros(steps + 1)
    g[0] = estimate = np.linalg.norm(r)
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
        last, estimate = estimate, np.linalg.norm(g[:j + 2] - H[:j + 2, :j + 1] @ y)
        if H[j + 1, j] == 0 or estimate <= tol or estimate > last:
            break
        V[j + 1] = w / H[j + 1, j]
    dx = np.zeros_like(r)
    for y_i, z_i in zip(y, Z):
        dx += y_i * z_i
    return dx, j + 1


def _refine(M, b, correct, tol, accept):
    """Float64 iterative refinement from x = 0: (x, applications).

    Each step adds d, n = correct(r, applications left), a correction to
    M x = b from n applications of a low-precision solver, and recomputes
    r = b - M x.  The loop ends when ||r|| <= tol ||b||, when ||r|| no
    longer halves, or when the next correction, extrapolated from the last
    two by their ratio, would fall under float64's resolution of x.  x is
    None when KRYLOV_MAX_ITERATIONS applications run out first, or at the
    end if ||r|| > accept ||b||.
    """
    x, r, applications = np.zeros_like(b), b, 0
    norm_b = norm_r = np.linalg.norm(b)
    norm_d = 0.0
    while norm_r > tol * norm_b:
        if applications == KRYLOV_MAX_ITERATIONS:
            return None, applications
        d, n = correct(r, KRYLOV_MAX_ITERATIONS - applications)
        x += d
        applications += n
        r = b - M @ x
        last, norm_r = norm_r, np.linalg.norm(r)
        last_d, norm_d = norm_d, np.linalg.norm(d)
        if not 0 < norm_r <= 0.5 * last:  # the true residual no longer halves
            break
        if norm_d ** 2 <= np.finfo(float).eps * np.linalg.norm(x) * last_d:
            break
    return (x if norm_r <= accept * norm_b else None), applications


def solve_saddle(system, mesh=None):
    """Solve M x = b, M = [[Aa, Bb], [-Bb^T, Cc]] in cell-major order.

    Every path solves the symmetric S M x = S b, with the same x and residual
    norms.  mesh is the mesh the system was assembled on; without it, or off
    the GMRES cases in the module docstring, S M is factored by _factor, in
    the precisions of the module docstring.  The penalties are read from
    system.stab.  Relative residuals above RESIDUAL_TOL raise on either path;
    the system is never silently regularized.
    """
    L, dofmap, stab = system.L, system.dofmap, system.stab
    b = system.b * dofmap.signs
    SM, norm_b = _operator(L), np.linalg.norm(b)
    t0 = time.perf_counter()
    x = None
    h_scaled = stab.alpha1 == -1.0 and stab.beta1 == 1.0  # C11 ~ 1/h, C22 ~ h
    if (mesh is not None and not stab.c22_zero and (mesh.dim == 3 or h_scaled)
            and _recurses(dofmap, mesh)):
        # V, Z, float32 L; cell blocks, float64 inverted, float32 kept; P dense, CSR
        _reserve("the multilevel cycle", L.nnz * 4 + L.shape[0] * (
            (KRYLOV_RESTART + 1) * 8 + KRYLOV_RESTART * 4 + (20 + 20) * dofmap.cell_size))
        with contextlib.suppress(FloatingPointError, SingularSystemError):
            precondition, nnz, levels = _multilevel(L, dofmap, mesh)
            t1 = time.perf_counter()
            x, iterations = _refine(SM, b, lambda r, left: _arnoldi_cycle(
                SM, r, precondition, min(left, KRYLOV_RESTART), KRYLOV_TOL * norm_b),
                KRYLOV_TOL, RESIDUAL_TOL)
    # each failed rung's arrays are freed before the next factor checks its memory
    if x is None:
        precondition = None
        iterations, levels = 0, 1
        with contextlib.suppress(FloatingPointError, SingularSystemError):
            lu_solve, nnz = _factor(L, dofmap, np.float32)
            t1 = time.perf_counter()
            # at unit norm the cast to float32 stays in range
            x, _ = _refine(SM, b, lambda r, left: (
                np.linalg.norm(r) * lu_solve(r / np.linalg.norm(r)), 1), 0.0, KRYLOV_TOL)
    if x is None:
        lu_solve = None
        lu_solve, nnz = _factor(L, dofmap)
        t1 = time.perf_counter()
        x = lu_solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    resid = np.linalg.norm(SM @ x - b) / (norm_b if norm_b > 0 else 1.0)
    report = SolveReport(relative_residual=float(resid), factor_s=t1 - t0,
                         solve_s=time.perf_counter() - t1, factor_nnz=nnz,
                         iterations=iterations, levels=levels)
    if resid > RESIDUAL_TOL:
        raise ResidualToleranceError(report)
    return FieldCoeffs(dofmap, x), report
