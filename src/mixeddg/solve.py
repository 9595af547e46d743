"""Direct solution of the assembled saddle-point system."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
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
    """Seconds in the LU factorization and in the solves plus residual check.

    factor_nnz is SuperLU.nnz, the stored factor entries; it is not
    L.nnz + U.nnz, which would copy the factors to count.
    """

    relative_residual: float
    factor_s: float
    solve_s: float
    factor_nnz: int


def solve_saddle(system):
    """Solve M x = b, M = [[Aa, Bb], [-Bb^T, Cc]] in cell-major order, by sparse LU.

    Relative residuals above RESIDUAL_TOL raise; the system is never silently
    regularized.
    """
    M, b = system.M, system.b
    t0 = time.perf_counter()
    try:
        # the block pattern is structurally symmetric; symmetric-mode SuperLU
        # with a relaxed diagonal pivot threshold cuts fill severalfold, and
        # the residual gate below catches any pivoting damage
        lu = splu(M, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    t1 = time.perf_counter()
    x = lu.solve(b)
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
