"""Direct solution of the assembled saddle-point system."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .spaces import FieldCoeffs


class SolverError(RuntimeError):
    """Raised when the saddle-point solve cannot be accepted."""


class SingularSystemError(SolverError):
    """Factorization failed: zeta <= 0 stabilization or a broken mesh."""


class ResidualToleranceError(SolverError):
    """Factorization succeeded but the residual gate failed."""

    def __init__(self, report):
        super().__init__(
            f"relative residual {report.relative_residual:.3e} exceeds "
            f"{report.tolerance:.1e}"
        )
        self.report = report


@dataclass(frozen=True)
class SolveReport:
    relative_residual: float
    wall_time: float
    tolerance: float = 1e-9


def solve_saddle(system, residual_tol: float = 1e-9):
    """Solve [[Aa, Bb], [-Bb^T, Cc]] (sigma; u) = (0; rhs_u) by sparse LU.

    Residuals above `residual_tol` (relative) raise; the system is never
    silently regularized.
    """
    t0 = time.perf_counter()
    M = system.full_matrix().tocsc()
    b = system.full_rhs()
    try:
        # the block pattern is structurally symmetric; symmetric-mode SuperLU
        # with a relaxed diagonal pivot threshold cuts fill severalfold, and
        # the residual gate below catches any pivoting damage
        lu = splu(M, permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True, "DiagPivotThresh": 0.001})
    except RuntimeError as exc:
        raise SingularSystemError(f"sparse LU factorization failed: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("factorization produced non-finite solution")
    norm_b = np.linalg.norm(b)
    resid = np.linalg.norm(M @ x - b) / (norm_b if norm_b > 0 else 1.0)
    report = SolveReport(
        relative_residual=float(resid),
        wall_time=time.perf_counter() - t0,
        tolerance=residual_tol,
    )
    if resid > residual_tol:
        raise ResidualToleranceError(report)
    return FieldCoeffs(system.dofmap, x), report


def apply_operator(system, x: np.ndarray) -> np.ndarray:
    """y = M x with M = [[Aa, Bb], [-Bb^T, Cc]]."""
    dm = system.dofmap
    x = np.asarray(x, dtype=float)
    if x.shape != (dm.total_dofs,):
        raise ValueError(f"expected vector of length {dm.total_dofs}, got {x.shape}")
    xs, xu = x[:dm.n_stress_dofs], x[dm.n_stress_dofs:]
    top = system.Aa @ xs + system.Bb @ xu
    bot = -(system.Bb.T @ xs) + system.Cc @ xu
    return np.concatenate([top, bot])
