"""Orthonormal polynomial bases and quadrature rules on reference cells.

Reference cells are the unit triangle {x, y >= 0, x + y <= 1}, the unit
square [0, 1]^2, and the unit tetrahedron {x, y, z >= 0, x + y + z <= 1}.
Bases span the full total-degree space P_p on every cell kind (including
quads) and are orthonormal in the reference L2 inner product, so affine
cell maps keep local mass matrices diagonal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_triangular

CELL_KINDS = ("triangle", "quad", "tetrahedron")

CELL_DIM = {"triangle": 2, "quad": 2, "tetrahedron": 3}

REF_MEASURE = {"triangle": 0.5, "quad": 1.0, "tetrahedron": 1.0 / 6.0}

REF_CENTROID = {
    "triangle": (1.0 / 3.0, 1.0 / 3.0),
    "quad": (0.5, 0.5),
    "tetrahedron": (0.25, 0.25, 0.25),
}


@dataclass(frozen=True)
class QuadRule:
    """Quadrature points and weights on a reference cell.

    Integrates all polynomials up to the requested total degree exactly;
    weights sum to the reference-cell measure.
    """

    points: np.ndarray   # (nq, dim)
    weights: np.ndarray  # (nq,)

    @property
    def size(self) -> int:
        return self.weights.shape[0]


def _gauss_01(n, alpha):
    # n-point rule for int_0^1 (1-u)^alpha f(u) du, exact to degree 2n - 1
    t, w = np.polynomial.legendre.leggauss(n) if alpha == 0 else _gauss_jacobi(n, alpha)
    return (t + 1.0) / 2.0, w / 2.0 ** (alpha + 1.0)


def _gauss_jacobi(n, alpha):
    """n-point Gauss rule for int_-1^1 (1-t)^alpha f(t) dt, alpha > 0.

    The nodes are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math.
    Comp. 23, 1969), each moved by one Newton step on q_n.  The weights are
    1 / sum_(j<n) q_j^2 there, where q_j are the orthonormal polynomials of
    the weight, evaluated by their three-term recurrence.
    """
    j = np.arange(n + 1.0)
    s = 2.0 * j + alpha
    diag = -alpha ** 2 / (s * (s + 2.0))  # the recurrence's a_j and b_j, j = 0 .. n
    off = np.zeros(n + 1)
    off[1:] = 2.0 * j[1:] * (j[1:] + alpha) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))

    def recurrence(t):
        """q_n(t), q_n'(t) and sum_(j<n) q_j(t)^2."""
        q_prev, dq_prev, dq, total = (np.zeros_like(t) for _ in range(4))
        q = np.full_like(t, math.sqrt((alpha + 1.0) / 2.0 ** (alpha + 1.0)))  # q_0 = mu_0^(-1/2)
        for a, b, b_next in zip(diag, off, off[1:]):
            total += q * q
            q_prev, q = q, ((t - a) * q - b * q_prev) / b_next
            dq_prev, dq = dq, (q_prev + (t - a) * dq - b * dq_prev) / b_next
        return q, dq, total

    t = np.linalg.eigvalsh(np.diag(diag[:n]) + np.diag(off[1:n], -1))
    q, dq, _ = recurrence(t)
    t = t - q / dq
    return t, 1.0 / recurrence(t)[2]


def _gauss_rule(dim: int, exactness: int, collapsed: bool) -> QuadRule:
    """Tensor product of Gauss rules on [0,1]^dim, exact to `exactness` per axis.

    Collapsed, axis i takes the Gauss-Jacobi weight (1-u)^(dim-1-i), and point
    coordinate i is scaled by (1 - u_j) for every axis j < i: the Duffy map of
    the cube onto the unit simplex, whose Jacobian the weights absorb.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    if exactness < 0:
        raise ValueError("exactness must be >= 0")
    n = exactness // 2 + 1
    axes = [_gauss_01(n, dim - 1 - i if collapsed else 0) for i in range(dim)]
    grids = [g.ravel() for g in np.meshgrid(*(x for x, _ in axes), indexing="ij")]
    pts = []
    for i, g in enumerate(grids):
        for shrink in grids[:i] if collapsed else ():
            g = g * (1.0 - shrink)
        pts.append(g)
    wts = np.ones(len(grids[0]))
    for a in np.meshgrid(*(w for _, w in axes), indexing="ij"):
        wts *= a.ravel()
    rule = QuadRule(np.stack(pts, axis=-1), wts)
    for a in (rule.points, rule.weights):
        a.setflags(write=False)
    return rule


@lru_cache(maxsize=None)
def tensor_gauss(dim: int, exactness: int) -> QuadRule:
    """Tensor-product Gauss rule on [0,1]^dim, exact to `exactness` per axis."""
    return _gauss_rule(dim, exactness, collapsed=False)


@lru_cache(maxsize=None)
def simplex_quadrature(dim: int, exactness: int) -> QuadRule:
    """Quadrature on the unit simplex, exact for all total degrees <= `exactness`.

    Built by the collapsed-coordinate (Duffy) construction with Gauss-Jacobi
    weights absorbing the map Jacobian, so any exactness is available and all
    weights stay positive.
    """
    return _gauss_rule(dim, exactness, collapsed=True)


def cell_quadrature(cell_kind: str, exactness: int) -> QuadRule:
    """Rule on the reference cell of the given kind."""
    if cell_kind == "quad":
        return tensor_gauss(2, exactness)
    if cell_kind == "triangle":
        return simplex_quadrature(2, exactness)
    if cell_kind == "tetrahedron":
        return simplex_quadrature(3, exactness)
    raise ValueError(f"unknown cell kind {cell_kind!r}")


def space_dimension(dim: int, p: int) -> int:
    """dim P_p = C(p + d, d)."""
    return math.comb(p + dim, dim)


def total_degree_exponents(dim: int, p: int) -> np.ndarray:
    """Monomial exponents of P_p in graded order, constant first."""
    exps = sorted((e for e in itertools.product(range(p + 1), repeat=dim) if sum(e) <= p),
                  key=lambda e: (sum(e), *(-c for c in e)))
    return np.array(exps, dtype=int)


@dataclass(frozen=True)
class BasisSet:
    """L2-orthonormal polynomial basis of total degree `degree` on a reference cell.

    Basis functions are linear combinations of monomials in coordinates
    centered at the reference centroid: basis_i = sum_j coeffs[i, j] * mono_j.
    """

    cell_kind: str
    degree: int
    size: int
    exponents: np.ndarray  # (size, dim)
    coeffs: np.ndarray     # (size, size)

    @property
    def dim(self) -> int:
        return CELL_DIM[self.cell_kind]

    def _monomials(self, points, *exponent_sets):
        """prod_d (x_d - centroid_d) ** e[:, d] at points, (size, nq) for each e."""
        shifted = np.asarray(points, dtype=float) - np.asarray(REF_CENTROID[self.cell_kind])
        pows = np.ones((int(self.exponents.max(initial=0)) + 1,) + shifted.T.shape)
        for e in range(1, len(pows)):  # pows[e, d, q] = shifted[q, d] ** e
            pows[e] = pows[e - 1] * shifted.T
        monos = [np.ones((self.size, len(shifted))) for _ in exponent_sets]
        for mono, exponents in zip(monos, exponent_sets):
            for d in range(self.dim):
                mono *= pows[exponents[:, d], d]
        return monos

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Basis values at reference points; shape (size, nq)."""
        return self.coeffs @ self._monomials(points, self.exponents)[0]

    def eval_grad(self, points: np.ndarray) -> np.ndarray:
        """Reference-coordinate gradients at points; shape (size, nq, dim)."""
        # exponent sets with coordinate r's exponent lowered, for r = 0 .. dim - 1
        lowered = np.maximum(self.exponents - np.eye(self.dim, dtype=int)[:, None], 0)
        monos = self._monomials(points, *lowered)
        grad_mono = np.stack([e[:, None] * m for e, m in zip(self.exponents.T, monos)], axis=-1)
        return np.einsum("ij,jqr->iqr", self.coeffs, grad_mono)


@lru_cache(maxsize=None)
def orthonormal_basis(cell_kind: str, p: int) -> BasisSet:
    """Orthonormalized monomial basis spanning exactly P_p on the reference cell."""
    if cell_kind not in CELL_KINDS:
        raise ValueError(f"unknown cell kind {cell_kind!r}")
    if p < 0:
        raise ValueError("degree must be >= 0")
    dim = CELL_DIM[cell_kind]
    exps = total_degree_exponents(dim, p)
    m = exps.shape[0]

    raw = BasisSet(cell_kind, p, m, exps, np.eye(m))
    rule = cell_quadrature(cell_kind, 2 * p)
    vals = raw.eval(rule.points)                     # (m, nq)
    sw = np.sqrt(rule.weights)
    # QR with one re-orthogonalization pass keeps the Gram matrix at
    # machine-precision identity through p = 7 despite monomial conditioning.
    q1, r1 = np.linalg.qr(vals.T * sw[:, None])
    q2, r2 = np.linalg.qr(q1)
    r = r2 @ r1
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    r = sign[:, None] * r
    coeffs = solve_triangular(r, np.eye(m)).T
    coeffs.setflags(write=False)
    exps.setflags(write=False)
    return BasisSet(cell_kind, p, m, exps, coeffs)
