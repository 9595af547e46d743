import math

import numpy as np
import pytest

from mixeddg.polybasis import (
    CELL_DIM,
    REF_MEASURE,
    _gauss_jacobi,
    cell_quadrature,
    orthonormal_basis,
    simplex_quadrature,
    space_dimension,
    tensor_gauss,
    total_degree_exponents,
)
from oracles import (
    cell_points,
    cell_ref_coords,
    eval_basis_on_cell,
    evaluate_field,
    gauss_jacobi_long,
)


def simplex_monomial_integral(exps):
    """Exact integral of x^a y^b (z^c) over the unit simplex."""
    num = 1
    for e in exps:
        num *= math.factorial(e)
    return num / math.factorial(sum(exps) + len(exps))


class TestSimplexQuadrature:
    def test_triangle_weights_sum_to_measure(self):
        rule = simplex_quadrature(2, 0)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("exactness", [3, 4, 5, 8])
    def test_triangle_x2y(self, exactness):
        rule = simplex_quadrature(2, exactness)
        val = (rule.weights * rule.points[:, 0] ** 2 * rule.points[:, 1]).sum()
        assert val == pytest.approx(1.0 / 60.0, rel=1e-13)

    @pytest.mark.parametrize("exactness", [2, 3, 6])
    def test_tet_xy(self, exactness):
        rule = simplex_quadrature(3, exactness)
        val = (rule.weights * rule.points[:, 0] * rule.points[:, 1]).sum()
        assert val == pytest.approx(1.0 / 120.0, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("exactness", [0, 1, 3, 6, 11])
    def test_monomial_sweep(self, dim, exactness):
        rule = simplex_quadrature(dim, exactness)
        for exps in total_degree_exponents(max(dim, 2), exactness)[:, :dim] \
                if dim > 1 else [(e,) for e in range(exactness + 1)]:
            exps = tuple(int(e) for e in np.atleast_1d(exps))
            if sum(exps) > exactness:
                continue
            mono = np.ones(rule.size)
            for d, e in enumerate(exps):
                mono *= rule.points[:, d] ** e
            exact = simplex_monomial_integral(exps)
            assert (rule.weights * mono).sum() == pytest.approx(exact, rel=1e-12)

    def test_points_inside_weights_positive(self):
        for dim in (1, 2, 3):
            rule = simplex_quadrature(dim, 7)
            assert np.all(rule.weights > 0)
            assert np.all(rule.points >= -1e-15)
            assert np.all(rule.points.sum(axis=1) <= 1 + 1e-15)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            simplex_quadrature(4, 2)
        with pytest.raises(ValueError):
            simplex_quadrature(2, -1)


class TestGaussJacobi:
    """The n-point rules for int_-1^1 (1-t)^alpha f(t) dt behind the collapsed
    simplex rules, n <= 25, alpha = 1 (triangles) and 2 (tetrahedra)."""

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_scipy(self, alpha):
        # scipy.special.roots_jacobi as an oracle.  Its own weights are off
        # the long-double ones by up to 5.5e-13 (alpha = 1, n = 25), so they
        # bound the weights only to 1e-12
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        for n in range(1, 26):
            t, w = _gauss_jacobi(n, alpha)
            ref_t, ref_w = roots_jacobi(n, alpha, 0.0)
            assert np.abs(t - ref_t).max() <= 4e-16
            assert np.abs(w / ref_w - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_long_double(self, alpha):
        # weights to 2e-14 of the long-double rule (1.5e-14 measured; plain
        # Golub-Welsch eigenvector weights are off by up to 1.6e-13)
        if np.finfo(np.longdouble).eps > 1e-18:
            pytest.skip("long double is no wider than double here")
        for n in range(1, 26):
            t, w = _gauss_jacobi(n, alpha)
            ref_t, ref_w = gauss_jacobi_long(n, alpha, t)
            assert np.abs(t - ref_t).max() <= 4e-16
            assert np.abs(w / ref_w - 1.0).max() <= 2e-14

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_exact_to_degree(self, alpha):
        # int_-1^1 (1-t)^alpha ((1+t)/2)^m dt = 2^(alpha+1) alpha! m! / (alpha+m+1)!
        # for m <= 2n - 1 (roots_jacobi's rules miss this by up to 1.7e-14)
        for n in range(1, 26):
            t, w = _gauss_jacobi(n, alpha)
            for m in range(2 * n):
                exact = (2 ** (alpha + 1) * math.factorial(alpha) * math.factorial(m)
                         / math.factorial(alpha + m + 1))
                assert w @ ((1 + t) / 2) ** m == pytest.approx(exact, rel=1e-14)


class TestTensorGauss:
    def test_midpoint_degree_one(self):
        rule = tensor_gauss(1, 1)
        val = (rule.weights * rule.points[:, 0]).sum()
        assert val == pytest.approx(0.5, abs=1e-15)

    def test_x5y5(self):
        rule = tensor_gauss(2, 5)
        val = (rule.weights * rule.points[:, 0] ** 5 * rule.points[:, 1] ** 5).sum()
        assert val == pytest.approx(1.0 / 36.0, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("exactness", [0, 2, 9])
    def test_weights_sum_to_one(self, dim, exactness):
        rule = tensor_gauss(dim, exactness)
        assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)

    def test_monomial_sweep(self):
        rule = tensor_gauss(2, 7)
        for a in range(8):
            for b in range(8):
                val = (rule.weights * rule.points[:, 0] ** a
                       * rule.points[:, 1] ** b).sum()
                exact = 1.0 / ((a + 1) * (b + 1))
                assert val == pytest.approx(exact, rel=1e-12)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            tensor_gauss(0, 2)


class TestOrthonormalBasis:
    @pytest.mark.parametrize("kind,p,size", [
        ("triangle", 1, 3),
        ("tetrahedron", 2, 10),
        ("quad", 3, 10),
    ])
    def test_sizes(self, kind, p, size):
        basis = orthonormal_basis(kind, p)
        assert basis.size == size == space_dimension(CELL_DIM[kind], p)

    @pytest.mark.parametrize("kind", ["triangle", "quad", "tetrahedron"])
    @pytest.mark.parametrize("p", range(7))
    def test_gram_identity(self, kind, p):
        basis = orthonormal_basis(kind, p)
        rule = cell_quadrature(kind, 2 * p)
        vals = basis.eval(rule.points)
        gram = np.einsum("iq,q,jq->ij", vals, rule.weights, vals)
        assert np.abs(gram - np.eye(basis.size)).max() < 1e-10

    @pytest.mark.parametrize("kind", ["triangle", "quad", "tetrahedron"])
    def test_constant_mode(self, kind):
        basis = orthonormal_basis(kind, 0)
        pts = np.full((4, CELL_DIM[kind]), 0.2)
        vals = basis.eval(pts)
        assert vals == pytest.approx(
            np.full((1, 4), 1.0 / math.sqrt(REF_MEASURE[kind])), rel=1e-14)

    @pytest.mark.parametrize("kind", ["triangle", "quad", "tetrahedron"])
    @pytest.mark.parametrize("p", [1, 3, 5])
    def test_gradients_match_finite_differences(self, kind, p, rng):
        basis = orthonormal_basis(kind, p)
        dim = CELL_DIM[kind]
        # interior points, away from cell boundary
        pts = rng.uniform(0.1, 0.25, size=(20, dim))
        grads = basis.eval_grad(pts)
        h = 1e-6
        for r in range(dim):
            e = np.zeros(dim)
            e[r] = h
            fd = (basis.eval(pts + e) - basis.eval(pts - e)) / (2 * h)
            assert np.abs(grads[:, :, r] - fd).max() < 1e-6


class TestEvalOnCell:
    def test_constant_has_zero_gradient(self, two_tri):
        mesh, _ = two_tri
        basis = orthonormal_basis("triangle", 0)
        pts = np.array([[0.2, 0.3], [0.1, 0.1]])
        _, grads = eval_basis_on_cell(basis, mesh, 0, pts)
        assert np.abs(grads).max() < 1e-14

    def test_gradient_scales_with_cell_size(self, rng):
        # physical gradients on a cell of half the size are twice as large
        from mixeddg import build_uniform_tri
        big = build_uniform_tri(1, ((0.0, 1.0), (0.0, 1.0)))
        small = build_uniform_tri(2, ((0.0, 1.0), (0.0, 1.0)))
        basis = orthonormal_basis("triangle", 2)
        pts = rng.uniform(0.05, 0.3, size=(10, 2))
        _, g_big = eval_basis_on_cell(basis, big, 0, pts)
        _, g_small = eval_basis_on_cell(basis, small, 0, pts)
        assert np.abs(g_small).max() == pytest.approx(2 * np.abs(g_big).max(),
                                                      rel=1e-12)

    def test_gradient_against_physical_finite_differences(self, rng):
        from mixeddg import build_uniform_tri
        mesh = build_uniform_tri(3, ((-1.0, 1.0), (-1.0, 1.0)))
        basis = orthonormal_basis("triangle", 3)
        cell = 7
        ref = rng.uniform(0.1, 0.25, size=(12, 2))
        vals, grads = eval_basis_on_cell(basis, mesh, cell, ref)
        x = cell_points(mesh, cell, ref)
        h = 1e-6
        for r in range(2):
            e = np.zeros(2)
            e[r] = h
            plus = basis.eval(cell_ref_coords(mesh, cell, x + e))
            minus = basis.eval(cell_ref_coords(mesh, cell, x - e))
            fd = (plus - minus) / (2 * h)
            assert np.abs(grads[:, :, r] - fd).max() < 1e-6

    def test_partition_of_unity_projection(self, two_tri):
        # projecting the constant 1 onto the span reproduces it exactly
        from mixeddg import build_dofmap
        from oracles import project_displacement
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        ones = project_displacement(mesh, dm, lambda x: np.ones_like(x))
        pts = np.array([[0.3, 0.3], [0.05, 0.8], [0.5, 0.25]])
        u, _ = evaluate_field(ones, 1, pts)
        assert u == pytest.approx(np.ones_like(u), abs=1e-12)
