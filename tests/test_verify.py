import dataclasses
import math

import numpy as np
import pytest

from mixeddg import (
    build_dofmap,
    build_face_topology,
    build_uniform_tet,
    build_uniform_tri,
    case_2d_poly,
    case_3d_sine,
    error_energy,
    error_l2,
    evaluate_field,
    observed_orders,
    project_displacement,
    project_stress,
    seminorm_B,
)
from mixeddg.forms import (
    StabilizationParams,
    form_a_direct,
    form_c_direct,
)
from mixeddg.polybasis import cell_quadrature
from mixeddg.spaces import FieldCoeffs, data_exactness
from mixeddg.verify import ErrorReport

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


def fd_div_sigma(sigma_fn, x, h=1e-5):
    """Central finite-difference divergence of a tensor field, row-wise."""
    d = x.shape[-1]
    out = np.zeros(x.shape[:-1] + (d,))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out += (sigma_fn(x + e)[..., :, j] - sigma_fn(x - e)[..., :, j]) / (2 * h)
    return out


def boundary_samples(box, count, rng):
    d = len(box)
    pts = np.array([rng.uniform(lo, hi, size=count) for (lo, hi) in box]).T
    sides = rng.randint(d, size=count)
    hilo = rng.randint(2, size=count)
    for i in range(count):
        pts[i, sides[i]] = box[sides[i]][hilo[i]]
    return pts


class TestCase2D:
    def test_center_value(self, case2d):
        assert case2d.u(np.zeros((1, 2)))[0] == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_zero_on_vertical_edges(self, case2d, rng):
        x2 = rng.uniform(-1, 1, size=7)
        for x1 in (-1.0, 1.0):
            pts = np.stack([np.full(7, x1), x2], axis=-1)
            assert np.abs(case2d.u(pts)).max() < 1e-12

    def test_boundary_zero_100_points(self, case2d, rng):
        pts = boundary_samples(case2d.box, 100, rng)
        assert np.abs(case2d.u(pts)).max() <= 1e-12

    def test_equilibrium_at_probe_point(self, case2d):
        x = np.array([[0.3, -0.7]])
        resid = -fd_div_sigma(case2d.sigma, x) - case2d.f(x)
        assert np.abs(resid).max() <= 1e-6

    def test_equilibrium_100_random_points(self, case2d, rng):
        x = rng.uniform(-0.95, 0.95, size=(100, 2))
        resid = -fd_div_sigma(case2d.sigma, x) - case2d.f(x)
        assert np.abs(resid).max() <= 1e-6

    def test_gradient_consistent_with_u(self, case2d, rng):
        x = rng.uniform(-0.9, 0.9, size=(30, 2))
        h = 1e-6
        g = case2d.grad_u(x)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (case2d.u(x + e) - case2d.u(x - e)) / (2 * h)
            assert np.abs(g[:, :, j] - fd).max() < 1e-6


class TestCase3D:
    def test_zero_on_all_faces(self, rng):
        case = case_3d_sine()
        pts = boundary_samples(case.box, 100, rng)
        assert np.abs(case.u(pts)).max() <= 1e-12

    def test_center_value(self):
        case = case_3d_sine()
        val = case.u(np.full((1, 3), 0.5))[0]
        assert val == pytest.approx([1.0, 2.0, 4.0], rel=1e-14)

    def test_equilibrium_100_random_points(self, rng):
        case = case_3d_sine()
        x = rng.uniform(0.05, 0.95, size=(100, 3))
        resid = -fd_div_sigma(case.sigma, x) - case.f(x)
        assert np.abs(resid).max() <= 1e-6

    def test_gradient_consistent_with_u(self, rng):
        case = case_3d_sine()
        x = rng.uniform(0.1, 0.9, size=(30, 3))
        h = 1e-6
        g = case.grad_u(x)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (case.u(x + e) - case.u(x - e)) / (2 * h)
            assert np.abs(g[:, :, j] - fd).max() < 1e-6


class TestErrorL2:
    def test_projection_of_contained_solution_is_exact(self, case2d):
        # degree-7 displacement lies in the k=7 space
        mesh = build_uniform_tri(2, BOX2)
        dm = build_dofmap(mesh, 7, 7)
        coeffs = project_displacement(mesh, dm, case2d.u)
        assert error_l2(mesh, dm, coeffs, case2d) <= 1e-11

    def test_linear_field_projection_exact(self, case2d):
        mesh = build_uniform_tri(2, BOX2)
        dm = build_dofmap(mesh, 1, 1)
        linear = dataclasses.replace(
            case2d, u=lambda x: np.stack(
                [x[:, 0] + 2 * x[:, 1], 1.0 - x[:, 1]], axis=-1))
        coeffs = project_displacement(mesh, dm, linear.u)
        assert error_l2(mesh, dm, coeffs, linear) <= 1e-12

    def test_zero_solution_gives_norm_of_u(self, case2d):
        mesh = build_uniform_tri(4, BOX2)
        dm = build_dofmap(mesh, 1, 1)
        zero = FieldCoeffs(dm)
        # independent oracle: high-order quadrature of |u|^2 cell by cell
        rule = cell_quadrature("triangle", 30)
        total = 0.0
        for c in range(mesh.num_cells):
            x = mesh.cell_points(c, rule.points)
            u = case2d.u(x)
            total += abs(mesh.det_jac[c]) * np.einsum(
                "q,qi,qi->", rule.weights, u, u)
        oracle = math.sqrt(total)
        assert error_l2(mesh, dm, zero, case2d, exactness=16) == pytest.approx(
            oracle, rel=1e-12)
        assert error_l2(mesh, dm, zero, case2d) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("k", [0, 1])
    def test_projection_rate(self, case2d, k):
        errs = []
        for n in (4, 8):
            mesh = build_uniform_tri(n, BOX2)
            dm = build_dofmap(mesh, k, k)
            coeffs = project_displacement(mesh, dm, case2d.u)
            errs.append(error_l2(mesh, dm, coeffs, case2d))
        assert math.log2(errs[0] / errs[1]) == pytest.approx(k + 1, abs=0.2)


def _error_evals(mesh, coeffs, case):
    def tau(c, x):
        _, s = evaluate_field(coeffs, c, mesh.cell_ref_coords(c, x))
        return np.asarray(case.sigma(x)) - s

    def v(c, x):
        u, _ = evaluate_field(coeffs, c, mesh.cell_ref_coords(c, x))
        return np.asarray(case.u(x)) - u

    return tau, v


class TestErrorEnergy:
    def test_zero_for_contained_exact_fields(self, case2d):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 7, 7)
        stab = StabilizationParams()
        coeffs = project_displacement(mesh, dm, case2d.u)
        sig = project_stress(mesh, dm, case2d.sigma)
        coeffs.values[dm.stress_dofs] = sig.values[dm.stress_dofs]
        assert error_energy(mesh, topo, dm, coeffs, coeffs, case2d, stab) <= 1e-9

    @pytest.mark.parametrize("stab", [
        StabilizationParams(),                      # C22 = h
        StabilizationParams(eta=0.0),               # LDG limit
        StabilizationParams(alpha1=0.0, beta1=0.0),  # C11 = C22 = 1
    ])
    def test_square_decomposes_into_a_plus_c(self, case2d, stab):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        coeffs = project_displacement(mesh, dm, case2d.u)
        sig = project_stress(mesh, dm, case2d.sigma)
        coeffs.values[dm.stress_dofs] = sig.values[dm.stress_dofs]
        val = error_energy(mesh, topo, dm, coeffs, coeffs, case2d, stab)
        tau, v = _error_evals(mesh, coeffs, case2d)
        exact = data_exactness(dm)
        a = form_a_direct(mesh, topo, dm, case2d.material, stab, tau, tau, exact)
        c = form_c_direct(mesh, topo, dm, stab, v, v, exact)
        assert val ** 2 == pytest.approx(a + c, rel=1e-10)

    def test_c22_zero_drops_stress_jump_term(self, case2d):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        coeffs = project_displacement(mesh, dm, case2d.u)
        sig = project_stress(mesh, dm, case2d.sigma)
        coeffs.values[dm.stress_dofs] = sig.values[dm.stress_dofs]
        with_c22 = StabilizationParams(beta1=0.0)   # C22 = 1
        no_c22 = StabilizationParams(eta=0.0)
        e_with = error_energy(mesh, topo, dm, coeffs, coeffs, case2d, with_c22)
        e_without = error_energy(mesh, topo, dm, coeffs, coeffs, case2d, no_c22)
        # discrete stress has nonzero interior jumps, so the term must matter
        assert e_with > e_without
        tau, _ = _error_evals(mesh, coeffs, case2d)
        jump_part = form_a_direct(mesh, topo, dm, case2d.material, with_c22,
                                  tau, tau, data_exactness(dm)) - \
            form_a_direct(mesh, topo, dm, case2d.material, no_c22,
                          tau, tau, data_exactness(dm))
        assert e_with ** 2 - e_without ** 2 == pytest.approx(jump_part, rel=1e-9)

    def test_absolute_homogeneity(self, case2d):
        mesh = build_uniform_tri(2, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams()
        coeffs = project_displacement(mesh, dm, case2d.u)
        sig = project_stress(mesh, dm, case2d.sigma)
        coeffs.values[dm.stress_dofs] = sig.values[dm.stress_dofs]
        base = error_energy(mesh, topo, dm, coeffs, coeffs, case2d, stab)
        scale = -3.0
        scaled_case = dataclasses.replace(
            case2d,
            u=lambda x: scale * case2d.u(x),
            grad_u=lambda x: scale * case2d.grad_u(x),
            sigma=lambda x: scale * case2d.sigma(x),
            f=lambda x: scale * case2d.f(x),
        )
        scaled_coeffs = FieldCoeffs(dm, scale * coeffs.values)
        val = error_energy(mesh, topo, dm, scaled_coeffs, scaled_coeffs,
                           scaled_case, stab)
        assert val == pytest.approx(abs(scale) * base, rel=1e-12)


class TestSeminormB:
    def test_zero_fields(self, two_tri):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams(beta1=0.0)
        zero_tau = lambda c, x: np.zeros(x.shape[:-1] + (2, 2))
        zero_v = lambda c, x: np.zeros_like(x)
        assert seminorm_B(mesh, topo, dm, zero_tau, zero_v, stab, 4) == 0.0

    def test_rejects_ldg_limit(self, two_tri):
        mesh, topo = two_tri
        dm = build_dofmap(mesh, 1, 1)
        stab = StabilizationParams(eta=0.0)
        zero_tau = lambda c, x: np.zeros(x.shape[:-1] + (2, 2))
        zero_v = lambda c, x: np.zeros_like(x)
        with pytest.raises(ValueError, match="C22 = 0"):
            seminorm_B(mesh, topo, dm, zero_tau, zero_v, stab, 4)

    def test_projection_errors_decay(self, case2d):
        stab = StabilizationParams(beta1=0.0)  # C22 = 1
        vals = []
        for n in (2, 4, 8):
            mesh = build_uniform_tri(n, BOX2)
            topo = build_face_topology(mesh)
            dm = build_dofmap(mesh, 1, 1)
            coeffs = project_displacement(mesh, dm, case2d.u)
            sig = project_stress(mesh, dm, case2d.sigma)
            coeffs.values[dm.stress_dofs] = sig.values[dm.stress_dofs]
            tau, v = _error_evals(mesh, coeffs, case2d)
            vals.append(seminorm_B(mesh, topo, dm, tau, v, stab,
                                   data_exactness(dm)))
        rates = [math.log2(vals[i] / vals[i + 1]) for i in range(2)]
        assert all(r > 0.3 for r in rates)


class TestObservedOrders:
    def test_simple_halving(self):
        assert observed_orders([(1.0, 4.0), (0.5, 1.0)]) == pytest.approx([2.0])

    def test_stagnation_is_zero(self):
        assert observed_orders([(1.0, 3.0), (0.5, 3.0)]) == pytest.approx([0.0])

    def test_growth_is_negative_not_clamped(self):
        orders = observed_orders([(1.0, 1.0), (0.5, 2.0)])
        assert orders[0] == pytest.approx(-1.0)

    def test_non_halving_rejected(self):
        with pytest.raises(ValueError, match="halve"):
            observed_orders([(1.0, 4.0), (0.4, 1.0)])

    def test_error_report_orders(self):
        rep = ErrorReport()
        rep.add_level("2", 1.0, 10, 4.0, 2.0)
        rep.add_level("4", 0.5, 40, 1.0, 1.0)
        assert rep.orders_l2() == pytest.approx([2.0])
        assert rep.orders_energy() == pytest.approx([1.0])

    def test_error_report_non_halving_gives_nan(self):
        rep = ErrorReport()
        rep.add_level("a", 1.0, 10, 4.0, 2.0)
        rep.add_level("b", 0.7, 40, 1.0, 1.0)
        assert all(math.isnan(o) for o in rep.orders_l2())
