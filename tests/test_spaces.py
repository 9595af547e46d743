import dataclasses
import math

import numpy as np
import pytest

from mixeddg import (
    build_dofmap,
    build_uniform_tet,
    build_uniform_tri,
    evaluate_field,
    project_displacement,
    project_stress,
)
from mixeddg.forms import StabilizationParams, penalty_values
from mixeddg.polybasis import cell_quadrature, orthonormal_basis
from mixeddg.spaces import (
    DofMap,
    FieldCoeffs,
    evaluate_displacement_gradient,
    tensor_from_components,
)

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


class TestDofMap:
    def test_two_triangles_k1l1(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        assert dm.stress_cell_size == 9
        assert dm.disp_cell_size == 6
        assert dm.total_dofs == 30

    def test_tets_k1l1(self):
        mesh = build_uniform_tet(1)
        dm = build_dofmap(mesh, 1, 1)
        assert dm.stress_cell_size + dm.disp_cell_size == 36
        assert dm.total_dofs == 216

    def test_degree_gap_rejected(self, two_tri):
        mesh, _ = two_tri
        with pytest.raises(ValueError, match="inclusion"):
            build_dofmap(mesh, 0, 2)

    def test_offsets_disjoint_cover(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 0)
        seen = []
        for c in range(mesh.num_cells):
            seen.extend(range(dm.stress_offset(c),
                              dm.stress_offset(c) + dm.stress_cell_size))
        for c in range(mesh.num_cells):
            seen.extend(range(dm.disp_offset(c),
                              dm.disp_offset(c) + dm.disp_cell_size))
        assert sorted(seen) == list(range(dm.total_dofs))
        # the index arrays partition the dofs, and match the offsets
        both = np.concatenate([dm.stress_dofs, dm.disp_dofs])
        assert sorted(both.tolist()) == list(range(dm.total_dofs))
        assert dm.stress_dofs.tolist() == seen[:dm.n_stress_dofs]
        assert dm.disp_dofs.tolist() == seen[dm.n_stress_dofs:]
        # writes through the block views land in the coefficient vector
        coeffs = FieldCoeffs(dm)
        coeffs.all_stress_blocks()[...] = 1.0
        coeffs.all_disp_blocks()[...] = 2.0
        assert np.all(coeffs.values[dm.stress_dofs] == 1.0)
        assert np.all(coeffs.values[dm.disp_dofs] == 2.0)

    def test_fields_are_the_inputs(self, two_tri):
        # every size is derived from (cell_kind, dim, num_cells, k, l)
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 2, 1)
        names = [f.name for f in dataclasses.fields(DofMap)]
        assert names == ["cell_kind", "dim", "num_cells", "k", "l"]
        assert (dm.n_stress_comp, dm.m_k, dm.m_l) == (3, 6, 3)
        assert (dm.stress_cell_size, dm.disp_cell_size, dm.cell_size) == (9, 12, 21)
        assert (dm.n_stress_dofs, dm.n_disp_dofs, dm.total_dofs) == (18, 24, 42)

    def test_p_cell(self, two_tri):
        # the face penalties use p = min(k, l) + 1 on every cell
        mesh, _ = two_tri
        stab = StabilizationParams(alpha1=0.0, alpha2=-1.0)  # C11 = p
        for k, l in ((2, 1), (1, 1)):
            c11 = penalty_values(mesh, build_dofmap(mesh, k, l), stab, "c11",
                                 np.array([0, 1]))
            assert c11.tolist() == [2.0, 2.0]


class TestProjectDisplacement:
    def test_linear_reproduced(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        u = lambda x: np.stack([2 * x[:, 0] - x[:, 1], 0.5 + x[:, 1]], axis=-1)
        coeffs = project_displacement(mesh, dm, u)
        pts = np.array([[0.1, 0.2], [0.4, 0.4], [0.7, 0.1]])
        for c in range(mesh.num_cells):
            vals, _ = evaluate_field(coeffs, c, pts)
            assert vals == pytest.approx(u(mesh.cell_points(c, pts)), abs=1e-12)

    def test_zero_maps_to_zero(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        coeffs = project_displacement(mesh, dm, lambda x: np.zeros_like(x))
        assert np.abs(coeffs.values).max() == 0.0

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_sine_rate(self, k):
        u = lambda x: np.stack(
            [np.sin(math.pi * x[:, 0]) * np.cos(x[:, 1]), np.cos(x[:, 0])], axis=-1)
        errs = []
        for n in (4, 8):
            mesh = build_uniform_tri(n, BOX2)
            dm = build_dofmap(mesh, k, k)
            coeffs = project_displacement(mesh, dm, u)
            errs.append(_l2_diff(mesh, dm, coeffs, u))
        ratio = math.log2(errs[0] / errs[1])
        assert ratio == pytest.approx(k + 1, abs=0.2)

    def test_orthogonality_random_tests(self, two_tri, rng):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 2, 2)
        u = lambda x: np.stack(
            [np.exp(x[:, 0]), np.sin(3 * x[:, 1])], axis=-1)
        coeffs = project_displacement(mesh, dm, u)
        rule = cell_quadrature("triangle", 12)
        basis = orthonormal_basis("triangle", dm.k)
        vals = basis.eval(rule.points)
        norm_u = 10.0
        for _ in range(50):
            c = rng.randint(mesh.num_cells)
            test = rng.randn(2, dm.m_k)
            x = mesh.cell_points(c, rule.points)
            uh, _ = evaluate_field(coeffs, c, rule.points)
            diff = u(x) - uh
            v = np.einsum("im,mq->qi", test, vals)
            integral = abs(mesh.det_jac[c]) * np.einsum(
                "q,qi,qi->", rule.weights, diff, v)
            norm_v = math.sqrt(abs(mesh.det_jac[c])) * np.linalg.norm(test)
            assert abs(integral) <= 1e-10 * norm_u * max(norm_v, 1.0)


class TestProjectStress:
    def test_constant_exact_l0(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 0)
        sig = np.array([[2.0, 0.5], [0.5, -1.0]])
        coeffs = project_stress(mesh, dm, lambda x: np.broadcast_to(sig, x.shape[:-1] + (2, 2)))
        pts = np.array([[0.2, 0.2], [0.6, 0.3]])
        for c in range(mesh.num_cells):
            _, s = evaluate_field(coeffs, c, pts)
            assert s == pytest.approx(np.broadcast_to(sig, s.shape), abs=1e-13)

    def test_asymmetric_rejected(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        bad = lambda x: np.broadcast_to(
            np.array([[0.0, 1.0], [0.0, 0.0]]), x.shape[:-1] + (2, 2))
        with pytest.raises(ValueError, match="symmetric"):
            project_stress(mesh, dm, bad)

    def test_case_stress_rate(self, case2d):
        errs = []
        for n in (4, 8):
            mesh = build_uniform_tri(n, BOX2)
            dm = build_dofmap(mesh, 1, 1)
            coeffs = project_stress(mesh, dm, case2d.sigma)
            errs.append(_l2_stress_diff(mesh, dm, coeffs, case2d.sigma))
        assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.2)

    def test_trace_free_preserved(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        shear = lambda x: np.einsum(
            "q,ij->qij", x[:, 0] * x[:, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
        coeffs = project_stress(mesh, dm, shear)
        pts = np.array([[0.25, 0.25], [0.1, 0.6]])
        for c in range(mesh.num_cells):
            _, s = evaluate_field(coeffs, c, pts)
            assert np.trace(s, axis1=-2, axis2=-1) == pytest.approx(
                np.zeros(len(pts)), abs=1e-14)

    def test_evaluated_stress_symmetric(self, two_tri, rng):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        from mixeddg.spaces import FieldCoeffs
        coeffs = FieldCoeffs(dm, rng.randn(dm.total_dofs))
        _, s = evaluate_field(coeffs, 0, rng.rand(5, 2) * 0.4)
        assert np.array_equal(s, np.swapaxes(s, -1, -2))


class TestRoundTrips:
    def test_projection_idempotent(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 2, 2)
        u = lambda x: np.stack([np.sin(x[:, 0]), np.cos(x[:, 1])], axis=-1)
        once = project_displacement(mesh, dm, u)

        def as_field(x):
            # piecewise evaluation of the projected field at physical points
            out = np.empty_like(x)
            for c in range(mesh.num_cells):
                ref = mesh.cell_ref_coords(c, x)
                inside = np.all(ref > -1e-9, axis=1) & (ref.sum(1) < 1 + 1e-9)
                vals, _ = evaluate_field(once, c, ref[inside])
                out[inside] = vals
            return out

        twice = project_displacement(mesh, dm, as_field)
        assert twice.values == pytest.approx(once.values, abs=1e-12)

    def test_project_then_evaluate_polynomial(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 2, 2)
        u = lambda x: np.stack(
            [x[:, 0] ** 2 - x[:, 1], 1 + x[:, 0] * x[:, 1]], axis=-1)
        coeffs = project_displacement(mesh, dm, u)
        pts = np.array([[0.3, 0.5], [0.05, 0.05], [0.6, 0.35]])
        for c in range(mesh.num_cells):
            vals, _ = evaluate_field(coeffs, c, pts)
            assert vals == pytest.approx(u(mesh.cell_points(c, pts)), abs=1e-12)

    def test_displacement_gradient(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        u = lambda x: np.stack(
            [2 * x[:, 0] + 3 * x[:, 1], -x[:, 0] + 0.5 * x[:, 1]], axis=-1)
        coeffs = project_displacement(mesh, dm, u)
        g = evaluate_displacement_gradient(coeffs, mesh, 0, np.array([[0.2, 0.2]]))
        assert g[0] == pytest.approx(np.array([[2.0, 3.0], [-1.0, 0.5]]), abs=1e-12)

    def test_zero_coeffs_zero_fields(self, two_tri):
        mesh, _ = two_tri
        dm = build_dofmap(mesh, 1, 1)
        from mixeddg.spaces import FieldCoeffs
        zero = FieldCoeffs(dm)
        u, s = evaluate_field(zero, 0, np.array([[0.333, 0.1]]))
        assert np.all(u == 0) and np.all(s == 0)


def _l2_diff(mesh, dm, coeffs, u):
    rule = cell_quadrature(mesh.cell_kind, 2 * dm.k + 8)
    total = 0.0
    for c in range(mesh.num_cells):
        x = mesh.cell_points(c, rule.points)
        uh, _ = evaluate_field(coeffs, c, rule.points)
        d = u(x) - uh
        total += abs(mesh.det_jac[c]) * np.einsum("q,qi,qi->", rule.weights, d, d)
    return math.sqrt(total)


def _l2_stress_diff(mesh, dm, coeffs, sigma):
    rule = cell_quadrature(mesh.cell_kind, 2 * dm.l + 8)
    total = 0.0
    for c in range(mesh.num_cells):
        x = mesh.cell_points(c, rule.points)
        _, sh = evaluate_field(coeffs, c, rule.points)
        d = sigma(x) - sh
        total += abs(mesh.det_jac[c]) * np.einsum("q,qij,qij->", rule.weights, d, d)
    return math.sqrt(total)
