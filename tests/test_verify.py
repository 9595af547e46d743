import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixeddg import (
    assemble_system,
    build_dofmap,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tet,
    build_uniform_tri,
    case_2d_poly,
    case_3d_sine,
    error_energy,
    error_l2,
    observed_orders,
    read_mesh,
    solve_saddle,
)
from mixeddg import forms as forms_module
from mixeddg.forms import StabilizationParams
from mixeddg.polybasis import cell_quadrature, simplex_quadrature
from mixeddg.spaces import FieldCoeffs, data_exactness
from oracles import (
    project_displacement,
    project_stress,
    cell_points,
    cell_ref_coords,
    evaluate_field,
    form_a_direct,
    form_c_direct,
    seminorm_B,
)

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


def cs_div_sigma(case, x, h=1e-30):
    """Complex-step divergence of the exact stress, row-wise: exact to
    rounding, as no difference cancels (Squire & Trapp, SIAM Rev. 40, 1998).
    The stress is formed here, since stiffness_apply casts to float."""
    mat, d = case.material, case.dim
    out = np.zeros(x.shape)
    for j in range(d):
        g = case.grad_u(x + 1j * h * np.eye(d)[j])
        eps = 0.5 * (g + np.swapaxes(g, -1, -2))
        tr = np.trace(eps, axis1=-2, axis2=-1)[..., None, None]
        out += (2 * mat.mu * eps + mat.lam * tr * np.eye(d))[..., :, j].imag / h
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


LOAD_CASES = {"2d": case_2d_poly()} | {
    f"3d-lam{lam:g}-mu{mu:g}": case_3d_sine(lam, mu)
    for lam, mu in [(0.3, 0.35), (1.0, 0.35), (100.0, 0.35), (0.3, 1.0)]}


class TestComplexStepLoad:
    @pytest.mark.parametrize("name", sorted(LOAD_CASES))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_load_matches_complex_step(self, name, data):
        # f = -div sigma to 1e-13 of max |f| over a grid of the box, at points
        # anywhere in the closed box
        case = LOAD_CASES[name]
        x = np.array(data.draw(st.lists(st.tuples(*(st.floats(lo, hi) for lo, hi in case.box)),
                                        min_size=1, max_size=50)))
        grid = np.stack(np.meshgrid(*(np.linspace(lo, hi, 21) for lo, hi in case.box)), axis=-1)
        scale = np.abs(case.f(grid.reshape(-1, case.dim))).max()
        assert np.abs(cs_div_sigma(case, x) + case.f(x)).max() <= 1e-13 * scale


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
            x = cell_points(mesh, c, rule.points)
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
        _, s = evaluate_field(coeffs, c, cell_ref_coords(mesh, c, x))
        return np.asarray(case.sigma(x)) - s

    def v(c, x):
        u, _ = evaluate_field(coeffs, c, cell_ref_coords(mesh, c, x))
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
            f=lambda x: scale * case2d.f(x),
        )
        scaled_coeffs = FieldCoeffs(dm, scale * coeffs.values)
        val = error_energy(mesh, topo, dm, scaled_coeffs, scaled_coeffs,
                           scaled_case, stab)
        assert val == pytest.approx(abs(scale) * base, rel=1e-12)


class TestBatches:
    @pytest.mark.parametrize("kind,n,k", [("tet", 3, 1), ("tri", 8, 2)],
                             ids=["tet3-k1", "tri8-k2"])
    def test_batches_agree(self, kind, n, k, rng, monkeypatch):
        # batches of a third of the cells or of the smaller face group: M and b
        # keep their bits, and the error norms agree to roundoff; the assembly
        # walks the face batches once
        case, stab = case_3d_sine() if kind == "tet" else case_2d_poly(), StabilizationParams()
        mesh = {"tet": build_uniform_tet, "tri": build_uniform_tri}[kind](n, case.box)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, k, k)
        coeffs = FieldCoeffs(dm, rng.randn(dm.total_dofs))
        rule = cell_quadrature(mesh.cell_kind, data_exactness(dm))
        face_exactness = (2 * k + 2, data_exactness(dm))  # assembly's, the norms'
        few = min([rule.size * (mesh.num_cells // 3)]
                  + [simplex_quadrature(mesh.dim - 1, e).size
                     * (min(topo.interior_count, topo.num_faces - topo.interior_count) // 3)
                     for e in face_exactness])
        calls, face_batches = [], forms_module.face_batches
        monkeypatch.setattr(forms_module, "face_batches",
                            lambda *args: calls.append(args) or face_batches(*args))
        runs = []
        for points in (1 << 40, few):
            monkeypatch.setattr(forms_module, "BATCH_POINTS", points)
            calls.clear()
            system = assemble_system(mesh, topo, dm, case.material, stab, case.f)
            assert len(calls) == 1
            runs.append(([system.M.data, system.M.indices, system.M.indptr, system.b],
                         [error_l2(mesh, dm, coeffs, case),
                          error_energy(mesh, topo, dm, coeffs, coeffs, case, stab)]))
        counts = [len(list(forms_module.cell_batches(mesh, rule)))]
        for e in face_exactness:
            boundary = [c22 is None for *_, c22, _ in
                        forms_module.face_batches(mesh, topo, dm, stab, e)]
            counts += [boundary.count(False), boundary.count(True)]
        assert min(counts) >= 3
        (arrays, norms), (batched_arrays, batched_norms) = runs
        for whole, batched in zip(arrays, batched_arrays):
            assert np.array_equal(whole, batched)
        assert batched_norms == pytest.approx(norms, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("norm", ["l2", "energy"])
    def test_scratch_bounded(self, norm, case2d, rng):
        # the norms hold a batch of BATCH_POINTS points at a time, not the mesh:
        # at tri n=64, k=1 whole-mesh arrays took over 20 MB
        mesh = build_uniform_tri(64, BOX2)
        topo = build_face_topology(mesh)
        dm = build_dofmap(mesh, 1, 1)
        coeffs = FieldCoeffs(dm, rng.randn(dm.total_dofs))
        run = {"l2": lambda: error_l2(mesh, dm, coeffs, case2d),
               "energy": lambda: error_energy(mesh, topo, dm, coeffs, coeffs, case2d,
                                              StabilizationParams())}[norm]
        run()  # fills the basis, quadrature and mesh caches
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6


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


def solved_errors(mesh, case):
    """(err_l2, err_energy) of elas2d_poly at k = l = 1, by a rule exact for
    its degree-14 integrands, so that only roundoff depends on the numbering."""
    topo = build_face_topology(mesh)
    dm = build_dofmap(mesh, 1, 1)
    stab = StabilizationParams()
    coeffs, _ = solve_saddle(assemble_system(mesh, topo, dm, case.material, stab, case.f))
    return (error_l2(mesh, dm, coeffs, case, exactness=16),
            error_energy(mesh, topo, dm, coeffs, coeffs, case, stab, exactness=16))


RELABEL_MESHES = {"tri": build_uniform_tri(4, BOX2), "quad": build_uniform_quad(4, BOX2)}


class TestRelabelling:
    @pytest.mark.parametrize("kind", sorted(RELABEL_MESHES))
    @settings(max_examples=15, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_errors_unchanged(self, case2d, kind, data):
        mesh = RELABEL_MESHES[kind]
        nc, nvc = mesh.cells.shape
        new_id = np.array(data.draw(st.permutations(range(mesh.num_vertices))))
        order = data.draw(st.permutations(range(nc)))
        shift = np.array(data.draw(st.lists(st.integers(0, nvc - 1), min_size=nc, max_size=nc)))
        flip = np.array(data.draw(st.lists(st.booleans(), min_size=nc, max_size=nc)))
        # each cell's vertices rotated cyclically, then reversed where flip is
        # set, which read_mesh's orientation normalization must undo
        local = (np.arange(nvc) + shift[:, None]) % nvc
        local = np.where(flip[:, None], local[:, ::-1], local)
        cells = new_id[np.take_along_axis(mesh.cells, local, axis=1)][order]
        verts = np.empty_like(mesh.vertices)
        verts[new_id] = mesh.vertices
        lines = [f"dim 2 kind {kind}", f"vertices {len(verts)}"]
        lines += [" ".join(map(repr, row)) for row in verts.tolist()]
        lines += [f"cells {nc}"] + [" ".join(map(str, row)) for row in cells.tolist()]
        got = solved_errors(read_mesh("\n".join(lines)), case2d)
        assert got == pytest.approx(solved_errors(mesh, case2d), rel=1e-12, abs=0.0)


class TestObservedOrders:
    def test_simple_halving(self):
        assert observed_orders([(1.0, 4.0), (0.5, 1.0)]) == pytest.approx([2.0])

    def test_stagnation_is_zero(self):
        assert observed_orders([(1.0, 3.0), (0.5, 3.0)]) == pytest.approx([0.0])

    def test_growth_is_negative_not_clamped(self):
        orders = observed_orders([(1.0, 1.0), (0.5, 2.0)])
        assert orders[0] == pytest.approx(-1.0)

    def test_any_x_ratio(self):
        # log of the error ratio over log of the x ratio, for any ratio of x;
        # undefined orders are None, never an exception
        orders = observed_orders([(1.0, 4.0), (0.4, 1.0)])
        assert orders == pytest.approx([math.log(4.0) / math.log(2.5)])
        assert observed_orders([(0.5, 4.0), (0.5, 1.0)]) == [None]
        assert observed_orders([(1.0, 4.0), (0.5, 0.0), (0.25, 1.0)]) == [None, None]
        # x falls, then rises: the order stays positive while the error
        # follows x, and the rows need not be sorted
        assert observed_orders([(1.0, 4.0), (0.5, 1.0), (1.0, 4.0)]) == pytest.approx(
            [2.0, 2.0])
