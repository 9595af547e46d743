import itertools
import math

import numpy as np
import pytest

from mixeddg.mesh import (
    LOCAL_FACES,
    Mesh,
    MeshError,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tet,
    build_uniform_tri,
    face_quadrature,
    read_mesh,
    refine_red,
)

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))


def brute_force_face_counts(mesh):
    """Count faces by matching sorted vertex tuples over all cell pairs."""
    counts = {}
    for cell in mesh.cells:
        for idx in LOCAL_FACES[mesh.cell_kind]:
            key = tuple(sorted(int(cell[i]) for i in idx))
            counts[key] = counts.get(key, 0) + 1
    interior = sum(1 for v in counts.values() if v == 2)
    boundary = sum(1 for v in counts.values() if v == 1)
    assert all(v <= 2 for v in counts.values())
    return interior, boundary


def brute_force_faces(mesh):
    """(plus, minus, vertices) by a per-face loop over cells and local faces.

    Faces come in first-encounter order, interior ones first; the plus cell
    is the first to meet a face and gives its vertex order.
    """
    found = {}
    for c, cell in enumerate(mesh.cells):
        for idx in LOCAL_FACES[mesh.cell_kind]:
            verts = tuple(int(cell[i]) for i in idx)
            rec = found.setdefault(tuple(sorted(verts)), [c, -1, verts])
            if rec[0] != c:
                rec[1] = c
    faces = sorted(found.values(), key=lambda rec: rec[1] < 0)  # stable
    return tuple(np.array([rec[i] for rec in faces]) for i in range(3))


def relabelled(mesh, seed):
    """The mesh through read_mesh, with vertices and cells permuted by seed."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.num_vertices)
    verts = np.empty_like(mesh.vertices)
    verts[new_id] = mesh.vertices
    cells = new_id[mesh.cells][rng.permutation(mesh.num_cells)]
    kind = {"triangle": "tri", "quad": "quad", "tetrahedron": "tet"}[mesh.cell_kind]
    lines = [f"dim {mesh.dim} kind {kind}", f"vertices {len(verts)}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in verts]
    lines += [f"cells {len(cells)}"] + [" ".join(map(str, row)) for row in cells]
    return read_mesh("\n".join(lines))


def shipped_mesh():
    from importlib import resources
    text = (resources.files("mixeddg") / "data/unstructured_square.msh").read_text()
    return read_mesh(text)


class TestUniformTri:
    def test_smallest_split(self):
        mesh = build_uniform_tri(1, BOX2)
        assert mesh.num_cells == 2
        assert mesh.num_vertices == 4
        topo = build_face_topology(mesh)
        assert topo.interior_count == 1
        assert topo.boundary_count == 4

    def test_n2_counts_and_h(self):
        mesh = build_uniform_tri(2, BOX2)
        assert mesh.num_cells == 8
        assert mesh.h_max == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert np.allclose(mesh.diameters, math.sqrt(2.0), rtol=1e-14)

    def test_n2_euler_count(self):
        mesh = build_uniform_tri(2, BOX2)
        interior, boundary = brute_force_face_counts(mesh)
        assert boundary == 8
        assert 3 * mesh.num_cells == 2 * interior + boundary
        topo = build_face_topology(mesh)
        assert (topo.interior_count, topo.boundary_count) == (interior, boundary)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_h_formula(self, n):
        mesh = build_uniform_tri(n, BOX2)
        assert np.allclose(mesh.diameters, math.sqrt(2.0) * 2.0 / n, rtol=1e-13)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            build_uniform_tri(0, BOX2)


class TestUniformQuad:
    def test_single_cell(self):
        mesh = build_uniform_quad(1, BOX2)
        assert mesh.num_cells == 1
        topo = build_face_topology(mesh)
        assert topo.interior_count == 0
        assert topo.boundary_count == 4

    def test_n2(self):
        mesh = build_uniform_quad(2, BOX2)
        assert mesh.num_cells == 4
        topo = build_face_topology(mesh)
        assert topo.interior_count == 4

    def test_boundary_measure_is_perimeter(self):
        topo = build_face_topology(build_uniform_quad(2, BOX2))
        total = topo.measures[topo.boundary].sum()
        assert total == pytest.approx(8.0, rel=1e-14)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            build_uniform_quad(0, BOX2)


class TestUniformTet:
    def test_unit_cube_volume(self):
        mesh = build_uniform_tet(1)
        assert mesh.num_cells == 6
        assert mesh.measures.sum() == pytest.approx(1.0, rel=1e-14)

    def test_cell_count(self):
        assert build_uniform_tet(2).num_cells == 48

    def test_interior_faces_paired(self):
        mesh = build_uniform_tet(1)
        interior, boundary = brute_force_face_counts(mesh)
        topo = build_face_topology(mesh)
        assert (topo.interior_count, topo.boundary_count) == (interior, boundary)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            build_uniform_tet(0)


TWO_TRI_FILE = """# unit square from two triangles
dim 2 kind tri
vertices 4
-1 -1
1 -1
1 1
-1 1
cells 2
0 1 2
0 2 3
"""


class TestReadMesh:
    def test_round_trip_matches_builder(self):
        mesh = read_mesh(TWO_TRI_FILE)
        ref = build_uniform_tri(1, BOX2)
        assert mesh.num_cells == ref.num_cells
        assert np.sort(mesh.measures) == pytest.approx(np.sort(ref.measures))
        assert set(map(tuple, mesh.vertices.tolist())) == \
            set(map(tuple, ref.vertices.tolist()))

    def test_repeated_cell_rejected(self):
        bad = TWO_TRI_FILE.replace("0 2 3", "1 2 0")
        with pytest.raises(MeshError, match="duplicate"):
            read_mesh(bad)

    def test_clockwise_triangle_normalized(self):
        flipped = TWO_TRI_FILE.replace("0 1 2", "0 2 1")
        mesh = read_mesh(flipped)
        assert np.all(mesh.det_jac > 0)
        assert mesh.measures.sum() == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("old,new,line", [
        ("vertices 4", "vertices abc", 3),
        ("vertices 4", "vertices -1", 3),
        ("cells 2", "cells x", 8),
        ("vertices 4", "vertices 100000000000000", 3),
    ])
    def test_bad_count(self, old, new, line):
        with pytest.raises(MeshError, match=f"line {line}: bad count"):
            read_mesh(TWO_TRI_FILE.replace(old, new))

    def test_malformed_header(self):
        with pytest.raises(MeshError, match="line 2"):
            read_mesh("# comment\ndim 2 sort tri\nvertices 0\ncells 0\n")

    def test_out_of_range_index(self):
        bad = TWO_TRI_FILE.replace("0 2 3", "0 2 7")
        with pytest.raises(MeshError, match="line 10"):
            read_mesh(bad)

    def test_zero_measure_cell(self):
        bad = TWO_TRI_FILE.replace("0 1 2", "0 1 1")
        with pytest.raises(MeshError, match="line 9"):
            read_mesh(bad)

    def test_comments_ignored(self):
        commented = "\n".join("# note\n" + line for line in TWO_TRI_FILE.splitlines())
        assert read_mesh(commented).num_cells == 2


class TestRefineRed:
    def test_four_children(self):
        mesh = build_uniform_tri(1, BOX2)
        fine = refine_red(mesh)
        assert fine.num_cells == 8

    def test_child_diameters_halve(self):
        mesh = build_uniform_tri(1, BOX2)
        fine = refine_red(mesh)
        assert np.allclose(fine.diameters, mesh.diameters[0] / 2, rtol=1e-14)

    def test_area_conserved(self):
        mesh = read_mesh(TWO_TRI_FILE)
        fine = refine_red(mesh)
        assert fine.measures.sum() == pytest.approx(mesh.measures.sum(), rel=1e-14)

    def test_vertex_count_grows_by_edge_count(self):
        mesh = build_uniform_tri(2, BOX2)
        interior, boundary = brute_force_face_counts(mesh)
        fine = refine_red(mesh)
        assert fine.num_vertices == mesh.num_vertices + interior + boundary

    def test_non_triangle_rejected(self):
        with pytest.raises(MeshError):
            refine_red(build_uniform_quad(2, BOX2))


class TestFaceTopology:
    @pytest.mark.parametrize("mesh_fn", [
        lambda: build_uniform_tri(3, BOX2),
        lambda: build_uniform_quad(3, BOX2),
        lambda: build_uniform_tet(2),
    ])
    def test_normals_unit_and_oriented(self, mesh_fn):
        mesh = mesh_fn()
        topo = build_face_topology(mesh)
        assert np.abs(np.linalg.norm(topo.normals, axis=1) - 1.0).max() < 1e-14
        # every normal points out of its plus cell ...
        centers = mesh.vertices[topo.vertices].mean(axis=1)
        out = np.einsum("fd,fd->f", topo.normals, centers - mesh.centroids[topo.plus])
        assert np.all(out > 0)
        # ... and so on interior faces into the minus cell
        sl = topo.interior
        d = mesh.centroids[topo.minus[sl]] - mesh.centroids[topo.plus[sl]]
        assert np.all(np.einsum("fd,fd->f", topo.normals[sl], d) > 0)

    def test_interior_face_vertex_sets_coincide(self):
        mesh = build_uniform_tet(1)
        topo = build_face_topology(mesh)
        for i in range(topo.interior_count):
            for cell in (topo.plus[i], topo.minus[i]):
                cell_faces = [
                    tuple(sorted(int(mesh.cells[cell][j]) for j in idx))
                    for idx in LOCAL_FACES["tetrahedron"]
                ]
                assert tuple(sorted(topo.vertices[i].tolist())) in cell_faces

    @pytest.mark.parametrize("mesh_fn", [
        lambda: build_uniform_tri(5, BOX2),
        lambda: build_uniform_quad(4, BOX2),
        lambda: build_uniform_tet(2),
        lambda: relabelled(build_uniform_tri(6, BOX2), seed=3),
        lambda: relabelled(build_uniform_tet(2), seed=4),
        lambda: refine_red(shipped_mesh()),
    ], ids=["tri", "quad", "tet", "tri-relabelled", "tet-relabelled", "shipped"])
    def test_layout_matches_brute_force(self, mesh_fn):
        mesh = mesh_fn()
        topo = build_face_topology(mesh)
        interior, boundary = brute_force_face_counts(mesh)
        assert (topo.interior_count, topo.boundary_count) == (interior, boundary)
        assert topo.num_faces == interior + boundary
        assert np.all(topo.minus[topo.interior] >= 0)
        assert np.all(topo.minus[topo.boundary] == -1)
        plus, minus, verts = brute_force_faces(mesh)
        assert np.array_equal(topo.plus, plus)
        assert np.array_equal(topo.minus, minus)
        assert np.array_equal(topo.vertices, verts)
        # measures against the per-face norm, to a few ulps
        v = mesh.vertices[topo.vertices]
        if mesh.dim == 2:
            measures = [np.linalg.norm(f[1] - f[0]) for f in v]
        else:
            measures = [np.linalg.norm(np.cross(f[1] - f[0], f[2] - f[0])) / 2 for f in v]
        np.testing.assert_allclose(topo.measures, measures, rtol=4e-16)

    def test_face_shared_by_three_cells_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
        cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        mesh = Mesh(2, "triangle", verts, cells, np.array([[0.0, 1.0], [-1.0, 2.0]]))
        with pytest.raises(MeshError, match=r"face \(0, 1\) shared by more than two"):
            build_face_topology(mesh)

    def test_inverted_face_orientation_rejected(self):
        # both cells lie above their shared edge (0, 1)
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cells = np.array([[0, 1, 2], [1, 0, 3]])
        mesh = Mesh(2, "triangle", verts, cells, np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(MeshError, match="inverted face orientation between cells 0, 1"):
            build_face_topology(mesh)

    def test_hanging_node_rejected(self):
        text = """dim 2 kind tri
vertices 5
0 0
2 0
2 2
0 2
1 1
cells 3
0 2 3
0 1 4
1 2 4
"""
        mesh = read_mesh(text)
        with pytest.raises(MeshError, match="hanging"):
            build_face_topology(mesh)

    def test_face_quadrature_measures(self):
        mesh = build_uniform_tet(1)
        topo = build_face_topology(mesh)
        _, w = face_quadrature(mesh, topo, slice(None), 2)
        assert w.sum(axis=1) == pytest.approx(topo.measures, rel=1e-13)


class TestInvariants:
    @pytest.mark.parametrize("mesh_fn,measure", [
        (lambda: build_uniform_tri(4, BOX2), 4.0),
        (lambda: build_uniform_quad(5, BOX2), 4.0),
        (lambda: build_uniform_tet(2), 1.0),
    ])
    def test_cells_tile_box(self, mesh_fn, measure):
        mesh = mesh_fn()
        assert mesh.measures.sum() == pytest.approx(measure, rel=1e-12)

    def test_refine_preserves_area_and_quadruples(self):
        mesh = build_uniform_tri(2, BOX2)
        fine = refine_red(mesh)
        assert fine.num_cells == 4 * mesh.num_cells
        assert fine.measures.sum() == pytest.approx(mesh.measures.sum(), rel=1e-14)

    def test_shipped_unstructured_mesh(self):
        mesh = shipped_mesh()
        topo = build_face_topology(mesh)
        assert mesh.measures.sum() == pytest.approx(4.0, rel=1e-12)
        assert 3 * mesh.num_cells == 2 * topo.interior_count + topo.boundary_count
