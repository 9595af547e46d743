import itertools
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixeddg.mesh import (
    LOCAL_FACES,
    Mesh,
    MeshError,
    _make_mesh,
    build_face_topology,
    build_uniform_quad,
    build_uniform_tet,
    build_uniform_tri,
    face_quadrature,
    read_mesh,
    refine_red,
)

BOX2 = ((-1.0, 1.0), (-1.0, 1.0))
SKEWED_BOX2 = ((-1.0, 2.0), (0.5, 0.7))
BOX3 = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
SKEWED_BOX3 = ((-1.0, 2.0), (0.5, 0.7), (-3.0, -1.0))

SHIPPED_MESH = (resources.files("mixeddg") / "data/unstructured_square.msh").read_text()
# numbers at the edges of float and int64, words of the format, and junk
EDGE_FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "1_0"])
EDGE_INTS = st.sampled_from(["99999999999999999999", "-9223372036854775809", "-1", "\u0663"])
TOKENS = EDGE_FLOATS | EDGE_INTS | st.sampled_from(
    ["dim", "kind", "tri", "quad", "tet", "vertices", "cells", "#", "0", "1", "2", "3", "x", ""])
# text without hypothesis's unicode tables, which take seconds to build
ALPHABET = "0123456789 \t\n\r\x0b\x0c\x1c\x85\u2028.-+_e#abcdiklmnqrstuvx\u0663\u00a0"


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


def assert_cells_lie_in_parents(mesh, coarse_mesh):
    """mesh.coarse_level is coarse_mesh and 2^dim children in each parent."""
    coarse, parent = mesh.coarse_level
    children = 2 ** mesh.dim
    assert np.array_equal(coarse.vertices, coarse_mesh.vertices)
    assert np.array_equal(coarse.cells, coarse_mesh.cells)
    assert np.array_equal(np.bincount(parent, minlength=coarse.num_cells),
                          np.full(coarse.num_cells, children))
    # barycentric coordinates in the parent: every fine vertex in its
    # closure, the fine centroid strictly inside
    pts = np.concatenate([mesh.vertices[mesh.cells], mesh.centroids[:, None]], axis=1)
    ref = np.einsum("Frs,Fvs->Fvr", coarse.jac_inv[parent],
                    pts - coarse.cell_v0[parent][:, None, :])
    bary = np.concatenate([1.0 - ref.sum(-1, keepdims=True), ref], axis=-1)
    assert bary[:, :-1].min() >= -1e-12
    assert bary[:, -1].min() > 0.01
    assert np.allclose(mesh.measures, coarse.measures[parent] / children, rtol=1e-12)


class TestUniformTri:
    def test_smallest_split(self):
        mesh = build_uniform_tri(1, BOX2)
        assert mesh.num_cells == 2
        assert mesh.num_vertices == 4
        topo = build_face_topology(mesh)
        assert topo.interior_count == 1
        assert topo.num_faces - topo.interior_count == 4

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
        assert (topo.interior_count, topo.num_faces) == (interior, interior + boundary)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_h_formula(self, n):
        mesh = build_uniform_tri(n, BOX2)
        assert np.allclose(mesh.diameters, math.sqrt(2.0) * 2.0 / n, rtol=1e-13)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            build_uniform_tri(0, BOX2)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("box", [BOX2, SKEWED_BOX2], ids=["square", "skewed"])
    def test_matches_loop_reference(self, n, box):
        assert_same_mesh(build_uniform_tri(n, box), *loop_uniform_tri(n, box))

    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_cells_lie_in_parents(self, n):
        mesh = build_uniform_tri(n, SKEWED_BOX2)
        assert_cells_lie_in_parents(mesh, build_uniform_tri(n // 2, SKEWED_BOX2))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_n_has_no_coarse_level(self, n):
        assert build_uniform_tri(n, BOX2).coarse_level is None


class TestUniformQuad:
    def test_single_cell(self):
        mesh = build_uniform_quad(1, BOX2)
        assert mesh.num_cells == 1
        topo = build_face_topology(mesh)
        assert topo.interior_count == 0
        assert topo.num_faces - topo.interior_count == 4

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

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("box", [BOX2, SKEWED_BOX2], ids=["square", "skewed"])
    def test_matches_loop_reference(self, n, box):
        assert_same_mesh(build_uniform_quad(n, box), *loop_uniform_quad(n, box))


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
        assert (topo.interior_count, topo.num_faces) == (interior, interior + boundary)

    def test_rejects_zero(self):
        with pytest.raises(MeshError):
            build_uniform_tet(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("box", [BOX3, ((-1.0, 2.0), (0.5, 0.7), (-3.0, -1.0))],
                             ids=["unit", "skewed"])
    def test_matches_loop_reference(self, n, box):
        mesh = build_uniform_tet(n, box)
        verts, cells = loop_uniform_tet(n, box)
        assert np.array_equal(mesh.vertices, verts)
        assert mesh.cells.dtype == np.int64 and np.array_equal(mesh.cells, cells)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_cells_lie_in_parents(self, n):
        mesh = build_uniform_tet(n, ((-1.0, 2.0), (0.5, 0.7), (-3.0, -1.0)))
        assert_cells_lie_in_parents(mesh, build_uniform_tet(n // 2, mesh.domain_box))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_odd_n_has_no_coarse_level(self, n):
        assert build_uniform_tet(n).coarse_level is None

    def test_other_meshes_have_no_coarse_level(self):
        assert build_uniform_quad(4, BOX2).coarse_level is None
        assert refine_red(build_uniform_tri(2, BOX2)).coarse_level is None
        assert read_mesh(TWO_TRI_FILE).coarse_level is None


@pytest.mark.parametrize("build,n,box", [(build_uniform_tri, 16, SKEWED_BOX2),
                                         (build_uniform_tet, 8, SKEWED_BOX3)],
                         ids=["tri16", "tet8"])
def test_coarse_levels_nest_down_to_one(build, n, box):
    # the multilevel cycle recurses through these levels: each one's cells lie
    # in the next coarser one's, down to n=1, which has no coarse level
    mesh = build(n, box)
    while n > 1:
        assert_cells_lie_in_parents(mesh, build(n // 2, box))
        mesh, n = mesh.coarse_level[0], n // 2
    assert mesh.num_cells == math.factorial(mesh.dim) and mesh.coarse_level is None


KUHN_PERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def loop_uniform_tet(n, box):
    """build_uniform_tet's vertices and cells, one tet at a time: the
    reference that its array construction must reproduce bit for bit."""
    box = np.asarray(box, dtype=float)
    axes = [np.linspace(box[d, 0], box[d, 1], n + 1) for d in range(3)]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)

    def vid(i, j, k):
        return (i * (n + 1) + j) * (n + 1) + k

    cells = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                corner = np.array([i, j, k])
                for perm in KUHN_PERMS:
                    path = [corner.copy()]
                    for axis in perm:
                        nxt = path[-1].copy()
                        nxt[axis] += 1
                        path.append(nxt)
                    tet = [vid(*p) for p in path]
                    a, b, c, d = (verts[t] for t in tet)
                    if np.linalg.det(np.stack([b - a, c - a, d - a], axis=-1)) < 0:
                        tet[2], tet[3] = tet[3], tet[2]
                    cells.append(tuple(tet))
    return verts, np.array(cells, dtype=np.int64)


def assert_same_mesh(mesh, verts, cells):
    assert np.array_equal(mesh.vertices, verts)
    assert mesh.cells.dtype == cells.dtype == np.int64
    assert np.array_equal(mesh.cells, cells)


def loop_grid(n, box):
    box = np.asarray(box, dtype=float)
    xs = np.linspace(box[0, 0], box[0, 1], n + 1)
    ys = np.linspace(box[1, 0], box[1, 1], n + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def loop_uniform_tri(n, box):
    """build_uniform_tri's vertices and cells, one square at a time: the
    reference that its array construction must reproduce bit for bit."""
    verts = loop_grid(n, box)

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            ll, lr = vid(i, j), vid(i + 1, j)
            ul, ur = vid(i, j + 1), vid(i + 1, j + 1)
            cells.append((ll, lr, ur))
            cells.append((ll, ur, ul))
    return verts, np.array(cells, dtype=np.int64)


def loop_uniform_quad(n, box):
    """build_uniform_quad's vertices and cells, one square at a time."""
    verts = loop_grid(n, box)

    def vid(i, j):
        return i * (n + 1) + j

    cells = []
    for i in range(n):
        for j in range(n):
            cells.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return verts, np.array(cells, dtype=np.int64)


def loop_refine_red(mesh):
    """refine_red's vertices and cells, one cell and edge midpoint at a time."""
    verts = list(map(tuple, mesh.vertices))
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        idx = midpoint.get(key)
        if idx is None:
            idx = len(verts)
            verts.append(tuple((mesh.vertices[a] + mesh.vertices[b]) / 2.0))
            midpoint[key] = idx
        return idx

    cells = []
    for v0, v1, v2 in mesh.cells:
        m01, m12, m02 = mid(v0, v1), mid(v1, v2), mid(v0, v2)
        cells.extend([(v0, m01, m02), (m01, v1, m12), (m02, m12, v2), (m01, m12, m02)])
    return np.array(verts), np.array(cells, dtype=np.int64)


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

    def test_first_zero_measure_cell_named(self):
        # the 2nd and 4th cells of the n=2 grid flattened onto grid lines
        mesh = build_uniform_tri(2, BOX2)
        cells = mesh.cells.copy()
        cells[1], cells[3] = (0, 3, 6), (1, 4, 7)
        lines = ["dim 2 kind tri", "vertices 9"]
        lines += [" ".join(map(repr, row)) for row in mesh.vertices.tolist()]
        lines += ["cells 8"] + [" ".join(map(str, row)) for row in cells.tolist()]
        with pytest.raises(MeshError, match="^line 14: zero-measure cell$"):
            read_mesh("\n".join(lines))

    def test_comments_ignored(self):
        commented = "\n".join("# note\n" + line for line in TWO_TRI_FILE.splitlines())
        assert read_mesh(commented).num_cells == 2

    @pytest.mark.parametrize("old,new,match", [
        ("\n1 -1\n", "\n1e308 -1\n", "line 5: coordinate"),
        ("\n1 -1\n", "\nnan -1\n", "line 5: coordinate"),
        ("\n1 -1\n", "\n1 -inf\n", "line 5: coordinate"),
        ("0 2 3", "0 2 99999999999999999999", "line 10: bad vertex index"),
        ("cells 2\n0 1 2\n0 2 3", "cells 0", "line 8: a mesh needs at least one cell"),
    ], ids=["overflow", "nan", "inf", "index-overflow", "no-cells"])
    def test_bad_values_rejected(self, old, new, match):
        with pytest.raises(MeshError, match=match):
            read_mesh(TWO_TRI_FILE.replace(old, new))

    def test_no_vertices_rejected(self):
        with pytest.raises(MeshError, match="at least one cell"):
            read_mesh("dim 2 kind tri\nvertices 0\ncells 0\n")

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.one_of(st.text(ALPHABET), st.lists(st.lists(TOKENS, max_size=5), max_size=12).map(
        lambda rows: "\n".join(" ".join(row) for row in rows))))
    def test_arbitrary_text_gives_mesh_or_mesh_error(self, text):
        assert_mesh_or_mesh_error(text)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_mutated_shipped_mesh_gives_mesh_or_mesh_error(self, data):
        lines = SHIPPED_MESH.splitlines()
        first_vertex = next(i for i, ln in enumerate(lines) if ln.startswith("vertices")) + 1
        first_cell = next(i for i, ln in enumerate(lines) if ln.startswith("cells")) + 1
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["coordinate", "index", "drop", "repeat", "line"]))
            if op == "coordinate":
                i = data.draw(st.integers(first_vertex, first_cell - 2))
                value = data.draw(EDGE_FLOATS | st.floats().map(repr))
            elif op == "index":
                i = data.draw(st.integers(first_cell, len(lines) - 1))
                value = data.draw(EDGE_INTS | st.integers(-2 ** 70, 2 ** 70).map(str))
            else:
                i = data.draw(st.integers(0, len(lines) - 1))
            if op in ("coordinate", "index"):
                tokens = lines[i].split()
                tokens[data.draw(st.integers(0, len(tokens) - 1))] = value
                lines[i] = " ".join(tokens)
            elif op == "drop":
                del lines[i]
            elif op == "repeat":
                lines.insert(i, lines[i])
            else:
                lines[i] = " ".join(data.draw(st.lists(TOKENS, max_size=5)))
        assert_mesh_or_mesh_error("\n".join(lines))


def assert_mesh_or_mesh_error(text):
    """read_mesh returns a Mesh of finite vertices or raises MeshError, nothing else."""
    try:
        mesh = read_mesh(text)
    except MeshError:
        return
    assert isinstance(mesh, Mesh)
    assert np.all(np.isfinite(mesh.vertices))


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

    @pytest.mark.parametrize("mesh_fn,times", [
        (shipped_mesh, 3),
        (lambda: build_uniform_tri(1, BOX2), 1),
        (lambda: build_uniform_tri(3, SKEWED_BOX2), 1),
        (lambda: build_uniform_tri(8, BOX2), 1),
    ], ids=["shipped", "tri1", "tri3", "tri8"])
    def test_matches_loop_reference(self, mesh_fn, times):
        # each refinement against the loop applied to the same coarse mesh
        mesh = mesh_fn()
        for _ in range(times):
            fine = refine_red(mesh)
            assert_same_mesh(fine, *loop_refine_red(mesh))
            mesh = fine


class TestValidate:
    @pytest.mark.parametrize("repeat,duplicate,match", [
        (3, 5, "cell 3 repeats a vertex"),
        (None, 5, "duplicated cell 5"),
        (5, 3, "duplicated cell 3"),
    ], ids=["repeat-first", "duplicate-only", "duplicate-first"])
    def test_first_bad_cell_named(self, repeat, duplicate, match):
        mesh = build_uniform_tri(2, BOX2)
        cells = mesh.cells.copy()
        if repeat is not None:
            cells[repeat, 2] = cells[repeat, 0]
        cells[duplicate] = np.roll(cells[1], 1)
        with pytest.raises(MeshError, match=f"^{match}$"):
            _make_mesh(2, "triangle", mesh.vertices, cells, BOX2)


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
        assert (topo.interior_count, topo.num_faces) == (interior, interior + boundary)
        assert topo.num_faces == interior + boundary
        assert np.all(topo.minus[topo.interior] >= 0)
        assert np.all(topo.minus[topo.boundary] == -1)
        # first-encounter order, which the assembly's face-order sums rely on
        assert np.all(topo.plus[topo.interior] < topo.minus[topo.interior])
        assert np.all(np.diff(topo.plus[topo.interior]) >= 0)
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
        assert 3 * mesh.num_cells == topo.interior_count + topo.num_faces
