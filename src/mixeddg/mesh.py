"""Meshes and face topology.

Triangle and tetrahedron meshes are one family, the Kuhn (Freudenthal) split
of a box's cube grid into dim! simplices per cube, nested from n to n/2; quad
meshes are the grid's squares.  Unstructured triangle meshes are read from
text files and refined by edge midpoints.  All cells are affine images of
their reference cell, positively oriented at build time.  Face topology is one
set of frozen arrays, paired by a single sort over the cells' face keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from typing import Callable

import numpy as np

from .polybasis import REF_MEASURE, simplex_quadrature

VERTS_PER_CELL = {"triangle": 3, "quad": 4, "tetrahedron": 4}

# local faces as tuples of local vertex indices
LOCAL_FACES = {
    "triangle": ((0, 1), (1, 2), (2, 0)),
    "quad": ((0, 1), (1, 2), (2, 3), (3, 0)),
    "tetrahedron": ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
}


# read_mesh's bound on coordinate magnitudes
MAX_COORDINATE = 1e50


class MeshError(ValueError):
    """Invalid mesh data (degenerate cells, broken topology, bad file)."""


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial or rectangular mesh of an axis-aligned box."""

    dim: int
    cell_kind: str
    vertices: np.ndarray    # (nv, dim)
    cells: np.ndarray       # (nc, verts_per_cell)
    domain_box: np.ndarray  # (dim, 2)
    # builds coarse_level; None for meshes without one
    coarsen: Callable | None = field(default=None, repr=False, compare=False)

    @cached_property
    def coarse_level(self):
        """(coarse mesh, parent coarse cell of each cell), built on first use.

        Each cell lies in its parent.  None when the mesh has no coarse level.
        """
        return None if self.coarsen is None else self.coarsen()

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.cells.shape[0]

    @cached_property
    def cell_v0(self) -> np.ndarray:
        return self.vertices[self.cells[:, 0]]

    @cached_property
    def jacobians(self) -> np.ndarray:
        """Affine map Jacobians, shape (nc, dim, dim); columns are edge vectors."""
        v = self.vertices[self.cells]  # (nc, nvc, dim)
        if self.cell_kind == "quad":
            cols = (v[:, 1] - v[:, 0], v[:, 3] - v[:, 0])
        else:
            cols = tuple(v[:, i] - v[:, 0] for i in range(1, v.shape[1]))
        return np.stack(cols, axis=-1)

    @cached_property
    def det_jac(self) -> np.ndarray:
        return np.linalg.det(self.jacobians)

    @cached_property
    def jac_inv(self) -> np.ndarray:
        if np.any(np.abs(self.det_jac) < 1e-300):
            raise MeshError("singular cell map (degenerate cell)")
        return np.linalg.inv(self.jacobians)

    @cached_property
    def measures(self) -> np.ndarray:
        return np.abs(self.det_jac) * REF_MEASURE[self.cell_kind]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.vertices[self.cells].mean(axis=1)

    @cached_property
    def diameters(self) -> np.ndarray:
        """h_K: maximum pairwise vertex distance of each cell."""
        v = self.vertices[self.cells]
        diff = v[:, :, None, :] - v[:, None, :, :]
        return np.sqrt((diff ** 2).sum(-1)).max(axis=(1, 2))

    @property
    def h_max(self) -> float:
        return float(self.diameters.max())


def _box_array(box) -> np.ndarray:
    b = np.asarray(box, dtype=float)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 1] <= b[:, 0]):
        raise MeshError(f"bad domain box {box!r}")
    return b


def _make_mesh(dim, kind, vertices, cells, box, coarsen=None) -> Mesh:
    vertices = np.ascontiguousarray(vertices, dtype=float)
    cells = np.ascontiguousarray(cells, dtype=np.int64)
    vertices.setflags(write=False)
    cells.setflags(write=False)
    box = _box_array(box)
    box.setflags(write=False)
    mesh = Mesh(dim, kind, vertices, cells, box, coarsen)
    _validate(mesh)
    return mesh


def _validate(mesh: Mesh) -> None:
    if mesh.cells.min(initial=0) < 0 or mesh.cells.max(initial=-1) >= mesh.num_vertices:
        raise MeshError("cell vertex index out of range")
    keys = np.sort(mesh.cells, axis=1)
    repeats = np.any(keys[:, 1:] == keys[:, :-1], axis=1)
    duplicate = np.ones(mesh.num_cells, bool)
    duplicate[np.unique(keys, axis=0, return_index=True)[1]] = False
    if np.any(repeats | duplicate):
        bad = int(np.argmax(repeats | duplicate))  # the first bad cell
        raise MeshError(f"cell {bad} repeats a vertex" if repeats[bad]
                        else f"duplicated cell {bad}")
    if mesh.cell_kind == "quad":
        v = mesh.vertices[mesh.cells]
        gap = v[:, 2] - v[:, 1] - v[:, 3] + v[:, 0]
        scale = mesh.diameters[:, None]
        if np.any(np.abs(gap) > 1e-12 * scale):
            raise MeshError("quad cells must be parallelograms (affine map)")
    if np.any(mesh.det_jac <= 0):
        bad = int(np.argmax(mesh.det_jac <= 0))
        raise MeshError(f"cell {bad} has non-positive measure")
    box_measure = float(np.prod(mesh.domain_box[:, 1] - mesh.domain_box[:, 0]))
    total = float(mesh.measures.sum())
    if abs(total - box_measure) > 1e-12 * box_measure:
        raise MeshError(
            f"cells do not tile the domain box: sum of measures {total} vs {box_measure}"
        )


def _box_grid(n: int, box):
    """The (n+1)^dim vertex grid on box and the lower corner, as a grid
    multi-index, of each of its n^dim cubes; both in row-major order."""
    if n < 1:
        raise MeshError("n must be >= 1")
    box = _box_array(box)
    axes = [np.linspace(lo, hi, n + 1) for lo, hi in box]
    verts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(box))
    corner = np.stack(np.meshgrid(*[np.arange(n)] * len(box), indexing="ij"), axis=-1)
    return box, verts, corner.reshape(-1, len(box))


@cache
def _kuhn(dim: int):
    """Kuhn's split of the unit cube into dim! simplices: the axis
    permutations in lexicographic order, and each one's path from the origin
    through unit steps along its axes in turn.  The odd permutations' paths
    are negatively oriented, so their last two vertices swap."""
    perms = np.array(list(itertools.permutations(range(dim))))
    paths = np.concatenate([np.zeros((len(perms), 1, dim), np.int64),
                            np.cumsum(np.eye(dim, dtype=np.int64)[perms], axis=1)], axis=1)
    odd = np.linalg.det(np.eye(dim)[perms]) < 0
    paths[odd, -2:] = paths[odd, :-3:-1]
    perms.setflags(write=False)
    paths.setflags(write=False)
    return perms, paths


def _kuhn_mesh(n: int, box, kind: str) -> Mesh:
    """The Kuhn split of the n^dim cubes of box, dim! simplices per cube, in
    _kuhn order; the cubes in row-major order.  With n even the mesh has a
    coarse level: the n/2 mesh."""
    dim = VERTS_PER_CELL[kind] - 1
    box, verts, corner = _box_grid(n, box)
    path = corner[:, None, None, :] + _kuhn(dim)[1]  # (cube, simplex, vertex, axis)
    cells = np.ravel_multi_index(np.moveaxis(path, -1, 0), (n + 1,) * dim)
    coarsen = partial(_kuhn_coarse_level, n, box, kind) if n % 2 == 0 else None
    return _make_mesh(dim, kind, verts, cells.reshape(-1, dim + 1), box, coarsen)


def _kuhn_coarse_level(n: int, box, kind: str):
    """_kuhn_mesh(n // 2) and the parent of each cell of _kuhn_mesh(n).

    Cube c lies in coarse cube c // 2, axis by axis.  Within it, the parent
    is the Kuhn simplex whose permutation sorts the fine centroid's local
    coordinates in decreasing order; 2 (dim + 1) times those coordinates are
    distinct integers, so the sort is exact.
    """
    dim = len(box)
    perms, paths = _kuhn(dim)
    corner = np.stack(np.unravel_index(np.arange(n ** dim), (n,) * dim), axis=-1)
    local = (dim + 1) * (corner[:, None] % 2) + paths.sum(axis=1)  # (cube, simplex, axis)
    code = dim ** np.arange(dim - 1, -1, -1)  # lexicographic rank of a permutation
    parent_kuhn = np.searchsorted(perms @ code, np.argsort(-local, axis=-1) @ code)
    parent_cube = np.ravel_multi_index(tuple((corner // 2).T), (n // 2,) * dim)
    parent = (len(perms) * parent_cube[:, None] + parent_kuhn).ravel()
    parent.setflags(write=False)
    return _kuhn_mesh(n // 2, box, kind), parent


def build_uniform_tri(n: int, box=((-1.0, 1.0), (-1.0, 1.0))) -> Mesh:
    """n-by-n grid of squares, each split by its lower-left/upper-right diagonal
    into (ll, lr, ur) and (ll, ur, ul).

    Square (i, j), with i the x-index, holds cells 2 (i n + j) and
    2 (i n + j) + 1, in that order.  With n even the mesh has a coarse level:
    the n/2 mesh.
    """
    return _kuhn_mesh(n, box, "triangle")


def build_uniform_quad(n: int, box=((-1.0, 1.0), (-1.0, 1.0))) -> Mesh:
    """n-by-n axis-aligned rectangles, corners (ll, lr, ur, ul)."""
    box, verts, corner = _box_grid(n, box)
    square = corner[:, None, :] + np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
    cells = np.ravel_multi_index(np.moveaxis(square, -1, 0), (n + 1, n + 1))
    return _make_mesh(2, "quad", verts, cells, box)


def build_uniform_tet(n: int, box=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))) -> Mesh:
    """n^3 cubes, each split into 6 tetrahedra along the main diagonal.

    Cells run over the cubes (i, j, k) in row-major order, six per cube, one
    per axis permutation in lexicographic order.  With n even the mesh has a
    coarse level: the n/2 mesh.
    """
    return _kuhn_mesh(n, box, "tetrahedron")


def refine_red(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 similar children by connecting edge midpoints.

    Cell c = (v0, v1, v2) has the children 4c .. 4c + 3: (v0, m01, m02),
    (m01, v1, m12), (m02, m12, v2) and (m01, m12, m02).  The midpoints follow
    the old vertices, in the order the cells first meet their edges.
    """
    if mesh.cell_kind != "triangle":
        raise MeshError("red refinement is implemented for triangle meshes only")
    edges = mesh.cells[:, [[0, 1], [1, 2], [0, 2]]].reshape(-1, 2)
    _, first, inverse = np.unique(np.sort(edges, axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)  # the edges in first-encounter order
    rank = np.argsort(order)
    mids = mesh.vertices[edges[first[order]]].sum(axis=1) / 2.0
    corners = np.concatenate(  # v0, v1, v2, m01, m12, m02
        [mesh.cells, mesh.num_vertices + rank[inverse.ravel()].reshape(-1, 3)], axis=1)
    cells = corners[:, [[0, 3, 5], [3, 1, 4], [5, 4, 2], [3, 4, 5]]].reshape(-1, 3)
    return _make_mesh(2, "triangle", np.concatenate([mesh.vertices, mids]), cells,
                      mesh.domain_box)


def read_mesh(text: str) -> Mesh:
    """Parse the whitespace-separated mesh file format.

    Format::

        dim <2|3> kind <tri|quad|tet>
        vertices <n>
        <n coordinate lines>
        cells <m>
        <m lines of 0-based vertex indices>

    Lines starting with '#' are ignored.  Coordinates must be finite and
    below MAX_COORDINATE in magnitude, so that no cell measure overflows.
    Simplex orientation is normalized to positive signed measure.  Any
    malformed input raises MeshError.
    """
    kinds = {"tri": "triangle", "quad": "quad", "tet": "tetrahedron"}
    lines = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip() and not line.strip().startswith("#")
    ]
    pos = 0

    def take(expect: str):
        nonlocal pos
        if pos >= len(lines):
            raise MeshError(f"unexpected end of file, expected {expect}")
        item = lines[pos]
        pos += 1
        return item

    lineno, header = take("header")
    tok = header.split()
    if len(tok) != 4 or tok[0] != "dim" or tok[2] != "kind" or tok[3] not in kinds:
        raise MeshError(f"line {lineno}: malformed header {header!r}")
    try:
        dim = int(tok[1])
    except ValueError:
        raise MeshError(f"line {lineno}: bad dimension {tok[1]!r}") from None
    kind = kinds[tok[3]]
    if dim not in (2, 3) or (dim == 3) != (kind == "tetrahedron"):
        raise MeshError(f"line {lineno}: dimension {dim} incompatible with kind {tok[3]}")

    lineno, decl = take("vertex count")
    tok = decl.split()
    if len(tok) != 2 or tok[0] != "vertices":
        raise MeshError(f"line {lineno}: expected 'vertices <n>', got {decl!r}")
    nv = _parse_count(lineno, tok[1], len(lines) - pos)
    verts = np.empty((nv, dim))
    for i in range(nv):
        lineno, row = take("vertex coordinates")
        vals = row.split()
        if len(vals) != dim:
            raise MeshError(f"line {lineno}: expected {dim} coordinates")
        try:
            verts[i] = [float(v) for v in vals]
        except ValueError:
            raise MeshError(f"line {lineno}: bad coordinate in {row!r}") from None
        if not np.all(np.abs(verts[i]) < MAX_COORDINATE):
            raise MeshError(f"line {lineno}: coordinate not finite or above "
                            f"{MAX_COORDINATE:.0e} in magnitude")

    lineno, decl = take("cell count")
    tok = decl.split()
    if len(tok) != 2 or tok[0] != "cells":
        raise MeshError(f"line {lineno}: expected 'cells <m>', got {decl!r}")
    nc = _parse_count(lineno, tok[1], len(lines) - pos)
    if nc == 0:
        raise MeshError(f"line {lineno}: a mesh needs at least one cell")
    nvc = VERTS_PER_CELL[kind]
    cells = np.empty((nc, nvc), dtype=np.int64)
    cell_lines = []
    for i in range(nc):
        lineno, row = take("cell indices")
        vals = row.split()
        if len(vals) != nvc:
            raise MeshError(f"line {lineno}: expected {nvc} vertex indices")
        try:
            cells[i] = [int(v) for v in vals]
        except (ValueError, OverflowError):
            raise MeshError(f"line {lineno}: bad vertex index in {row!r}") from None
        if cells[i].min() < 0 or cells[i].max() >= nv:
            raise MeshError(f"line {lineno}: vertex index out of range")
        cell_lines.append(lineno)

    _normalize_orientation(kind, verts, cells, cell_lines)
    box = np.stack([verts.min(axis=0), verts.max(axis=0)], axis=-1)
    try:
        return _make_mesh(dim, kind, verts, cells, box)
    except MeshError as exc:
        raise MeshError(f"invalid mesh: {exc}") from exc


def _parse_count(lineno: int, text: str, lines_left: int) -> int:
    count = int(text) if text.isdecimal() else -1
    if not 0 <= count <= lines_left:
        raise MeshError(f"line {lineno}: bad count {text!r}, expected 0 to {lines_left}")
    return count


def _normalize_orientation(kind, verts, cells, cell_lines):
    v = verts[cells]
    if kind == "quad":
        # shoelace area of each quadrilateral loop
        x, y = v[..., 0], v[..., 1]
        measure = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
    else:
        measure = np.linalg.det(np.swapaxes(v[:, 1:] - v[:, :1], 1, 2))
    zero = np.abs(measure) < 1e-300
    if np.any(zero):
        raise MeshError(f"line {cell_lines[np.argmax(zero)]}: zero-measure cell")
    flip = measure < 0
    if kind == "quad":
        cells[flip] = cells[flip, ::-1]
    else:
        cells[flip, -2:] = cells[flip][:, [-1, -2]]


@dataclass(frozen=True)
class FaceTopology:
    """Mesh faces as frozen arrays, interior faces first, then boundary faces,
    each in first-encounter (cell, local face) order.

    Face i lies between cells plus[i] and minus[i] (-1 on boundary faces);
    vertices[i] lists its vertex ids in the plus cell's local order.  The unit
    normals[i] points out of plus[i]: on interior faces from plus into minus,
    and n_minus = -n_plus by convention.
    """

    plus: np.ndarray      # (nf,)
    minus: np.ndarray     # (nf,)
    vertices: np.ndarray  # (nf, verts_per_face)
    normals: np.ndarray   # (nf, dim)
    measures: np.ndarray  # (nf,)
    interior_count: int

    @property
    def num_faces(self) -> int:
        return self.plus.shape[0]

    @property
    def interior(self) -> slice:
        return slice(0, self.interior_count)

    @property
    def boundary(self) -> slice:
        return slice(self.interior_count, self.num_faces)


def build_face_topology(mesh: Mesh) -> FaceTopology:
    """Pair cell faces by vertex sets; unmatched non-boundary faces are rejected."""
    local = np.array(LOCAL_FACES[mesh.cell_kind])
    # every (cell, local face) in encounter order, keyed by its sorted vertices
    verts = mesh.cells[:, local].reshape(-1, local.shape[1])
    keys = np.sort(verts, axis=1)
    _, first, inverse, counts = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True)
    occ = np.argsort(inverse.reshape(-1), kind="stable")  # occurrences grouped by face
    start = np.cumsum(counts) - counts
    shared = np.flatnonzero(counts > 2)
    if shared.size:
        third = occ[start[shared] + 2].min()  # where the cell loop meets a third cell
        raise MeshError(f"face {tuple(keys[third].tolist())} shared by more than two cells")

    enc = np.argsort(first)
    paired = counts[enc] == 2
    order = np.concatenate([enc[paired], enc[~paired]])
    n_int = int(paired.sum())
    occ_plus = first[order]
    plus = occ_plus // local.shape[0]
    minus = np.full(order.shape[0], -1, dtype=plus.dtype)
    minus[:n_int] = occ[start[order[:n_int]] + 1] // local.shape[0]
    fverts = verts[occ_plus]

    # batched matmul norms reproduce np.linalg.norm of each face bit for bit
    v = mesh.vertices[fverts]
    if mesh.dim == 2:
        t = v[:, 1] - v[:, 0]
        measures = np.sqrt(t[:, None, :] @ t[:, :, None])[:, 0, 0]
        normals = np.stack([t[:, 1], -t[:, 0]], axis=-1) / measures[:, None]
    else:
        cr = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        measures = np.sqrt(cr[:, None, :] @ cr[:, :, None])[:, 0, 0] / 2.0
        normals = cr / (2.0 * measures[:, None])
    fc = v.mean(axis=1)
    flip = np.einsum("fd,fd->f", normals, fc - mesh.centroids[plus]) < 0
    normals[flip] = -normals[flip]

    to_minus = mesh.centroids[minus[:n_int]] - mesh.centroids[plus[:n_int]]
    inverted = np.einsum("fd,fd->f", normals[:n_int], to_minus) <= 0
    box = mesh.domain_box
    tol = 1e-9 * float(np.max(box[:, 1] - box[:, 0]))
    fb = fc[n_int:]
    on_box = np.any((np.abs(fb - box[:, 0]) < tol) | (np.abs(fb - box[:, 1]) < tol), axis=1)
    bad = np.flatnonzero(np.concatenate([inverted, ~on_box]))
    if bad.size:
        f = bad[np.argmin(occ_plus[bad])]  # the first bad face in encounter order
        if f < n_int:
            raise MeshError(f"inverted face orientation between cells {plus[f]}, {minus[f]}")
        raise MeshError(f"unmatched interior face {tuple(keys[occ_plus[f]].tolist())}: "
                        "hanging nodes are not supported")

    for a in (plus, minus, fverts, normals, measures):
        a.setflags(write=False)
    return FaceTopology(plus, minus, fverts, normals, measures, n_int)


def all_cell_points(mesh: Mesh, ref_points: np.ndarray, cells=slice(None)) -> np.ndarray:
    """Physical images of reference points in every cell, or in the cells that
    `cells` (a slice or index array) selects; (nc, nq, d)."""
    return (mesh.cell_v0[cells][:, None, :]
            + ref_points @ mesh.jacobians[cells].transpose(0, 2, 1))


def side_ref_coords(mesh: Mesh, cells, x):
    """Reference coordinates of physical points x (n, nq, d) in cells (n,),
    such as face points in the cells on one side."""
    delta = x - mesh.cell_v0[cells][:, None, :]
    return np.einsum("Frs,Fqs->Fqr", mesh.jac_inv[cells], delta)


def face_quadrature(mesh: Mesh, topo: FaceTopology, faces, exactness: int):
    """Physical quadrature points (nf, nq, d) and weights (nf, nq) on the faces
    that `faces` (a slice or index array) selects from `topo`.

    1D Gauss on edges of 2D meshes, triangle rules on tet faces.
    """
    coords = mesh.vertices[topo.vertices[faces]]
    rule = simplex_quadrature(mesh.dim - 1, exactness)
    x = coords[:, None, 0, :]
    for j in range(mesh.dim - 1):
        x = x + rule.points[None, :, j, None] * (coords[:, j + 1] - coords[:, 0])[:, None, :]
    ref_measure = 1.0 if mesh.dim == 2 else 0.5
    w = rule.weights[None, :] * (topo.measures[faces][:, None] / ref_measure)
    return x, w
