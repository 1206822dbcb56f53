"""Icosahedral sphere triangulations and their radial extrusion into prism columns.

The base mesh is a geodesic refinement of the regular icosahedron with every
vertex projected onto the sphere of radius ``a``.  Extrusion stacks ``n_layers``
triangular prisms on top of each base triangle, giving a columnar mesh of the
spherical annulus with inner radius ``a`` and outer radius ``a + H``.

Cells are indexed column-major: all layers of one column are contiguous,
``cell = triangle * n_layers + layer``.  Vertices follow the same convention,
``vertex = base_vertex * (n_layers + 1) + interface``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BaseSphereMesh",
    "ExtrudedMesh",
    "FacetSet",
    "InvalidTopologyError",
    "build_icosahedral_sphere",
    "base_mesh_from_triangles",
    "extrude_radial",
    "classify_facets",
]

# Local edge k of a triangle is opposite local vertex k.
TRIANGLE_EDGE_VERTICES = ((1, 2), (0, 2), (0, 1))


class InvalidTopologyError(Exception):
    """Mesh connectivity is internally inconsistent."""


@dataclass(frozen=True)
class BaseSphereMesh:
    """Triangulation of the sphere of radius ``radius``.

    ``edges`` holds each undirected edge once as an ascending vertex pair;
    ``triangle_edges[t, k]`` is the global edge opposite local vertex ``k`` of
    triangle ``t``; ``edge_triangles[e]`` lists the one or two incident
    triangles (-1 marks a missing neighbour on open test meshes).
    """

    radius: float
    vertices: np.ndarray          # (nv, 3)
    triangles: np.ndarray         # (nt, 3) int
    edges: np.ndarray             # (ne, 2) int, ascending pairs
    triangle_edges: np.ndarray    # (nt, 3) int
    edge_triangles: np.ndarray    # (ne, 2) int

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def unit_vertices(self) -> np.ndarray:
        """Vertex directions, i.e. vertices scaled back to the unit sphere."""
        return self.vertices / np.linalg.norm(self.vertices, axis=1)[:, None]


def _icosahedron():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
         (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
         (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(
        [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
         (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
         (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
         (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)],
        dtype=int,
    )
    return verts, faces


def _first_seen(pairs):
    """Distinct unordered vertex pairs in order of first appearance.

    Returns the ascending pairs, first-seen first, and the row of that table
    each input pair maps to.
    """
    pairs = np.sort(pairs, axis=1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pairs[first[order]], rank[inverse.reshape(-1)]


def _subdivide(verts, faces):
    """Split each triangle into four, projecting midpoints to the unit sphere.

    Midpoints are numbered in first-seen order over the (ab, bc, ca) edges of
    each triangle.  They are normalised by ``sqrt(m . m)`` as a matmul, the
    arithmetic of ``np.linalg.norm`` on one vector; a batched
    ``norm(axis=1)`` differs in the last bit.
    """
    edges, at = _first_seen(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2))
    m = verts[edges[:, 0]] + verts[edges[:, 1]]
    m /= np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
    a, b, c = faces.T
    ab, bc, ca = (len(verts) + at.reshape(-1, 3)).T
    new_faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return np.concatenate([verts, m]), new_faces.reshape(-1, 3)


def base_mesh_from_triangles(vertices, triangles, radius=1.0) -> BaseSphereMesh:
    """Assemble a :class:`BaseSphereMesh` from raw vertex/triangle arrays.

    Derives the edge list and all incidence tables.  Raises
    :class:`InvalidTopologyError` if a vertex index lies outside
    ``[0, n_vertices)``, a triangle repeats a vertex, or an edge is shared by
    more than two triangles.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    if ((triangles < 0) | (triangles >= len(vertices))).any():
        raise InvalidTopologyError(f"vertex index outside [0, {len(vertices)})")
    if (np.diff(np.sort(triangles, axis=1), axis=1) == 0).any():
        raise InvalidTopologyError("triangle with a repeated vertex")

    edges, triangle_edges = _first_seen(triangles[:, TRIANGLE_EDGE_VERTICES].reshape(-1, 2))
    count = np.bincount(triangle_edges, minlength=len(edges))
    if (count > 2).any():
        e = np.argmax(count > 2)
        raise InvalidTopologyError(
            f"edge {e} {tuple(edges[e])} shared by more than two triangles"
        )

    # Incident triangles in order of appearance; a lone one leaves -1 second.
    order = np.argsort(triangle_edges, kind="stable")
    ids = triangle_edges[order]
    slot = np.arange(len(ids)) - np.searchsorted(ids, ids)
    edge_triangles = np.full((len(edges), 2), -1, dtype=int)
    edge_triangles[ids, slot] = order // 3

    return BaseSphereMesh(
        radius=float(radius),
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges.reshape(-1, 3),
        edge_triangles=edge_triangles,
    )


def build_icosahedral_sphere(refinement_level: int, radius: float = 1.0) -> BaseSphereMesh:
    """Geodesic icosahedral triangulation of the sphere of the given radius.

    Each refinement splits every triangle in four via edge midpoints projected
    back to the sphere, so level ``r`` has ``20 * 4**r`` triangles.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be >= 0")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    verts, faces = _icosahedron()
    for _ in range(refinement_level):
        verts, faces = _subdivide(verts, faces)
    return base_mesh_from_triangles(radius * verts, faces, radius=radius)


@dataclass(frozen=True)
class ExtrudedMesh:
    """Columnar prism mesh of the spherical annulus.

    Cell ``c`` sits in column ``c // n_layers`` at layer ``c % n_layers``.
    Its six vertices are the column's triangle vertices on the two bounding
    interfaces, bottom three first.
    """

    base: BaseSphereMesh
    layer_radii: np.ndarray       # (n_layers + 1,)
    vertex_coords: np.ndarray     # (nv * (n_layers + 1), 3)
    cell_vertices: np.ndarray = field(repr=False, default=None)  # (n_cells, 6) int

    @property
    def n_layers(self) -> int:
        return len(self.layer_radii) - 1

    @property
    def n_cells(self) -> int:
        return self.base.n_triangles * self.n_layers

    def cell_node_coords(self) -> np.ndarray:
        """Nodal coordinates of every cell, shape (n_cells, 6, 3)."""
        return self.vertex_coords[self.cell_vertices]


def extrude_radial(base: BaseSphereMesh, n_layers: int, thickness: float) -> ExtrudedMesh:
    """Extrude a sphere triangulation radially into uniform prism layers."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if not (math.isfinite(thickness) and thickness > 0):
        raise ValueError(f"thickness must be finite and positive, got {thickness}")

    a = base.radius
    layer_radii = a + thickness * np.arange(n_layers + 1) / n_layers
    unit = base.unit_vertices()

    # vertex (v, l) -> row v*(n_layers+1) + l
    vertex_coords = (layer_radii[None, :, None] * unit[:, None, :]).reshape(-1, 3)

    nt = base.n_triangles
    cells = np.empty((nt * n_layers, 6), dtype=int)
    tri = np.repeat(base.triangles, n_layers, axis=0)          # (n_cells, 3)
    lay = np.tile(np.arange(n_layers), nt)                     # (n_cells,)
    cells[:, :3] = tri * (n_layers + 1) + lay[:, None]
    cells[:, 3:] = tri * (n_layers + 1) + (lay + 1)[:, None]

    return ExtrudedMesh(
        base=base,
        layer_radii=layer_radii,
        vertex_coords=vertex_coords,
        cell_vertices=cells,
    )


@dataclass(frozen=True)
class FacetSet:
    """Classified facets of an extruded mesh.

    Horizontal facet ``t * (n_layers + 1) + l`` is the triangle of column ``t``
    at interface ``l``; ``horizontal_cells[f]`` holds (cell below, cell above),
    -1 if absent.  Vertical facet ``e * n_layers + l`` is the quadrilateral
    over base edge ``e`` at layer ``l``; ``vertical_cells[f]`` holds the
    adjacent cells in ascending order (-1 marks an open boundary on test
    meshes).  The global facet normal points from the first listed cell to
    the second; boundary facets take the outward normal.
    """

    mesh: ExtrudedMesh
    horizontal_cells: np.ndarray      # (nt*(L+1), 2) int
    vertical_cells: np.ndarray        # (ne*L, 2) int
    inner_boundary: np.ndarray        # horizontal facet ids at r0


def classify_facets(mesh: ExtrudedMesh) -> FacetSet:
    """Enumerate and classify all facets of an extruded mesh.

    Raises :class:`InvalidTopologyError` on inconsistent connectivity.
    """
    L = mesh.n_layers
    nt = mesh.base.n_triangles

    # Horizontal facets: one triangle per column per interface.
    horizontal_cells = np.full((nt * (L + 1), 2), -1, dtype=int)
    t = np.repeat(np.arange(nt), L + 1)
    l = np.tile(np.arange(L + 1), nt)
    below = l > 0
    above = l < L
    horizontal_cells[below, 0] = t[below] * L + l[below] - 1
    horizontal_cells[above, 1] = t[above] * L + l[above]

    # Vertical facets: one quad per base edge per layer.
    t0, t1 = mesh.base.edge_triangles.T
    if (t0 < 0).any():
        raise InvalidTopologyError(f"edge {np.argmax(t0 < 0)} has no incident triangle")
    c0 = t0[:, None] * L + np.arange(L)
    c1 = t1[:, None] * L + np.arange(L)
    open_ = (t1 < 0)[:, None]
    vertical_cells = np.stack(
        [np.where(open_, c0, np.minimum(c0, c1)), np.where(open_, -1, np.maximum(c0, c1))],
        axis=-1,
    ).reshape(-1, 2)

    pairs = vertical_cells[vertical_cells[:, 1] >= 0]
    if len(np.unique(pairs, axis=0)) != len(pairs):
        raise InvalidTopologyError("duplicate interior vertical facet cell pair")

    return FacetSet(
        mesh=mesh,
        horizontal_cells=horizontal_cells,
        vertical_cells=vertical_cells,
        inner_boundary=np.flatnonzero(l == 0),
    )
