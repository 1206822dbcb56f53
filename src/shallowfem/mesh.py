"""Icosahedral sphere triangulations and their radial extrusion into prism columns.

The base mesh is a geodesic refinement of the regular icosahedron with every
vertex projected onto the sphere of radius ``a``.  Extrusion stacks ``n_layers``
triangular prisms on top of each base triangle, giving a columnar mesh of the
spherical annulus with inner radius ``a`` and outer radius ``a + H``.

Cells are indexed column-major: all layers of one column are contiguous,
``cell = triangle * n_layers + layer``.  Vertices follow the same convention,
``vertex = base_vertex * (n_layers + 1) + interface``.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MeshConfig",
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
class MeshConfig:
    """Parameters of the spherical annulus mesh."""

    inner_radius: float = 1.0
    thickness: float = 1.0
    refinement_level: int = 0
    n_layers: int = 1

    def __post_init__(self):
        if self.inner_radius <= 0:
            raise ValueError(f"inner_radius must be positive, got {self.inner_radius}")
        if self.thickness <= 0:
            raise ValueError(f"thickness must be positive, got {self.thickness}")
        if self.refinement_level < 0:
            raise ValueError("refinement_level must be >= 0")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")

    @property
    def outer_radius(self) -> float:
        return self.inner_radius + self.thickness


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
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

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


def _subdivide(verts, faces):
    """Split each triangle into four, projecting midpoints to the unit sphere."""
    verts = [v for v in verts]
    midpoint = {}

    def mid(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoint:
            m = verts[i] + verts[j]
            verts.append(m / np.linalg.norm(m))
            midpoint[key] = len(verts) - 1
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.array(verts), np.array(new_faces, dtype=int)


def base_mesh_from_triangles(vertices, triangles, radius=1.0) -> BaseSphereMesh:
    """Assemble a :class:`BaseSphereMesh` from raw vertex/triangle arrays.

    Derives the edge list and all incidence tables.  Raises
    :class:`InvalidTopologyError` if an edge is shared by more than two
    triangles.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=int)

    edge_index = {}
    triangle_edges = np.empty((len(triangles), 3), dtype=int)
    for t, tri in enumerate(triangles):
        for k, (i, j) in enumerate(TRIANGLE_EDGE_VERTICES):
            a, b = int(tri[i]), int(tri[j])
            key = (a, b) if a < b else (b, a)
            if key not in edge_index:
                edge_index[key] = len(edge_index)
            triangle_edges[t, k] = edge_index[key]

    edges = np.array(sorted(edge_index, key=lambda k: edge_index[k]), dtype=int)
    edges = edges.reshape(-1, 2)

    edge_triangles = np.full((len(edges), 2), -1, dtype=int)
    for t in range(len(triangles)):
        for e in triangle_edges[t]:
            if edge_triangles[e, 0] == -1:
                edge_triangles[e, 0] = t
            elif edge_triangles[e, 1] == -1:
                edge_triangles[e, 1] = t
            else:
                raise InvalidTopologyError(
                    f"edge {e} {tuple(edges[e])} shared by more than two triangles"
                )

    return BaseSphereMesh(
        radius=float(radius),
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        triangle_edges=triangle_edges,
        edge_triangles=edge_triangles,
    )


def build_icosahedral_sphere(refinement_level: int, radius: float = 1.0) -> BaseSphereMesh:
    """Geodesic icosahedral triangulation of the sphere of the given radius.

    Each refinement splits every triangle in four via edge midpoints projected
    back to the sphere, so level ``r`` has ``20 * 4**r`` triangles.
    """
    if refinement_level < 0:
        raise ValueError("refinement_level must be >= 0")
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

    @property
    def inner_radius(self) -> float:
        return float(self.layer_radii[0])

    @property
    def outer_radius(self) -> float:
        return float(self.layer_radii[-1])

    def cell_triangle(self, cells):
        return np.asarray(cells) // self.n_layers

    def cell_layer(self, cells):
        return np.asarray(cells) % self.n_layers

    def vertex_id(self, base_vertex, interface):
        return np.asarray(base_vertex) * (self.n_layers + 1) + np.asarray(interface)

    def cell_node_coords(self) -> np.ndarray:
        """Nodal coordinates of every cell, shape (n_cells, 6, 3)."""
        return self.vertex_coords[self.cell_vertices]


def extrude_radial(base: BaseSphereMesh, n_layers: int, thickness: float) -> ExtrudedMesh:
    """Extrude a sphere triangulation radially into uniform prism layers."""
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if thickness <= 0:
        raise ValueError("thickness must be positive")

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
    outer_boundary: np.ndarray        # horizontal facet ids at rL
    interior_horizontal: np.ndarray   # horizontal facet ids strictly inside
    interior_vertical: np.ndarray     # vertical facet ids with two cells
    boundary_vertical: np.ndarray     # vertical facet ids with one cell

    @property
    def n_horizontal(self) -> int:
        return len(self.horizontal_cells)

    @property
    def n_vertical(self) -> int:
        return len(self.vertical_cells)


def classify_facets(mesh: ExtrudedMesh) -> FacetSet:
    """Enumerate and classify all facets of an extruded mesh.

    Raises :class:`InvalidTopologyError` on inconsistent connectivity.
    """
    base = mesh.base
    L = mesh.n_layers
    nt, ne = base.n_triangles, base.n_edges

    # Horizontal facets: one triangle per column per interface.
    horizontal_cells = np.full((nt * (L + 1), 2), -1, dtype=int)
    t = np.repeat(np.arange(nt), L + 1)
    l = np.tile(np.arange(L + 1), nt)
    below = l > 0
    above = l < L
    horizontal_cells[below, 0] = t[below] * L + l[below] - 1
    horizontal_cells[above, 1] = t[above] * L + l[above]

    hid = np.arange(nt * (L + 1))
    inner = hid[l == 0]
    outer = hid[l == L]
    interior_h = hid[(l > 0) & (l < L)]

    # Vertical facets: one quad per base edge per layer.
    vertical_cells = np.full((ne * L, 2), -1, dtype=int)
    for e in range(ne):
        t0, t1 = base.edge_triangles[e]
        if t0 == -1:
            raise InvalidTopologyError(f"edge {e} has no incident triangle")
        for lay in range(L):
            f = e * L + lay
            c0 = t0 * L + lay
            if t1 == -1:
                vertical_cells[f] = (c0, -1)
            else:
                c1 = t1 * L + lay
                vertical_cells[f] = (min(c0, c1), max(c0, c1))

    vid = np.arange(ne * L)
    has_two = vertical_cells[:, 1] >= 0
    interior_v = vid[has_two]
    boundary_v = vid[~has_two]

    pairs = vertical_cells[has_two]
    if len(np.unique(pairs, axis=0)) != len(pairs):
        raise InvalidTopologyError("duplicate interior vertical facet cell pair")

    return FacetSet(
        mesh=mesh,
        horizontal_cells=horizontal_cells,
        vertical_cells=vertical_cells,
        inner_boundary=inner,
        outer_boundary=outer,
        interior_horizontal=interior_h,
        interior_vertical=interior_v,
        boundary_vertical=boundary_v,
    )
