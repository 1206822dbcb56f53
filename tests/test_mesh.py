import numpy as np
import pytest

from shallowfem import mesh


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_icosahedral_counts(r):
    """Geodesic refinement: V = 10*4^r + 2, F = 20*4^r, E = 30*4^r."""
    base = mesh.build_icosahedral_sphere(r, 1.0)
    assert len(base.vertices) == 10 * 4**r + 2
    assert len(base.triangles) == 20 * 4**r
    assert len(base.edges) == 30 * 4**r


@pytest.mark.parametrize("r", [0, 1, 2])
def test_euler_characteristic(r):
    base = mesh.build_icosahedral_sphere(r, 1.0)
    chi = len(base.vertices) - len(base.edges) + len(base.triangles)
    assert chi == 2


@pytest.mark.parametrize("radius", [1.0, 6371.2])
def test_vertices_on_sphere(radius):
    base = mesh.build_icosahedral_sphere(2, radius)
    norms = np.linalg.norm(base.vertices, axis=1)
    np.testing.assert_allclose(norms, radius, rtol=1e-14)


def test_every_edge_shared_by_two_triangles(icosa_r1):
    # closed surface: edge_triangles has no -1 entries
    assert icosa_r1.edge_triangles.shape == (len(icosa_r1.edges), 2)
    assert (icosa_r1.edge_triangles >= 0).all()


def test_triangle_edges_consistent(icosa_r0):
    # triangle_edges[t, i] is the edge opposite local vertex i
    tris = icosa_r0.triangles
    for t in range(len(tris)):
        for i, (p, q) in enumerate(((1, 2), (0, 2), (0, 1))):
            e = icosa_r0.triangle_edges[t, i]
            assert set(icosa_r0.edges[e]) == {tris[t, p], tris[t, q]}


def test_mesh_config_validation(icosa_r0):
    """The mesh builders reject out-of-range parameters; the command line
    rejects non-positive radii (see test_cli)."""
    for thickness in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            mesh.extrude_radial(icosa_r0, 1, thickness)
    for radius in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            mesh.build_icosahedral_sphere(0, radius)
    with pytest.raises(ValueError):
        mesh.build_icosahedral_sphere(-1)
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 0, 1.0)


@pytest.mark.parametrize("thickness, layers", [(1e-17, 1), (1e-14, 100)])
def test_a_shell_too_thin_for_float64_is_named(icosa_r0, thickness, layers):
    """Layer radii a + H l / L that round to equal values would give flat
    cells; the error names the thickness, the radius and the layer count."""
    with pytest.raises(ValueError, match=f"thickness {thickness!r} is too thin for float64 "
                                         f"at radius 1.0 with {layers} layers"):
        mesh.extrude_radial(icosa_r0, layers, thickness)
    assert (np.diff(mesh.extrude_radial(icosa_r0, 1, 1e-15).layer_radii) > 0).all()


def test_mesh_config_outer_radius():
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(0, radius=2.0), 3, 0.5)
    assert m.layer_radii[0] == 2.0 and m.layer_radii[-1] == 2.5


def test_extrusion_counts(annulus_r1_l2):
    base = annulus_r1_l2.base
    L = 2
    assert annulus_r1_l2.n_layers == L
    assert annulus_r1_l2.n_cells == len(base.triangles) * L
    assert annulus_r1_l2.vertex_coords.shape == (len(base.vertices) * (L + 1), 3)
    assert annulus_r1_l2.cell_vertices.shape == (annulus_r1_l2.n_cells, 6)


def test_layer_radii_uniform(icosa_r0):
    m = mesh.extrude_radial(icosa_r0, 4, 2.0)
    np.testing.assert_allclose(m.layer_radii, 1.0 + 0.5 * np.arange(5), rtol=0, atol=1e-15)


def test_cell_vertex_radii(annulus_r1_l2):
    """Bottom triple sits on the layer-l shell, top triple on layer l+1."""
    m = annulus_r1_l2
    L = m.n_layers
    r = np.linalg.norm(m.vertex_coords[m.cell_vertices], axis=2)
    for cell in range(m.n_cells):
        lay = cell % L
        np.testing.assert_allclose(r[cell, :3], m.layer_radii[lay], rtol=1e-13)
        np.testing.assert_allclose(r[cell, 3:], m.layer_radii[lay + 1], rtol=1e-13)


def test_cell_columns_share_base_triangle(annulus_r1_l2):
    m = annulus_r1_l2
    L = m.n_layers
    nv1 = len(m.base.vertices)
    for tri in range(len(m.base.triangles)):
        for lay in range(L):
            cell = tri * L + lay
            base_ids = m.cell_vertices[cell, :3] // (L + 1)
            np.testing.assert_array_equal(np.sort(base_ids), np.sort(m.base.triangles[tri]))
    assert nv1 * (L + 1) == len(m.vertex_coords)


def test_extrude_validation(icosa_r0):
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 0, 1.0)
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 2, -1.0)


def test_facet_counts(facets_r1_l2):
    f = facets_r1_l2
    m = f.mesh
    nf = len(m.base.triangles)
    ne = len(m.base.edges)
    L = m.n_layers
    assert len(f.horizontal_cells) == nf * (L + 1)
    assert len(f.vertical_cells) == ne * L
    above = f.horizontal_cells[:, 1] >= 0
    below = f.horizontal_cells[:, 0] >= 0
    assert len(f.inner_boundary) == nf
    assert np.count_nonzero(~above) == nf
    assert np.count_nonzero(above & below) == nf * (L - 1)
    assert np.count_nonzero(f.vertical_cells[:, 1] >= 0) == ne * L
    assert np.count_nonzero(f.vertical_cells[:, 1] < 0) == 0


def test_horizontal_facet_cell_pairs(facets_r1_l2):
    """Horizontal facet tri*(L+1)+l lists (cell below, cell above)."""
    f = facets_r1_l2
    L = f.mesh.n_layers
    for tri in (0, 5):
        for lay in range(L + 1):
            below, above = f.horizontal_cells[tri * (L + 1) + lay]
            assert below == (tri * L + lay - 1 if lay > 0 else -1)
            assert above == (tri * L + lay if lay < L else -1)


def test_vertical_facet_cells_ascend(facets_r1_l2):
    pairs = facets_r1_l2.vertical_cells
    interior = pairs[(pairs >= 0).all(axis=1)]
    assert (interior[:, 0] < interior[:, 1]).all()


def test_boundary_facet_layers(facets_r1_l2):
    f = facets_r1_l2
    L = f.mesh.n_layers
    outer_boundary = np.flatnonzero(f.horizontal_cells[:, 1] < 0)
    assert (f.inner_boundary % (L + 1) == 0).all()
    assert (outer_boundary % (L + 1) == L).all()


def test_open_mesh_has_boundary_vertical_facets(single_prism):
    f = mesh.classify_facets(single_prism)
    # a lone column: all three vertical facets are boundary
    assert np.count_nonzero(f.vertical_cells[:, 1] < 0) == 3
    assert np.count_nonzero(f.vertical_cells[:, 1] >= 0) == 0
    assert (f.vertical_cells[:, 1] == -1).all()


def test_nonmanifold_edge_rejected():
    verts = np.array(
        [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0, -1.0, 0], [-1.0, 0, 0]]
    )
    tris = np.array([[0, 1, 2], [0, 2, 3], [0, 2, 4]])  # edge (0,2) used thrice
    with pytest.raises(mesh.InvalidTopologyError):
        mesh.base_mesh_from_triangles(verts, tris)


def test_refinement_nests_vertices(icosa_r0, icosa_r1):
    """Level r vertices appear (up to projection) in level r+1."""
    d = np.linalg.norm(icosa_r1.vertices[None, :, :] - icosa_r0.vertices[:, None, :], axis=2)
    assert (d.min(axis=1) < 1e-12).all()


def test_repeated_triangle_vertex_rejected():
    verts = np.eye(3)
    with pytest.raises(mesh.InvalidTopologyError):
        mesh.base_mesh_from_triangles(verts, np.array([[0, 0, 1]]))


@pytest.mark.parametrize("bad", [-1, 3, 5])
def test_vertex_index_out_of_range_rejected(bad):
    verts = np.eye(3)
    with pytest.raises(mesh.InvalidTopologyError):
        mesh.base_mesh_from_triangles(verts, np.array([[0, 1, bad]]))


# ---------------------------------------------------------------------------
# the topology as dict and loop code (exact oracles)
# ---------------------------------------------------------------------------

def dict_subdivide(verts, faces):
    """Midpoint refinement with a dict of the edges seen so far."""
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


def loop_edge_tables(triangles):
    """(edges, triangle_edges, edge_triangles), one triangle at a time."""
    edge_index = {}
    triangle_edges = np.empty((len(triangles), 3), dtype=int)
    for t, tri in enumerate(triangles):
        for k, (i, j) in enumerate(mesh.TRIANGLE_EDGE_VERTICES):
            a, b = int(tri[i]), int(tri[j])
            key = (a, b) if a < b else (b, a)
            if key not in edge_index:
                edge_index[key] = len(edge_index)
            triangle_edges[t, k] = edge_index[key]
    edges = np.array(sorted(edge_index, key=lambda k: edge_index[k]), dtype=int).reshape(-1, 2)
    edge_triangles = np.full((len(edges), 2), -1, dtype=int)
    for t in range(len(triangles)):
        for e in triangle_edges[t]:
            edge_triangles[e, 0 if edge_triangles[e, 0] == -1 else 1] = t
    return edges, triangle_edges, edge_triangles


def loop_facets(edge_triangles, nt, L):
    """(horizontal_cells, vertical_cells, inner_boundary), one facet at a time."""
    horizontal_cells = np.full((nt * (L + 1), 2), -1, dtype=int)
    for t in range(nt):
        for lay in range(L + 1):
            if lay > 0:
                horizontal_cells[t * (L + 1) + lay, 0] = t * L + lay - 1
            if lay < L:
                horizontal_cells[t * (L + 1) + lay, 1] = t * L + lay
    vertical_cells = np.full((len(edge_triangles) * L, 2), -1, dtype=int)
    for e, (t0, t1) in enumerate(edge_triangles):
        for lay in range(L):
            c0 = t0 * L + lay
            if t1 == -1:
                vertical_cells[e * L + lay] = (c0, -1)
            else:
                c1 = t1 * L + lay
                vertical_cells[e * L + lay] = (min(c0, c1), max(c0, c1))
    return horizontal_cells, vertical_cells, np.arange(nt * (L + 1))[:: L + 1]


def assert_identical(x, y):
    np.testing.assert_array_equal(x, y, strict=True)


def assert_topology_matches_loops(base, layers=(1, 2, 8)):
    edges, triangle_edges, edge_triangles = loop_edge_tables(base.triangles)
    assert_identical(base.edges, edges)
    assert_identical(base.triangle_edges, triangle_edges)
    assert_identical(base.edge_triangles, edge_triangles)
    oracle_base = mesh.BaseSphereMesh(
        base.radius, base.vertices, base.triangles, edges, triangle_edges, edge_triangles
    )
    for L in layers:
        m = mesh.extrude_radial(base, L, 1.0)
        m_ref = mesh.extrude_radial(oracle_base, L, 1.0)
        for name in ("layer_radii", "layer_heights", "vertex_coords", "cell_vertices"):
            assert_identical(getattr(m, name), getattr(m_ref, name))
        f = mesh.classify_facets(m)
        ref = loop_facets(edge_triangles, base.n_triangles, L)
        for name, want in zip(("horizontal_cells", "vertical_cells", "inner_boundary"), ref):
            assert_identical(getattr(f, name), want)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("r", range(5))
def test_topology_matches_loop_oracles(r, a):
    """Every mesh and facet array is exactly what the dict and loop code gives."""
    verts, faces = mesh._icosahedron()
    for _ in range(r):
        verts, faces = dict_subdivide(verts, faces)
    base = mesh.build_icosahedral_sphere(r, a)
    assert_identical(base.vertices, a * verts)
    assert_identical(base.triangles, faces)
    assert_topology_matches_loops(base)


def test_open_mesh_topology_matches_loop_oracles(single_prism):
    assert_topology_matches_loops(single_prism.base)


def unique_rows_first_seen(pairs):
    """``mesh._first_seen`` on ``np.unique(axis=0)``: the row-wise oracle of
    its integer keys."""
    pairs = np.sort(pairs, axis=1)
    _, first, inverse = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return pairs[first[order]], rank[inverse.reshape(-1)]


def assert_pair_keys_match_unique_rows(pairs):
    got = np.unique(mesh._pair_keys(pairs), return_index=True, return_inverse=True)
    want = np.unique(pairs, axis=0, return_index=True, return_inverse=True)
    assert len(got[0]) == len(want[0])
    for a, b in zip(got[1:], want[1:]):
        assert_identical(a, b.reshape(-1))


def assert_integer_keys_match_unique_rows(base, layers):
    triangle_pairs = base.triangles[:, mesh.TRIANGLE_EDGE_VERTICES].reshape(-1, 2)
    for got, want in zip(mesh._first_seen(triangle_pairs), unique_rows_first_seen(triangle_pairs)):
        assert_identical(got, want)
    assert_pair_keys_match_unique_rows(np.sort(triangle_pairs, axis=1))
    for L in layers:
        cells = mesh.classify_facets(mesh.extrude_radial(base, L, 1.0)).vertical_cells
        assert_pair_keys_match_unique_rows(cells[cells[:, 1] >= 0])


@pytest.mark.parametrize("r", range(4))
def test_integer_key_topology_matches_unique_rows(r):
    """The 1-D keys sort as the rows do, so the edge tables and the facet
    pair check are those of ``np.unique(axis=0)``, bit for bit."""
    assert_integer_keys_match_unique_rows(mesh.build_icosahedral_sphere(r), (1, 3))


def test_integer_key_topology_on_an_open_mesh(single_prism):
    """A lone column has no interior facet pair: the empty key set passes."""
    assert_integer_keys_match_unique_rows(single_prism.base, (1, 2))


def test_duplicate_interior_facet_pair_rejected(icosa_r0):
    """Two base edges over the same pair of triangles give one cell pair twice."""
    base = icosa_r0
    edge_triangles = base.edge_triangles.copy()
    edge_triangles[1] = edge_triangles[0]
    m = mesh.extrude_radial(
        mesh.BaseSphereMesh(base.radius, base.vertices, base.triangles, base.edges,
                            base.triangle_edges, edge_triangles), 2, 1.0)
    with pytest.raises(mesh.InvalidTopologyError, match="duplicate interior"):
        mesh.classify_facets(m)
