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
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 1, 0.0)
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 1, -1.0)
    with pytest.raises(ValueError):
        mesh.build_icosahedral_sphere(-1)
    with pytest.raises(ValueError):
        mesh.extrude_radial(icosa_r0, 0, 1.0)


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
    assert len(f.inner_boundary) == nf
    assert len(f.outer_boundary) == nf
    assert len(f.interior_horizontal) == nf * (L - 1)
    assert len(f.interior_vertical) == ne * L
    assert len(f.boundary_vertical) == 0


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
    assert (f.inner_boundary % (L + 1) == 0).all()
    assert (f.outer_boundary % (L + 1) == L).all()


def test_open_mesh_has_boundary_vertical_facets(single_prism):
    f = mesh.classify_facets(single_prism)
    # a lone column: all three vertical facets are boundary
    assert len(f.boundary_vertical) == 3
    assert len(f.interior_vertical) == 0
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
