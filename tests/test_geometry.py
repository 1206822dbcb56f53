import re

import numpy as np
import pytest

from shallowfem import fem, geometry, mesh

from conftest import (
    frame_basis, hedgehog_axes, matvec3, phi, physical_points, pushforward_4to3,
)


def synthetic_polar_column():
    """One column over a triangle around the pole, all three vertices at
    x3 = 0.8: the normal of its chordal base, and so its extrusion axis, is
    exactly (0, 0, 1)."""
    s = 0.3 * np.sqrt(3.0)
    verts = np.array([[0.0, 0.6, 0.8], [-s, -0.3, 0.8], [s, -0.3, 0.8]])
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    return mesh.extrude_radial(base, 1, 1.0)


# ---------------------------------------------------------------------------
# phi and the chart
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x4, expected",
    [
        ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, 1.0, 0.0, 1.0), (0.0, 2.0, 0.0)),
        ((0.0, 0.0, 1.0, 0.5), (0.0, 0.0, 1.5)),
        ((0.0, 0.6, 0.8, 0.5), (0.0, 0.9, 1.2)),
    ],
)
def test_phi_values(x4, expected):
    np.testing.assert_allclose(phi(np.array(x4), a=1.0), expected, atol=1e-15)


@pytest.mark.parametrize("radius", [3e7, 5e7, 1e8, 2e8, 1e9])
def test_manifold_coordinates_at_large_radii(radius):
    """Inner-sphere nodes sit at height 0 exactly at these radii, where the
    vertex radii carry rounding of about 1e-16 a: h is the layer height,
    not |x| - a, which an absolute tolerance of 1e-9 once rejected."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(2, radius=radius), 1, 1e4)
    x4 = geometry.manifold_coordinates(m)
    assert x4[..., 3].min() == 0.0


@pytest.mark.parametrize("radius, thickness, layers",
                         [(1e9, 1.0, 4), (6.371e6, 1e4, 2), (1.0, 1.0, 3)],
                         ids=["a1e9", "earth", "a1"])
def test_manifold_heights_are_the_layer_heights(radius, thickness, layers):
    """The chart is the base triangulation times the layer heights, bit for
    bit: every node's h is its layer's height H l / L, where |x| - a would
    be off by up to a eps, the bottom nodes of a cell sitting at its layer
    and the top nodes at the next; every node's horizontal part is its base
    vertex, so a column's top nodes repeat its bottom nodes'."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, radius=radius), layers, thickness)
    x4 = geometry.manifold_coordinates(m)
    heights = thickness * np.arange(layers + 1) / layers
    layer = np.arange(m.n_cells) % layers
    np.testing.assert_array_equal(x4[:, :3, 3], np.repeat(heights[layer, None], 3, axis=1))
    np.testing.assert_array_equal(x4[:, 3:, 3], np.repeat(heights[layer + 1, None], 3, axis=1))
    np.testing.assert_array_equal(m.layer_heights, heights)
    triangles = m.base.triangles[np.arange(m.n_cells) // layers]
    np.testing.assert_array_equal(x4[:, :3, :3], m.base.vertices[triangles])
    np.testing.assert_array_equal(x4[:, 3:, :3], x4[:, :3, :3])


def test_phi_scales_with_planet_radius():
    a = 6371.2
    x4 = np.array([0.0, 0.0, a, 10.0])
    np.testing.assert_allclose(phi(x4, a), [0.0, 0.0, a + 10.0], rtol=1e-14)


# ---------------------------------------------------------------------------
# nodal basis
# ---------------------------------------------------------------------------

def test_nodal_basis_partition_of_unity():
    rng = np.random.default_rng(0)
    pts = rng.random((50, 3)) * [0.5, 0.5, 1.0]
    N = geometry.nodal_basis(pts)
    np.testing.assert_allclose(N.sum(axis=1), 1.0, atol=1e-14)
    G = geometry.nodal_basis_gradients(pts)
    np.testing.assert_allclose(G.sum(axis=1), 0.0, atol=1e-14)


def test_nodal_basis_kronecker_at_vertices():
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    np.testing.assert_allclose(geometry.nodal_basis(ref), np.eye(6), atol=1e-14)


# ---------------------------------------------------------------------------
# coordinate fields
# ---------------------------------------------------------------------------

def test_hedgehog_polar_column_fixed_point():
    """A column extruded along (0,0,1) keeps the polar axis in place: the
    line over its base centroid (0, 0, 0.8) rises along it by x4."""
    m = synthetic_polar_column()
    coords = geometry.hedgehog_coordinates(m)
    np.testing.assert_allclose(hedgehog_axes(coords)[0], [0.0, 0.0, 1.0], atol=1e-14)
    axis = np.array([[1 / 3, 1 / 3, z] for z in (0.0, 0.5, 1.0)])
    np.testing.assert_allclose(physical_points(coords, [0], axis)[0],
                               [[0.0, 0.0, 0.8], [0.0, 0.0, 1.3], [0.0, 0.0, 1.8]], atol=1e-14)


def test_hedgehog_node_formula_by_hand():
    """x' = a*x_hat + (r - a)*k for the node (0, 1.2, 1.6) with k = e3."""
    m = synthetic_polar_column()
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()[0]
    idx = [tuple(np.round(p, 12)) for p in orig].index((0.0, 1.2, 1.6))
    np.testing.assert_allclose(coords[0, idx], [0.0, 0.6, 1.8], atol=1e-13)


def test_hedgehog_base_layer_nodes_fixed(annulus_r1_l2):
    """Nodes on the inner sphere have x4 = 0 and stay put."""
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()
    bottom_cells = np.arange(m.n_cells)[np.arange(m.n_cells) % m.n_layers == 0]
    np.testing.assert_allclose(
        coords[bottom_cells][:, :3], orig[bottom_cells][:, :3], atol=1e-13
    )


def test_hedgehog_axis_is_the_chordal_normal(annulus_r1_l2):
    """Every column axis is the outward unit normal of its chordal base
    triangle."""
    m = annulus_r1_l2
    v = m.base.vertices[m.base.triangles]
    n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    assert (np.einsum("tc,tc->t", n, v[:, 0]) > 0).all()
    axes = hedgehog_axes(geometry.hedgehog_coordinates(m))
    np.testing.assert_allclose(axes, np.repeat(n, m.n_layers, axis=0), atol=1e-14)


@pytest.mark.parametrize("refinement", [0, 1, 2, 3, 4])
def test_hedgehog_metric_equals_the_chart(refinement):
    """The paper's equivalence: the hedgehog's J^T J equals the 4D chart's
    J4^T J4 (``jacobian4`` of ``manifold_coordinates``), and det J equals
    pdet J4, at every refinement, since the column axis is orthogonal to the
    chordal base triangle."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(refinement, 1.0), 2, 1.0)
    cells, centroid = np.arange(m.n_cells), np.array([[1 / 3, 1 / 3, 0.5]])
    J = geometry.jacobian(geometry.hedgehog_coordinates(m), cells, centroid)
    J4 = geometry.jacobian4(geometry.manifold_coordinates(m), cells, centroid)
    G, G4 = (np.einsum("cia,cib->cab", X, X) for X in (J.J[:, 0], J4[:, 0]))
    gap = (np.abs(G - G4).max(axis=(1, 2)) / np.abs(G4).max(axis=(1, 2))).max()
    assert gap <= 1e-14
    np.testing.assert_allclose(J.det, geometry.pseudo_inverse_pseudo_det(J4)[1],
                               rtol=1e-14, atol=0)


def test_hedgehog_axis_shared_along_column(annulus_r1_l2):
    m = annulus_r1_l2
    axes = hedgehog_axes(geometry.hedgehog_coordinates(m))
    per_col = axes.reshape(-1, m.n_layers, 3)
    assert np.abs(per_col - per_col[:, :1, :]).max() <= 1e-14


def test_hedgehog_gap_law(annulus_r1_l2):
    """Duplicated vertices split by exactly ||k1 - k2|| * x4."""
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()
    x4 = geometry.manifold_coordinates(m)[:, :, 3]
    axes = hedgehog_axes(coords)
    checked = 0
    for c1 in range(0, m.n_cells, 7):
        for c2 in range(c1 + 1, m.n_cells):
            for i in range(6):
                match = np.linalg.norm(orig[c2] - orig[c1, i], axis=1) < 1e-12
                if not match.any():
                    continue
                j = int(np.argmax(match))
                gap = np.linalg.norm(coords[c1, i] - coords[c2, j])
                law = np.linalg.norm(axes[c1] - axes[c2]) * x4[c1, i]
                assert abs(gap - law) <= 1e-12
                checked += 1
    assert checked > 100


def test_hedgehog_degenerate_column_rejected():
    """A column whose chordal base plane passes through the centre has no
    outward normal and is refused."""
    # three equally spaced equatorial vertices: the plane x3 = 0
    verts = np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, np.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -np.sqrt(3.0) / 2.0, 0.0],
        ]
    )
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    m = mesh.extrude_radial(base, 1, 1.0)
    with pytest.raises(geometry.DegenerateMapError, match="cell 0: chordal base"):
        geometry.hedgehog_coordinates(m)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_unit_prism_jacobian_identity():
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    coords = ref[None]
    sample = geometry.jacobian(coords, [0], [[0.3, 0.3, 0.7]])
    np.testing.assert_allclose(sample.J[0, 0], np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sample.det[0, 0], 1.0, atol=1e-14)


def test_hedgehog_jacobian_affine(annulus_r1_l2):
    """Per-cell J constant across points to 1e-12 relative."""
    coords = geometry.hedgehog_coordinates(annulus_r1_l2)
    rng = np.random.default_rng(1)
    pts = rng.random((8, 3)) * [0.5, 0.5, 1.0]
    cells = np.arange(annulus_r1_l2.n_cells)
    J = geometry.jacobian(coords, cells, pts).J
    ref = J[:, :1]
    rel = np.abs(J - ref).max(axis=(1, 2, 3)) / np.abs(ref).max(axis=(1, 2, 3))
    assert rel.max() <= 1e-12


def test_annulus_jacobian_not_affine(annulus_r1_l2):
    """Deep-mode volume scale varies by at least (r_t/r_b)^2 - 1 per cell."""
    m = annulus_r1_l2
    coords = m.cell_node_coords()
    cells = np.arange(m.n_cells)
    pts = np.array([[1 / 3, 1 / 3, 0.0], [1 / 3, 1 / 3, 1.0]])
    sample = geometry.jacobian(coords, cells, pts)
    rel_det = np.abs(sample.det[:, 1] - sample.det[:, 0]) / sample.det[:, 0]
    norm_var = np.abs(sample.J[:, 1] - sample.J[:, 0]).max(axis=(1, 2))
    for cell in cells:
        r_b, r_t = m.layer_radii[cell % m.n_layers], m.layer_radii[cell % m.n_layers + 1]
        assert rel_det[cell] >= (r_t / r_b) ** 2 - 1 - 1e-10
    assert (norm_var > 0).all()


def test_annulus_det_ratio_matches_radial_scaling(annulus_r1_l2):
    """det J at the top face over the bottom face equals (r_t/r_b)^2."""
    m = annulus_r1_l2
    coords = m.cell_node_coords()
    cells = np.arange(m.n_cells)
    for xi in ((0.2, 0.3), (0.5, 0.1)):
        pts = np.array([[xi[0], xi[1], 0.0], [xi[0], xi[1], 1.0]])
        det = geometry.jacobian(coords, cells, pts).det
        lay = cells % m.n_layers
        expected = (m.layer_radii[lay + 1] / m.layer_radii[lay]) ** 2
        np.testing.assert_allclose(det[:, 1] / det[:, 0], expected, atol=1e-10)


def test_jacobian_rejects_inverted_cell():
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    flipped = ref.copy()
    flipped[:, 2] *= -1.0
    coords = flipped[None]
    with pytest.raises(ValueError):
        geometry.jacobian(coords, [0], [[0.2, 0.2, 0.5]])


def test_jacobian_factorization_count(annulus_r1_l2):
    coords = geometry.hedgehog_coordinates(annulus_r1_l2)
    cells = np.arange(annulus_r1_l2.n_cells)
    one = geometry.jacobian(coords, cells, np.array([[1 / 3, 1 / 3, 0.5]]))
    assert one.n_factorizations == annulus_r1_l2.n_cells


def materialised(point_map):
    """A PointMap's points (ch, nq, 4), G (ch, nq, 3, 3) and det (ch, nq),
    with every plane broadcast over the rule's points."""
    shape = point_map.shape
    ch, nq = shape[0], shape[1] * shape[2]
    G = np.empty(shape + (3, 3))
    for (a, b), g in zip(geometry.METRIC_PAIRS, point_map.G):
        G[..., a, b] = G[..., b, a] = g
    return (geometry.stack_planes(point_map.x).reshape(ch, nq, 4), G.reshape(ch, nq, 3, 3),
            np.broadcast_to(point_map.det, shape).reshape(ch, nq))


def tensor_rule(nt, nz, seed):
    """A prism rule of nt random triangle points times nz interval points,
    interval-major as ``fem.quadrature_prism``."""
    rng = np.random.default_rng(seed)
    tri = fem.QuadratureRule(rng.uniform(0.0, 0.5, (nt, 2)), np.full(nt, 0.5 / nt), 0)
    z = fem.QuadratureRule(rng.uniform(0.0, 1.0, (nz, 1)), np.full(nz, 1.0 / nz), 0)
    points = np.column_stack([np.tile(tri.points, (nz, 1)), np.repeat(z.points[:, 0], nt)])
    return fem.QuadratureRule(points, np.outer(z.weights, tri.weights).ravel(), 0, tri, z)


def assert_matches_the_svd(pinv4, pdet, J4):
    """pinv4 and pdet within 1e-13 relative of ``pseudo_inverse_pseudo_det``
    of J4, cell by cell (pinv4 relative to the largest entry of its row)."""
    ref, ref_det = geometry.pseudo_inverse_pseudo_det(J4)
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    assert (np.abs(pinv4 - ref) <= 1e-13 * scale).all()
    assert (np.abs(pdet - ref_det) <= 1e-13 * np.abs(ref_det)).all()


def test_quadrature_jacobian_samples_by_field(annulus_r1_l2):
    """quadrature_chunks: shallow G = J4^T J4 (within 1e-15 of the cell's
    largest entry) and pdet once per cell, from the closed form that also
    gives pinv4, within 1e-13 of the SVD of J4 at the centroid; deep G at
    every point and det at every interval point; the chunks cover the cells
    in order."""
    m = annulus_r1_l2
    x4 = geometry.manifold_coordinates(m)
    rule = tensor_rule(3, 2, 0)
    centroid = np.array([[1 / 3, 1 / 3, 0.5]])
    chart = x4
    (cells, (point_map,)), = geometry.quadrature_chunks(x4, "shallow", rule)
    np.testing.assert_array_equal(cells, np.arange(m.n_cells))
    assert point_map.det.shape == (m.n_cells, 1, 1) and point_map.n_factorizations == m.n_cells
    assert all(g.shape == (m.n_cells, 1, 1) for g in point_map.G)
    x4q, G, det = materialised(point_map)
    at_pts = geometry.jacobian(chart, cells, rule.points)
    JtJ = np.einsum("...ia,...ib->...ab", at_pts.J, at_pts.J)
    np.testing.assert_allclose(G, JtJ, rtol=0, atol=1e-12)
    np.testing.assert_allclose(det, at_pts.det, rtol=1e-12, atol=0)
    J4 = geometry.jacobian4(x4, cells, centroid)
    JtJ4 = np.einsum("...ia,...ib->...ab", J4[:, 0], J4[:, 0])
    scale = np.abs(JtJ4).max(axis=(1, 2), keepdims=True)
    assert (np.abs(G[:, 0] - JtJ4) <= 1e-15 * scale).all()
    assert_matches_the_svd(point_map.pinv4[:, None], det[:, :1], J4)
    np.testing.assert_allclose(x4q, np.einsum("pn,cnd->cpd", geometry.nodal_basis(rule.points), x4),
                               rtol=0, atol=1e-14)

    # the 216 points of the degree-10 rule: 2**15 // 216 = 151 cells per chunk
    rule = fem.quadrature_prism(10)
    chunks = list(geometry.quadrature_chunks(x4, "deep", rule))
    assert [len(c[0]) for c in chunks] == [151, 9]
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), np.arange(m.n_cells))
    assert all(c[1][0].det.shape == (len(c[0]), 6, 1) for c in chunks)
    assert all(c[1][0].G[2].shape == (len(c[0]), 6, 36) for c in chunks)
    assert sum(c[1][0].n_factorizations for c in chunks) == 216 * m.n_cells


@pytest.fixture(scope="module")
def annulus_r2_l2():
    """640 cells: more than a chunk of every real rule holds."""
    return mesh.extrude_radial(mesh.build_icosahedral_sphere(2, 1.0), 2, 1.0)


@pytest.mark.parametrize("npts, budget, first", [
    (216, None, 151), (224, None, 146), (370, None, 88), (343, None, 95),
    (7, 20, 2), (20, 20, 1), (21, 20, 1), (50, 20, 1), (95, None, 344), (103, None, 318),
], ids=["deep-k1", "shallow-k1", "k2-assembly", "k2-norms",
        "two-cells", "exact-budget", "over-budget", "far-over-budget",
        "k1-norms", "k1-assembly"])
def test_chunks_cover_every_cell_once_within_the_point_budget(annulus_r2_l2, monkeypatch,
                                                               npts, budget, first):
    """The chunks hold every cell once, in order, and at most POINTS_PER_CHUNK
    points unless a chunk is a single cell.  The real budget gives the cells
    per chunk of the k=1 rules, the right-hand sides' alone and with the
    matrix rule (95 and 95 + 8 points), of the k=2 rules (343 and 343 + 27)
    and of the degree-10 rule that k=1 used before (216 and 216 + 8, the
    ids deep-k1 and shallow-k1)."""
    if budget is not None:
        monkeypatch.setattr(geometry, "POINTS_PER_CHUNK", budget)
    m = annulus_r2_l2
    rule = tensor_rule(npts, 1, npts)
    x4 = geometry.manifold_coordinates(m)
    chunks = [c[0] for c in geometry.quadrature_chunks(x4, "shallow", rule)]
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(m.n_cells))
    assert len(chunks[0]) == first
    assert all(len(c) * npts <= geometry.POINTS_PER_CHUNK or len(c) == 1 for c in chunks)


def test_chunks_budget_the_points_of_all_rules(annulus_r1_l2, annulus_r2_l2):
    """Two rules share one budget: k=1's, 95 + 8 points, give 318 cells per
    chunk, and the degree-10 rule with the k=1 matrix rule, 216 + 8, 146."""
    x4 = geometry.manifold_coordinates(annulus_r2_l2)
    rules = fem.quadrature_prism(fem.default_quadrature_degree(1)), fem.quadrature_prism(3)
    chunks = list(geometry.quadrature_chunks(x4, "shallow", *rules))
    assert [len(c[0]) for c in chunks] == [318, 318, 4]
    assert [c[1][0].shape for c in chunks] == [(318, 5, 19), (318, 5, 19), (4, 5, 19)]
    assert [c[1][1].shape for c in chunks] == [(318, 2, 4), (318, 2, 4), (4, 2, 4)]

    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    rules = fem.quadrature_prism(10), fem.quadrature_prism(3)
    chunks = list(geometry.quadrature_chunks(x4, "shallow", *rules))
    assert [len(c[0]) for c in chunks] == [146, 14]
    assert [c[1][1].shape for c in chunks] == [(146, 2, 4), (14, 2, 4)]


def test_chart_and_annulus_share_the_centroid_pinv4(annulus_r1_l2, monkeypatch):
    """Both modes take pinv4 from the chart's one closed-form reading of
    its cells: shallow and deep maps of one chart yield bit-identical pinv4,
    chunk by chunk, within 1e-13 of the SVD pseudoinverse of ``jacobian4``
    at the centroid."""
    monkeypatch.setattr(geometry, "POINTS_PER_CHUNK", 2 ** 12)
    m = annulus_r1_l2
    x4 = geometry.manifold_coordinates(m)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(1))
    centroid = np.array([[1 / 3, 1 / 3, 0.5]])
    J4 = geometry.jacobian4(x4, slice(None), centroid)
    ref = geometry.pseudo_inverse_pseudo_det(J4)[0]
    pairs = list(zip(geometry.quadrature_chunks(x4, "shallow", rule),
                     geometry.quadrature_chunks(x4, "deep", rule), strict=True))
    assert len(pairs) > 1
    for (cells, (chart,)), (cells_a, (annulus,)) in pairs:
        np.testing.assert_array_equal(cells, cells_a)
        np.testing.assert_array_equal(chart.pinv4, annulus.pinv4)
        scale = np.abs(ref[cells, 0]).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(annulus.pinv4 - ref[cells, 0]) <= 1e-13 * scale).all()


def product_form(x4):
    """J4 = [E_0 E_1 | dh i4] of the chart cells x4, (cells, 1, 4, 3): the
    edges E_a = X_{a+1} - X_0 of the bottom nodes and dh = h_3 - h_0."""
    J4 = np.zeros((len(x4), 1, 4, 3))
    J4[:, 0, :3, :2] = np.swapaxes(x4[:, 1:3, :3] - x4[:, :1, :3], 1, 2)
    J4[:, 0, 3, 2] = x4[:, 3, 3] - x4[:, 0, 3]
    return J4


@pytest.mark.parametrize("level, a, H", [
    ((3, 1), 1.0, 1.0), ((4, 2), 1.0, 1.0), ((2, 4), 1.0, 1.0), ((2, 4), 6.371e6, 1e4),
    ((2, 4), 1e9, 1.0),
], ids=["3:1", "4:2", "2:4", "earth-2:4", "1e9-2:4"])
def test_closed_form_chart_matches_the_svd(level, a, H):
    """On the benchmark's charts, the Earth shell and a = 1e9 every cell is
    accepted with a positive signed pdet, and its pinv4 and pdet are within
    1e-13 of the SVD of the product-form J4 (measured: at most 1.6e-15 and
    7.6e-16).  At a = 1 the SVD of the six-node J4 at the centroid agrees
    as well (1.5e-15 and 8.0e-16).  At larger radii it does not, although
    the chart is an exact product: that J4 is a sum over the six nodes, so
    its d/dzeta column keeps a horizontal part of about a eps where the top
    and bottom nodes' coordinates, of size a, cancel.  Against its |dh| that
    is 2.7e-13 on the Earth shell and 7.1e-7 at a = 1e9, and pinv4 differs
    by 4.7e-13 and 9.0e-7; with that part zeroed it agrees to 1.1e-15."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(level[0], a), level[1], H)
    x4 = geometry.manifold_coordinates(m)
    chart = geometry._chart_cells(x4)
    assert (chart.pdet > 0).all()
    assert_matches_the_svd(chart.pinv4[:, None], chart.pdet[:, None], product_form(x4))
    if a == 1.0:
        assert_matches_the_svd(chart.pinv4[:, None], chart.pdet[:, None],
                               geometry.jacobian4(x4, slice(None), geometry.CENTROID))


@pytest.mark.parametrize("H, ratio", [(3e11, None), (5e11, None), (1e12, "7.435e-13")],
                         ids=["certified", "svd-only", "rank-deficient"])
def test_rank_decision_on_both_sides_of_the_certificate(H, ratio):
    """The rank test reads J4's exact singular values, those of the base
    triangle and |dh|, so it decides as the SVD does next to its 1e-12
    limit: columns 3e11 and 5e11 thick (s_min/s_max 2.5e-12 and 1.5e-12)
    are accepted, with pinv4 and pdet within 1e-13 of the SVD's, and one
    1e12 thick (7.4e-13) is named with its aspect ratio, |dh| and the base
    triangle's singular values."""
    x4 = geometry.manifold_coordinates(
        mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, H))
    chunks = geometry.quadrature_chunks(x4, "shallow", fem.quadrature_prism(3))
    if ratio is not None:
        with pytest.raises(geometry.DegenerateMapError,
                           match=re.escape(f"rank deficient at cell 0: s_min/s_max = {ratio} "
                                           "<= 1e-12 (|dh| = 1.000e+12, base triangle "
                                           "singular values 1.288e+00 and 7.435e-01)")):
            next(chunks)
        return
    cells, (point_map,) = next(chunks)
    assert_matches_the_svd(point_map.pinv4[:, None], point_map.det[:, :1, 0], product_form(x4))


def test_near_collinear_base_triangle_is_rank_deficient():
    """A base triangle whose edges are about 1e-13 apart in angle leaves [E_0 E_1]
    a second singular value of 8.9e-14, and the cell is named with it."""
    x4 = np.zeros((2, 6, 4))
    x4[:, :3, :3] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    x4[1, 2, :3] = [0.5, 0.5, 1e-13]
    x4[:, 3:, :3] = x4[:, :3, :3]
    x4[:, 3:, 3] = 1.0
    assert geometry._chart_cells(x4[:1]).pdet > 0
    for mode in ("shallow", "deep"):
        with pytest.raises(geometry.DegenerateMapError,
                           match=re.escape("rank deficient at cell 1: s_min/s_max = 5.657e-14 "
                                           "<= 1e-12 (|dh| = 1.000e+00, base triangle singular "
                                           "values 1.581e+00 and 8.944e-14)")):
            next(geometry.quadrature_chunks(x4, mode, fem.quadrature_prism(3)))


def test_shallow_metric_is_block_diagonal(annulus_r1_l2):
    """The base edges are orthogonal to the extrusion axis, so the shallow
    G_02 and G_12 are exactly 0 and G_22 is dh^2, in every chunk."""
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    for cells, (point_map,) in geometry.quadrature_chunks(x4, "shallow", fem.quadrature_prism(3)):
        g00, g01, g02, g11, g12, g22 = point_map.G
        assert (g02 == 0.0).all() and (g12 == 0.0).all()
        np.testing.assert_array_equal(g22[:, 0, 0], (x4[cells, 3, 3] - x4[cells, 0, 3]) ** 2)


def test_chart_maps_without_the_svd(monkeypatch):
    """The chart calls no SVD: with ``np.linalg.svd`` raising,
    ``quadrature_chunks`` still maps a chart 5e11 thick, close to the rank
    test's limit, in both modes, and ``jacobian`` samples it."""
    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    x4 = geometry.manifold_coordinates(
        mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, 5e11))
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    for mode in ("shallow", "deep"):
        chunks = list(geometry.quadrature_chunks(x4, mode, fem.quadrature_prism(3)))
        assert sum(len(c[0]) for c in chunks) == len(x4)
        assert all((c[1][0].det > 0).all() for c in chunks)
    assert (geometry.jacobian(x4, slice(None), geometry.CENTROID).det > 0).all()


FIELDS = {
    "annulus": ("deep", mesh.ExtrudedMesh.cell_node_coords),
    "chart": ("shallow", geometry.manifold_coordinates),
}


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("k", [1, 2])
def test_chunk_metric_matches_per_point_jacobian(annulus_r1_l2, monkeypatch, field, k):
    """G and det of the solver-point map equal J^T J and det of
    ``geometry.jacobian`` on the mode's field at every point of the
    right-hand-side rule, to 1e-13 relative: the chart's in shallow mode, the annulus's,
    phi of the chart, in deep mode."""
    monkeypatch.setattr(geometry, "POINTS_PER_CHUNK", 2 ** 12)
    m = annulus_r1_l2
    mode, field_of = FIELDS[field]
    coords = field_of(m)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(k))
    n = 0
    for cells, (point_map,) in geometry.quadrature_chunks(geometry.manifold_coordinates(m),
                                                          mode, rule):
        _, G, det = materialised(point_map)
        J = geometry.jacobian(coords, cells, rule.points)
        JtJ = np.einsum("...ia,...ib->...ab", J.J, J.J)
        assert np.abs(G - JtJ).max() <= 1e-13 * np.abs(JtJ).max()
        np.testing.assert_allclose(det, J.det, rtol=1e-13, atol=0)
        n += len(cells)
    assert n == m.n_cells


def long_double_metric(nodal, points):
    """J^T J (cells, points, 3, 3) and det J (cells, points) of the nodal map
    of the cells ``nodal`` (cells, 6, 3) at reference points, in long double."""
    grads = geometry.nodal_basis_gradients(points).astype(np.longdouble)
    J = np.einsum("cvi,pvk->cpik", nodal.astype(np.longdouble), grads)
    det = (np.cross(J[..., 0], J[..., 1]) * J[..., 2]).sum(axis=-1)
    return np.einsum("...ia,...ib->...ab", J, J), det


def test_deep_metric_at_earth_radius_matches_the_annulus_map_in_long_double():
    """At a = 6.371e6, H = 1e4 the closed-form pull-back metric is within
    1e-12 of the annulus map's J^T J and det evaluated in long double, each
    entry of G relative to its largest value (measured: 4.4e-13 in G_22,
    2.3e-13 in det; float64 ``jacobian`` is 5.9e-13 and 2.6e-13 off)."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 6.371e6), 2, 1e4)
    nodal = m.cell_node_coords()
    rule = fem.quadrature_prism(fem.default_quadrature_degree(1))
    n = 0
    for cells, (point_map,) in geometry.quadrature_chunks(geometry.manifold_coordinates(m),
                                                          "deep", rule):
        _, G, det = materialised(point_map)
        G_ref, det_ref = long_double_metric(nodal[cells], rule.points)
        for c, d in geometry.METRIC_PAIRS:
            ref = G_ref[..., c, d]
            assert np.abs(G[..., c, d] - ref).max() <= 1e-12 * np.abs(ref).max(), (c, d)
        assert (np.abs(det - det_ref) / det_ref).max() <= 1e-12
        n += len(cells)
    assert n == m.n_cells


def test_inverted_cell_raises_before_any_chunk(annulus_r1_l2, monkeypatch):
    """An inverted cell in the last chunk is named by the chart's centroid
    check before the first chunk is yielded, in both modes."""
    monkeypatch.setattr(geometry, "POINTS_PER_CHUNK", 2 ** 12)
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    x4[-1] = x4[-1][[1, 0, 2, 4, 3, 5]]
    for mode in ("shallow", "deep"):
        chunks = geometry.quadrature_chunks(x4, mode, fem.quadrature_prism(10))
        with pytest.raises(geometry.DegenerateMapError, match="inverted"):
            next(chunks)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("k", [1, 2])
def test_chunk_points_match_the_nodal_interpolant(icosa_r1, k, a):
    """The broadcast planes x1, x2, x3 (triangle points, innermost) and h
    (interval points) equal nodal_basis @ x4 at every point within 1e-15 a."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, a), 3, 1.0)
    x4 = geometry.manifold_coordinates(m)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(k))
    nbasis = geometry.nodal_basis(rule.points)
    for cells, (point_map,) in geometry.quadrature_chunks(x4, "deep", rule):
        nt, nz = len(rule.triangle.weights), len(rule.interval.weights)
        assert [p.shape for p in point_map.x] == [(len(cells), 1, nt)] * 3 + [(len(cells), nz, 1)]
        x4q, _, _ = materialised(point_map)
        assert np.abs(x4q - nbasis @ x4[cells]).max() <= 1e-15 * a


def test_chunks_take_only_the_two_modes(annulus_r1_l2):
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    with pytest.raises(ValueError, match="'shallow' or 'deep'"):
        next(geometry.quadrature_chunks(x4, "hedgehog", fem.quadrature_prism(3)))


def _einsum_jacobian(nodal, points):
    """The per-point Jacobian as one einsum plus LAPACK det (the oracle)."""
    grads = geometry.nodal_basis_gradients(points)
    J = np.einsum("...vi,pvk->...pik", nodal, grads)
    return J, np.linalg.det(J)


@pytest.mark.parametrize("field", ["annulus", "hedgehog"])
@pytest.mark.parametrize("cells", ["batched", "scalar"])
def test_jacobian_matches_einsum_oracle(annulus_r1_l2, field, cells):
    """GEMM J and cofactor det agree with einsum + np.linalg.det to 1e-14."""
    m = annulus_r1_l2
    coords = {"annulus": mesh.ExtrudedMesh.cell_node_coords,
              "hedgehog": geometry.hedgehog_coordinates}[field](m)
    pts = np.random.default_rng(3).random((7, 3)) * [0.5, 0.5, 1.0]
    sel = np.arange(m.n_cells) if cells == "batched" else 37
    sample = geometry.jacobian(coords, sel, pts)
    J_ref, det_ref = _einsum_jacobian(coords[sel], pts)
    assert sample.J.shape == J_ref.shape and sample.det.shape == det_ref.shape
    np.testing.assert_allclose(sample.J, J_ref, rtol=0, atol=1e-14 * np.abs(J_ref).max())
    np.testing.assert_allclose(sample.det, det_ref, rtol=1e-14, atol=0)
    assert sample.n_factorizations == det_ref.size


def test_jacobian4_matches_einsum_oracle(annulus_r1_l2):
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    cells = np.arange(annulus_r1_l2.n_cells)
    pts = np.random.default_rng(4).random((5, 3)) * [0.5, 0.5, 1.0]
    J4 = geometry.jacobian4(x4, cells, pts)
    ref = np.einsum("...vi,pvk->...pik", x4[cells], geometry.nodal_basis_gradients(pts))
    assert J4.shape == (annulus_r1_l2.n_cells, 5, 4, 3)
    np.testing.assert_allclose(J4, ref, rtol=0, atol=1e-14 * np.abs(ref).max())


def test_jacobian_rejects_one_inverted_cell_in_a_batch(annulus_r1_l2):
    """A single mirrored cell among valid ones still raises, batched or alone."""
    coords = annulus_r1_l2.cell_node_coords()
    coords[5] = coords[5][[1, 0, 2, 4, 3, 5]]        # swap two vertices: det < 0
    pts = np.array([[0.2, 0.2, 0.5]])
    with pytest.raises(ValueError, match="inverted"):
        geometry.jacobian(coords, np.arange(len(coords)), pts)
    with pytest.raises(ValueError, match="inverted"):
        geometry.jacobian(coords, 5, pts)
    assert geometry.jacobian(coords, 4, pts).det.shape == (1,)


@pytest.mark.parametrize("order", [[1, 0, 2, 4, 3, 5], [3, 4, 5, 0, 1, 2]],
                         ids=["base-wound-inward", "layers-descend"])
def test_chart_rejects_one_inverted_cell(annulus_r1_l2, order):
    """On the chart det is pdet signed by det [l | J4]: one cell with two base
    vertices swapped, or with its layers swapped, raises in ``jacobian``,
    batched or alone, and in ``quadrature_chunks`` in both modes; its
    neighbours do not."""
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    x4[5] = x4[5][order]
    chart = x4
    pts = np.array([[0.2, 0.2, 0.5]])
    for cells in (np.arange(len(x4)), 5):
        with pytest.raises(ValueError, match="inverted"):
            geometry.jacobian(chart, cells, pts)
    for mode in ("shallow", "deep"):
        with pytest.raises(ValueError, match="inverted"):
            next(geometry.quadrature_chunks(chart, mode, fem.quadrature_prism(3)))
    assert geometry.jacobian(chart, 4, pts).det > 0


def test_matvec3_broadcasts_cell_matrices():
    """The tests' Piola helper ``conftest.matvec3`` (pytest collects no
    tests from conftest.py, so its test lives here)."""
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 1, 3, 3))
    v = rng.standard_normal((4, 6, 3))
    ref = np.einsum("eij,eqj->eqi", A[:, 0], v)
    np.testing.assert_allclose(matvec3(A, v), ref, rtol=1e-14, atol=1e-14)
    A = rng.standard_normal((4, 6, 3, 3))
    np.testing.assert_allclose(matvec3(A, v),
                               np.einsum("eqij,eqj->eqi", A, v), rtol=1e-14, atol=1e-14)
    A = rng.standard_normal((4, 1, 4, 3))                # chart Jacobians: 4-vectors
    np.testing.assert_allclose(matvec3(A, v),
                               np.einsum("eij,eqj->eqi", A[:, 0], v), rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# pseudoinverse of the 4x3 manifold Jacobian
# ---------------------------------------------------------------------------

def test_pseudo_inverse_identity_columns():
    J4 = np.eye(4)[:, :3]
    pinv, pdet = geometry.pseudo_inverse_pseudo_det(J4)
    np.testing.assert_allclose(pinv, J4.T, atol=1e-14)
    np.testing.assert_allclose(pdet, 1.0, atol=1e-14)


def test_pseudo_det_is_singular_value_product():
    J4 = np.zeros((4, 3))
    J4[0, 0], J4[1, 1], J4[2, 2] = 2.0, 3.0, 4.0
    _, pdet = geometry.pseudo_inverse_pseudo_det(J4)
    np.testing.assert_allclose(pdet, 24.0, rtol=1e-13)


def test_pseudo_inverse_left_inverse_property():
    rng = np.random.default_rng(7)
    J4 = rng.standard_normal((20, 4, 3))
    pinv, pdet = geometry.pseudo_inverse_pseudo_det(J4)
    prod = np.einsum("...ij,...jk->...ik", pinv, J4)
    np.testing.assert_allclose(prod, np.broadcast_to(np.eye(3), prod.shape), atol=1e-12)
    assert (pdet > 0).all()


def test_pseudo_inverse_rank_deficiency_error():
    J4 = np.zeros((4, 3))
    J4[0, 0], J4[1, 1] = 1.0, 1.0       # rank 2
    with pytest.raises(geometry.DegenerateMapError, match="deficient: s_min/s_max = 0.000e"):
        geometry.pseudo_inverse_pseudo_det(J4)
    # a (cells, points, 4, 3) batch also names its first bad cell
    batch = np.stack([np.eye(4)[:, :3], np.diag([2.0, 1.0, 1e-13, 0.0])[:, :3], J4])
    with pytest.raises(geometry.DegenerateMapError, match="at cell 1: s_min/s_max = 5.000e-14"):
        geometry.pseudo_inverse_pseudo_det(batch[:, None])


# ---------------------------------------------------------------------------
# tangent frame
# ---------------------------------------------------------------------------

def test_frame_at_equator():
    x = np.array([1.0, 0.0, 0.0, 0.5])
    f = geometry.TangentFrame.at(x, 1.0)
    np.testing.assert_allclose(f.e_lambda, [0, 1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(f.e_phi, [0, 0, 1, 0], atol=1e-14)
    np.testing.assert_allclose(frame_basis(f)[2], [0, 0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(geometry.unit_normal(x), [1, 0, 0, 0], atol=1e-14)


def test_frame_orthonormal_at_random_points():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((100, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = np.column_stack([d, rng.uniform(0, 1, 100)])
    f = geometry.TangentFrame.at(pts, 1.0)
    basis = np.moveaxis(frame_basis(f), 0, 1)
    G = np.einsum("nic,njc->nij", basis, basis)
    np.testing.assert_allclose(G, np.broadcast_to(np.eye(3), G.shape), atol=1e-12)
    normal = geometry.unit_normal(pts)
    for e in frame_basis(f):
        np.testing.assert_allclose(np.einsum("nc,nc->n", e, normal), 0.0, atol=1e-12)


def test_frame_right_handed():
    rng = np.random.default_rng(12)
    d = rng.standard_normal((50, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = np.column_stack([d, np.zeros(50)])
    f = geometry.TangentFrame.at(pts, 1.0)
    cross = np.cross(f.e_lambda[:, :3], f.e_phi[:, :3])
    np.testing.assert_allclose(cross, geometry.unit_normal(pts)[:, :3], atol=1e-12)


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_frame_pole_fallback(z):
    pole = np.array([0.0, 0.0, z, 0.3])
    f = geometry.TangentFrame.at(pole, 1.0)
    basis = frame_basis(f)
    normal = geometry.unit_normal(pole)
    np.testing.assert_allclose(basis @ basis.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(basis @ normal, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        np.cross(f.e_lambda[:3], f.e_phi[:3]), normal[:3], atol=1e-12
    )


def _sphere_points(n, seed, a=1.0):
    """n random points of S^2(a) x [0, 1), with both poles appended."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    d = np.vstack([d / np.linalg.norm(d, axis=1, keepdims=True), [[0, 0, 1], [0, 0, -1]]])
    return np.column_stack([a * d, rng.uniform(0, 1, n + 2)])


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_frame_vector_inverts_components_of_tangent_vectors(a):
    """vector(components(v)) == v for tangent v, the pole fallback included."""
    pts = _sphere_points(60, 21, a)
    f = geometry.TangentFrame.at(pts, a)
    v = geometry.project_tangent(np.random.default_rng(22).standard_normal(pts.shape), pts)
    assert f.e_lambda[-2:, 0].tolist() == [1.0, 1.0]      # the poles' fallback frame
    np.testing.assert_allclose(f.vector(f.components(v)), v, rtol=0, atol=1e-14)


def test_frame_components_invert_vector():
    """components(vector(c)) == c."""
    pts = _sphere_points(60, 23)
    f = geometry.TangentFrame.at(pts, 1.0)
    c = np.random.default_rng(24).standard_normal((len(pts), 3))
    np.testing.assert_allclose(f.components(f.vector(c)), c, rtol=0, atol=1e-14)


def test_projection_at_chordal_points_leaves_no_normal_component(annulus_r1_l2):
    """At the quadrature points x4q (|x| < a inside each chord) P v has no
    component along unit_normal, which stays of unit length there."""
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    x4q = np.concatenate([
        geometry.stack_planes(point_map.x).reshape(-1, 4)
        for _, (point_map,) in geometry.quadrature_chunks(x4, "shallow", fem.quadrature_prism(4))
    ])
    radius = np.linalg.norm(x4q[:, :3], axis=1)
    assert radius.max() <= 1.0 + 1e-15 and radius.min() < 1.0 - 1e-3
    l = geometry.unit_normal(x4q)
    np.testing.assert_allclose(np.linalg.norm(l, axis=1), 1.0, rtol=0, atol=1e-15)
    v = np.random.default_rng(26).standard_normal(x4q.shape)
    pv = geometry.project_tangent(v, x4q)
    assert np.abs(np.einsum("nc,nc->n", pv, l)).max() <= 1e-14 * np.abs(v).max()


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------

def test_pushforward_vertical_direction_to_column_axis(annulus_r1_l2):
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    x4 = geometry.manifold_coordinates(m)
    cells = np.arange(m.n_cells)
    pts = np.array([[0.25, 0.25, 0.4]])
    v4 = np.broadcast_to([0.0, 0.0, 0.0, 1.0], (m.n_cells, 1, 4))
    out = pushforward_4to3(coords, x4, cells, pts, v4)
    np.testing.assert_allclose(out[:, 0], hedgehog_axes(coords), atol=1e-12)


def test_pushforward_columns_map_to_columns(annulus_r1_l2):
    """v4 = column j of the manifold Jacobian lands on column j of J_g."""
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    x4 = geometry.manifold_coordinates(m)
    cells = np.arange(4)
    pts = np.array([[0.3, 0.2, 0.6]])
    J4 = geometry.jacobian4(x4, cells, pts)
    J3 = geometry.jacobian(coords, cells, pts).J
    for j in range(3):
        out = pushforward_4to3(coords, x4, cells, pts, J4[..., j])
        np.testing.assert_allclose(out, J3[..., j], atol=1e-12)


def test_pushforward_annihilates_discrete_normal(annulus_r1_l2):
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    x4 = geometry.manifold_coordinates(m)
    cells = np.arange(m.n_cells)
    pts = np.array([[0.3, 0.3, 0.5]])
    J4 = geometry.jacobian4(x4, cells, pts)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((m.n_cells, 1, 4))
    pinv, _ = geometry.pseudo_inverse_pseudo_det(J4)
    proj = np.einsum("...ik,...kj,...j->...i", J4, pinv, w)
    n_disc = w - proj
    out = pushforward_4to3(coords, x4, cells, pts, n_disc)
    assert np.abs(out).max() <= 1e-12 * max(1.0, np.abs(n_disc).max())


# ---------------------------------------------------------------------------
# measures and diameters
# ---------------------------------------------------------------------------

def test_shallow_total_measure_matches_chordal_area(icosa_r0):
    """At refinement 0 the summed hedgehog volume is chordal area x thickness."""
    from shallowfem import fem

    H = 1.0
    m = mesh.extrude_radial(icosa_r0, 2, H)
    coords = geometry.hedgehog_coordinates(m)
    rule = fem.quadrature_prism(4)
    cells = np.arange(m.n_cells)
    det = geometry.jacobian(coords, cells, rule.points).det
    total = (det * rule.weights).sum()
    v = icosa_r0.vertices[icosa_r0.triangles]
    area = 0.5 * np.linalg.norm(
        np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1
    ).sum()
    assert abs(total - area * H) <= 1e-10


def test_cell_diameters_positive(annulus_r1_l2):
    d = geometry.cell_diameters(geometry.hedgehog_coordinates(annulus_r1_l2))
    assert (d > 0).all()
    assert d.shape == (annulus_r1_l2.n_cells,)


@pytest.mark.parametrize("field", ["hedgehog", "annulus", "chart"])
def test_cell_diameters_match_the_all_pairs_tensor(annulus_r1_l2, field):
    """The 15 distinct vertex pairs give, bit for bit, the max over all 36
    ordered pairs: x_j - x_i is the exact negation of x_i - x_j."""
    coords = {
        "hedgehog": geometry.hedgehog_coordinates,
        "annulus": mesh.ExtrudedMesh.cell_node_coords,
        "chart": geometry.manifold_coordinates,
    }[field](annulus_r1_l2)
    diff = coords[:, :, None, :] - coords[:, None, :, :]
    want = np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
    assert geometry.cell_diameters(coords).tobytes() == want.tobytes()


def test_physical_point_mapping_interpolates_vertices(annulus_r1_l2):
    coords = annulus_r1_l2.cell_node_coords()
    ref_vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    got = physical_points(coords, [0, 3], ref_vertices)
    np.testing.assert_allclose(got, coords[[0, 3]], atol=1e-14)
