import numpy as np
import pytest

from shallowfem import fem, geometry, mesh

from conftest import frame_basis, phi, physical_points, pushforward_4to3


def synthetic_polar_column():
    """One column whose extrusion axis is exactly (0, 0, 1)."""
    verts = np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.0, -0.6, 0.8]])
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    return mesh.extrude_radial(base, 1, 1.0)


# ---------------------------------------------------------------------------
# phi / phi_inverse
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


@pytest.mark.parametrize(
    "x, expected",
    [
        ((0.0, 0.0, 1.5), (0.0, 0.0, 1.0, 0.5)),
        ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)),
    ],
)
def test_phi_inverse_values(x, expected):
    np.testing.assert_allclose(geometry.phi_inverse(np.array(x), a=1.0), expected, atol=1e-15)


def test_phi_round_trip():
    """100 random annulus points survive phi(phi_inverse(x)) to 1e-12."""
    rng = np.random.default_rng(42)
    d = rng.standard_normal((100, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    x = d * rng.uniform(1.0, 2.0, 100)[:, None]
    np.testing.assert_allclose(phi(geometry.phi_inverse(x, 1.0), 1.0), x, atol=1e-12)
    x4 = np.column_stack([d, rng.uniform(0.0, 1.0, 100)])
    np.testing.assert_allclose(
        geometry.phi_inverse(phi(x4, 1.0), 1.0), x4, atol=1e-12
    )


def test_phi_inverse_domain_error():
    with pytest.raises(ValueError):
        geometry.phi_inverse(np.array([0.5, 0.0, 0.0]), a=1.0)


@pytest.mark.parametrize("a", [1.0, 1e8])
def test_phi_inverse_tolerance_is_relative(a):
    """A point 1e-6 a inside the sphere raises at every radius."""
    with pytest.raises(geometry.DegenerateMapError, match="inside the sphere"):
        geometry.phi_inverse(np.array([0.0, (1.0 - 1e-6) * a, 0.0]), a=a)


@pytest.mark.parametrize("radius", [3e7, 5e7, 1e8, 2e8, 1e9])
def test_manifold_coordinates_at_large_radii(radius):
    """Inner-sphere vertices, whose radii carry rounding of about 1e-16 a,
    map to height 0 within that rounding; an absolute tolerance of 1e-9
    rejected them at these radii."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(2, radius=radius), 1, 1e4)
    x4 = geometry.manifold_coordinates(m)
    assert np.abs(x4[..., 3].min()) <= 1e-15 * radius


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

def test_annulus_coordinates_continuous(annulus_r1_l2):
    coords = geometry.annulus_coordinates(annulus_r1_l2)
    assert coords.column_axes is None
    np.testing.assert_array_equal(
        coords.cell_coords, annulus_r1_l2.vertex_coords[annulus_r1_l2.cell_vertices]
    )


def test_hedgehog_polar_column_fixed_point():
    """A column extruded along (0,0,1) keeps its polar node in place."""
    m = synthetic_polar_column()
    coords = geometry.hedgehog_coordinates(m)
    np.testing.assert_allclose(coords.column_axes[0], [0.0, 0.0, 1.0], atol=1e-14)
    prime = coords.cell_coords[0]
    orig = m.cell_node_coords()[0]
    i_pole_top = [tuple(np.round(p, 12)) for p in orig].index((0.0, 0.0, 2.0))
    np.testing.assert_allclose(prime[i_pole_top], [0.0, 0.0, 2.0], atol=1e-13)


def test_hedgehog_node_formula_by_hand():
    """x' = a*x_hat + (r - a)*k for the node (0, 1.2, 1.6) with k = e3."""
    m = synthetic_polar_column()
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()[0]
    idx = [tuple(np.round(p, 12)) for p in orig].index((0.0, 1.2, 1.6))
    np.testing.assert_allclose(coords.cell_coords[0, idx], [0.0, 0.6, 1.8], atol=1e-13)


def test_hedgehog_base_layer_nodes_fixed(annulus_r1_l2):
    """Nodes on the inner sphere have x4 = 0 and stay put."""
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()
    bottom_cells = np.arange(m.n_cells)[np.arange(m.n_cells) % m.n_layers == 0]
    np.testing.assert_allclose(
        coords.cell_coords[bottom_cells][:, :3], orig[bottom_cells][:, :3], atol=1e-13
    )


def test_hedgehog_axis_is_normalized_vertex_mean(annulus_r1_l2):
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    x4 = geometry.manifold_coordinates(m)
    mean_h = x4[:, :, :3].mean(axis=1)
    k = mean_h / np.linalg.norm(mean_h, axis=1, keepdims=True)
    np.testing.assert_allclose(coords.column_axes, k, atol=1e-14)


@pytest.mark.parametrize("refinement", [0, 1, 2, 3, 4])
def test_hedgehog_metric_equals_the_chart_only_to_second_order(refinement):
    """The hedgehog's J^T J equals the 4D chart's J4^T J4 (``jacobian4`` of
    ``manifold_coordinates``) at the centroid only on the raw icosahedron.
    The column axis is the normalised vertex mean, not the normal of the
    chordal base triangle, so on refined meshes the metrics differ by
    O(h^2): measured 0.098, 0.147, 0.154 and 0.155 times 4^-r, largest
    entry gap over largest entry per cell, at r = 1..4."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(refinement, 1.0), 2, 1.0)
    cells, centroid = np.arange(m.n_cells), np.array([[1 / 3, 1 / 3, 0.5]])
    J = geometry.jacobian(geometry.hedgehog_coordinates(m), cells, centroid).J[:, 0]
    J4 = geometry.jacobian4(geometry.manifold_coordinates(m), cells, centroid)[:, 0]
    G, G4 = (np.einsum("cia,cib->cab", X, X) for X in (J, J4))
    gap = (np.abs(G - G4).max(axis=(1, 2)) / np.abs(G4).max(axis=(1, 2))).max()
    if refinement == 0:
        assert gap <= 1e-14
    else:
        assert gap < 0.2 * 4.0 ** -refinement


def test_hedgehog_axis_shared_along_column(annulus_r1_l2):
    m = annulus_r1_l2
    axes = geometry.hedgehog_coordinates(m).column_axes
    per_col = axes.reshape(-1, m.n_layers, 3)
    assert np.abs(per_col - per_col[:, :1, :]).max() <= 1e-14


def test_hedgehog_gap_law(annulus_r1_l2):
    """Duplicated vertices split by exactly ||k1 - k2|| * x4."""
    m = annulus_r1_l2
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()
    x4 = geometry.manifold_coordinates(m)[:, :, 3]
    axes = coords.column_axes
    checked = 0
    for c1 in range(0, m.n_cells, 7):
        for c2 in range(c1 + 1, m.n_cells):
            for i in range(6):
                match = np.linalg.norm(orig[c2] - orig[c1, i], axis=1) < 1e-12
                if not match.any():
                    continue
                j = int(np.argmax(match))
                gap = np.linalg.norm(coords.cell_coords[c1, i] - coords.cell_coords[c2, j])
                law = np.linalg.norm(axes[c1] - axes[c2]) * x4[c1, i]
                assert abs(gap - law) <= 1e-12
                checked += 1
    assert checked > 100


def test_hedgehog_degenerate_column_rejected():
    """A column whose mean radial direction vanishes is refused."""
    # three equally spaced equatorial vertices: unit vectors sum to zero
    verts = np.array(
        [
            [1.0, 0.0, 0.0],
            [-0.5, np.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -np.sqrt(3.0) / 2.0, 0.0],
        ]
    )
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    m = mesh.extrude_radial(base, 1, 1.0)
    with pytest.raises(geometry.DegenerateMapError):
        geometry.hedgehog_coordinates(m)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def test_unit_prism_jacobian_identity():
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    coords = geometry.CoordinateField(cell_coords=ref[None])
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
    coords = geometry.annulus_coordinates(m)
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
    coords = geometry.annulus_coordinates(m)
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
    coords = geometry.CoordinateField(cell_coords=flipped[None])
    with pytest.raises(ValueError):
        geometry.jacobian(coords, [0], [[0.2, 0.2, 0.5]])


def test_jacobian_factorization_count(annulus_r1_l2):
    coords = geometry.hedgehog_coordinates(annulus_r1_l2)
    cells = np.arange(annulus_r1_l2.n_cells)
    one = geometry.jacobian(coords, cells, np.array([[1 / 3, 1 / 3, 0.5]]))
    assert one.n_factorizations == annulus_r1_l2.n_cells


def test_quadrature_jacobian_samples_by_field(annulus_r1_l2):
    """quadrature_chunks: hedgehog J once per cell at the centroid, annulus J
    at every point; the chunks cover the cells in order."""
    m = annulus_r1_l2
    x4 = geometry.manifold_coordinates(m)
    pts = np.array([[0.2, 0.3, 0.1], [0.5, 0.1, 0.9], [0.1, 0.1, 0.5]])
    centroid = np.array([[1 / 3, 1 / 3, 0.5]])
    hh = geometry.hedgehog_coordinates(m)
    (cells, J, pinv4T, x4q), = geometry.quadrature_chunks(hh, x4, pts)
    np.testing.assert_array_equal(cells, np.arange(m.n_cells))
    assert J.J.shape == (m.n_cells, 1, 3, 3) and J.n_factorizations == m.n_cells
    at_pts = geometry.jacobian(hh, cells, pts)
    np.testing.assert_allclose(np.broadcast_to(J.J, at_pts.J.shape), at_pts.J,
                               rtol=0, atol=1e-12)
    pinv4, _ = geometry.pseudo_inverse_pseudo_det(geometry.jacobian4(x4, cells, centroid))
    np.testing.assert_array_equal(pinv4T, np.swapaxes(pinv4[:, 0], 1, 2))
    np.testing.assert_allclose(x4q, np.einsum("pn,cnd->cpd", geometry.nodal_basis(pts), x4),
                               rtol=0, atol=1e-14)

    # the 216 points of the k=1 default rule: 2**15 // 216 = 151 cells per chunk
    pts = fem.quadrature_prism(fem.default_quadrature_degree(1)).points
    chunks = list(geometry.quadrature_chunks(geometry.annulus_coordinates(m), x4, pts))
    assert [len(c[0]) for c in chunks] == [151, 9]
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), np.arange(m.n_cells))
    assert all(c[1].J.shape == (len(c[0]), 216, 3, 3) for c in chunks)
    assert sum(c[1].n_factorizations for c in chunks) == 216 * m.n_cells


@pytest.mark.parametrize("npts, budget, first", [
    (216, None, 151), (224, None, 146), (370, None, 88), (343, None, 95),
    (7, 20, 2), (20, 20, 1), (21, 20, 1), (50, 20, 1),
], ids=["deep-k1", "shallow-k1", "k2-assembly", "k2-norms",
        "two-cells", "exact-budget", "over-budget", "far-over-budget"])
def test_chunks_cover_every_cell_once_within_the_point_budget(annulus_r1_l2, monkeypatch,
                                                               npts, budget, first):
    """The chunks hold every cell once, in order, and at most POINTS_PER_CHUNK
    points unless a chunk is a single cell; the real budget gives the cells
    per chunk of the deep and shallow k=1 and the k=2 rules."""
    if budget is not None:
        monkeypatch.setattr(geometry, "POINTS_PER_CHUNK", budget)
    m = annulus_r1_l2
    pts = np.random.default_rng(npts).uniform(0.0, 0.5, (npts, 3))
    chunks = [c[0] for c in geometry.quadrature_chunks(
        geometry.hedgehog_coordinates(m), geometry.manifold_coordinates(m), pts)]
    np.testing.assert_array_equal(np.concatenate(chunks), np.arange(m.n_cells))
    assert len(chunks[0]) == first
    assert all(len(c) * npts <= geometry.POINTS_PER_CHUNK or len(c) == 1 for c in chunks)


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
    coords = {"annulus": geometry.annulus_coordinates,
              "hedgehog": geometry.hedgehog_coordinates}[field](m)
    pts = np.random.default_rng(3).random((7, 3)) * [0.5, 0.5, 1.0]
    sel = np.arange(m.n_cells) if cells == "batched" else 37
    sample = geometry.jacobian(coords, sel, pts)
    J_ref, det_ref = _einsum_jacobian(coords.cell_coords[sel], pts)
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
    nodal = geometry.annulus_coordinates(annulus_r1_l2).cell_coords.copy()
    nodal[5] = nodal[5][[1, 0, 2, 4, 3, 5]]          # swap two vertices: det < 0
    coords = geometry.CoordinateField(cell_coords=nodal)
    pts = np.array([[0.2, 0.2, 0.5]])
    with pytest.raises(ValueError, match="inverted"):
        geometry.jacobian(coords, np.arange(len(nodal)), pts)
    with pytest.raises(ValueError, match="inverted"):
        geometry.jacobian(coords, 5, pts)
    assert geometry.jacobian(coords, 4, pts).det.shape == (1,)


def test_matvec3_broadcasts_cell_matrices():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 1, 3, 3))
    v = rng.standard_normal((4, 6, 3))
    ref = np.einsum("eij,eqj->eqi", A[:, 0], v)
    np.testing.assert_allclose(geometry.matvec3(A, v), ref, rtol=1e-14, atol=1e-14)
    A = rng.standard_normal((4, 6, 3, 3))
    np.testing.assert_allclose(geometry.matvec3(A, v),
                               np.einsum("eqij,eqj->eqi", A, v), rtol=1e-14, atol=1e-14)


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
    with pytest.raises(geometry.DegenerateMapError):
        geometry.pseudo_inverse_pseudo_det(J4)


# ---------------------------------------------------------------------------
# tangent frame
# ---------------------------------------------------------------------------

def test_frame_at_equator():
    x = np.array([1.0, 0.0, 0.0, 0.5])
    f = geometry.tangent_frame(x)
    np.testing.assert_allclose(f.e_lambda, [0, 1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(f.e_phi, [0, 0, 1, 0], atol=1e-14)
    np.testing.assert_allclose(frame_basis(f)[2], [0, 0, 0, 1], atol=1e-14)
    np.testing.assert_allclose(geometry.unit_normal(x), [1, 0, 0, 0], atol=1e-14)


def test_frame_orthonormal_at_random_points():
    rng = np.random.default_rng(11)
    d = rng.standard_normal((100, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = np.column_stack([d, rng.uniform(0, 1, 100)])
    f = geometry.tangent_frame(pts)
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
    f = geometry.tangent_frame(pts)
    cross = np.cross(f.e_lambda[:, :3], f.e_phi[:, :3])
    np.testing.assert_allclose(cross, geometry.unit_normal(pts)[:, :3], atol=1e-12)


@pytest.mark.parametrize("z", [1.0, -1.0])
def test_frame_pole_fallback(z):
    pole = np.array([0.0, 0.0, z, 0.3])
    f = geometry.tangent_frame(pole)
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
    f = geometry.tangent_frame(pts, a)
    v = geometry.project_tangent(np.random.default_rng(22).standard_normal(pts.shape), pts)
    assert f.e_lambda[-2:, 0].tolist() == [1.0, 1.0]      # the poles' fallback frame
    np.testing.assert_allclose(f.vector(f.components(v)), v, rtol=0, atol=1e-14)


def test_frame_components_invert_vector():
    """components(vector(c)) == c."""
    pts = _sphere_points(60, 23)
    f = geometry.tangent_frame(pts)
    c = np.random.default_rng(24).standard_normal((len(pts), 3))
    np.testing.assert_allclose(f.components(f.vector(c)), c, rtol=0, atol=1e-14)


def test_projection_at_chordal_points_leaves_no_normal_component(annulus_r1_l2):
    """At the quadrature points x4q (|x| < a inside each chord) P v has no
    component along unit_normal, which stays of unit length there."""
    x4 = geometry.manifold_coordinates(annulus_r1_l2)
    coords = geometry.hedgehog_coordinates(annulus_r1_l2)
    x4q = np.concatenate([
        q.reshape(-1, 4)
        for *_, q in geometry.quadrature_chunks(coords, x4, fem.quadrature_prism(4).points)
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
    np.testing.assert_allclose(out[:, 0], coords.column_axes, atol=1e-12)


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


def test_physical_point_mapping_interpolates_vertices(annulus_r1_l2):
    coords = geometry.annulus_coordinates(annulus_r1_l2)
    ref_vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    got = physical_points(coords, [0, 3], ref_vertices)
    np.testing.assert_allclose(got, coords.cell_coords[[0, 3]], atol=1e-14)
