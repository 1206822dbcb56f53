import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import evaluate_velocity, interpolate_hdiv, vertical_facet_normal_values
from shallowfem import fem, geometry, mesh


def tri_integral(a, b):
    """Exact integral of xi1^a xi2^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


# ---------------------------------------------------------------------------
# reference prism tables
# ---------------------------------------------------------------------------

def test_edge_scaled_normals():
    """Outward in-plane normals with length equal to the edge length."""
    for edge in range(3):
        a, b = fem.edge_endpoints(edge)
        n = fem.edge_scaled_normal(edge)
        assert abs(np.linalg.norm(n) - np.linalg.norm(b - a)) < 1e-14
        assert abs(np.dot(n, b - a)) < 1e-14
        centroid = np.array([1 / 3, 1 / 3])
        assert np.dot(n, 0.5 * (a + b) - centroid) > 0


def test_embed_quad_endpoints():
    for edge in range(3):
        a, b = fem.edge_endpoints(edge)
        pts = fem.embed_quad(edge, np.array([0.0, 1.0]), np.array([0.3, 0.3]))
        np.testing.assert_allclose(pts[0], [a[0], a[1], 0.3], atol=1e-15)
        np.testing.assert_allclose(pts[1], [b[0], b[1], 0.3], atol=1e-15)


def test_embed_tri_levels():
    xy = np.array([[0.2, 0.3], [0.1, 0.1]])
    np.testing.assert_array_equal(fem.embed_tri(0, xy)[:, 2], 0.0)
    np.testing.assert_array_equal(fem.embed_tri(1, xy)[:, 2], 1.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_triangle_rule_degree_zero():
    rule = fem.quadrature_triangle(0)
    assert len(rule.weights) == 1
    np.testing.assert_allclose(rule.weights.sum(), 0.5, rtol=1e-15)


@pytest.mark.parametrize("degree", range(0, 13))
def test_triangle_rule_weights(degree):
    rule = fem.quadrature_triangle(degree)
    assert (rule.weights > 0).all()
    np.testing.assert_allclose(rule.weights.sum(), 0.5, rtol=1e-14)
    # points strictly inside the triangle
    x, y = rule.points.T
    assert (x > 0).all() and (y > 0).all() and (x + y < 1).all()


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
def test_triangle_rule_monomial_exactness(degree):
    rule = fem.quadrature_triangle(degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            got = (rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b).sum()
            np.testing.assert_allclose(got, tri_integral(a, b), rtol=1e-13,
                                       err_msg=f"monomial ({a},{b})")


@pytest.mark.parametrize("degree", [1, 3, 6])
def test_prism_rule_monomial_exactness(degree):
    rule = fem.quadrature_prism(degree)
    np.testing.assert_allclose(rule.weights.sum(), 0.5, rtol=1e-14)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            for c in range(degree + 1):
                got = (
                    rule.weights
                    * rule.points[:, 0] ** a
                    * rule.points[:, 1] ** b
                    * rule.points[:, 2] ** c
                ).sum()
                np.testing.assert_allclose(
                    got, tri_integral(a, b) / (c + 1), rtol=1e-12,
                    err_msg=f"monomial ({a},{b},{c})",
                )


@pytest.mark.parametrize("degree", [3, 10, 12])
def test_prism_rule_carries_its_tensor_factors(degree):
    """Point t * nz + z is triangle point t at interval point z, with the
    product weight; ``tensor_weights`` is that product as (nt, nz)."""
    rule = fem.quadrature_prism(degree)
    tri, interval = rule.triangle, rule.interval
    nt, nz = len(tri.weights), len(interval.weights)
    points = rule.points.reshape(nt, nz, 3)
    np.testing.assert_array_equal(points[..., :2], np.broadcast_to(tri.points[:, None], (nt, nz, 2)))
    np.testing.assert_array_equal(points[..., 2], np.broadcast_to(interval.points[:, 0], (nt, nz)))
    np.testing.assert_array_equal(rule.tensor_weights, np.outer(tri.weights, interval.weights))
    np.testing.assert_allclose(interval.weights.sum(), 1.0, rtol=1e-14)


def test_prism_rule_cubic_cross_term():
    rule = fem.quadrature_prism(3)
    got = (rule.weights * rule.points.prod(axis=1)).sum()
    np.testing.assert_allclose(got, 1.0 / 48.0, rtol=1e-13)


def test_gauss_jacobi_matches_scipy_and_a_40_digit_rule():
    """The numpy Gauss-Jacobi (alpha=1, beta=0) rule for n = 1..31 points,
    the triangle rules of degree 0..60.  Its nodes agree with scipy's
    ``roots_jacobi`` to 1e-14.  Its weights agree to 1e-15 with mpmath's
    40-digit rule; scipy's own weights are off that rule by up to 1.21e-14
    (at n = 25), so they are held to 2e-14."""
    mpmath = pytest.importorskip("mpmath")
    from scipy.special import roots_jacobi

    for n in range(1, 32):
        x, w = fem._gauss_jacobi(n)
        xs, ws = roots_jacobi(n, 1.0, 0.0)
        with mpmath.workdps(40):
            X, W = (np.array(v, dtype=float) for v in mpmath.gauss_quadrature(n, "jacobi", 1, 0))
        assert np.abs(x - xs).max() <= 1e-14 and np.abs(x - X.ravel()).max() <= 1e-15
        assert np.abs(w - W.ravel()).max() <= 1e-15 and np.abs(w - ws).max() <= 2e-14


def test_import_leaves_scipy_special_out():
    code = "import sys, shallowfem; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(fem.__file__).parents[1])})
    assert proc.stdout.strip() == "False", proc.stderr


def test_quadrature_rejects_negative_degree():
    with pytest.raises(ValueError, match="supported"):
        fem.quadrature_triangle(-1)
    with pytest.raises(ValueError, match="supported"):
        fem.quadrature_prism(-2)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k, dim_v1, dim_v2", [(1, 8, 1), (2, 33, 6)])
def test_element_dimensions(k, dim_v1, dim_v2):
    assert fem.make_element("V1", k).ndofs == dim_v1
    assert fem.make_element("V2", k).ndofs == dim_v2


def test_unknown_element_rejected():
    with pytest.raises(ValueError):
        fem.make_element("V3", 1)
    with pytest.raises(ValueError):
        fem.make_element("V1", 3)


def test_element_cache_returns_same_object():
    assert fem.make_element("V1", 1) is fem.make_element("V1", 1)


def test_v2_lowest_order_is_constant_one():
    elem = fem.make_element("V2", 1)
    pts = np.random.default_rng(0).random((20, 3)) * [0.5, 0.5, 1.0]
    np.testing.assert_allclose(fem.tabulate(elem, pts).values, 1.0, atol=0)


@pytest.mark.parametrize("k", [1, 2])
def test_dof_kronecker_property(k):
    """Applying DOF i to basis function j gives the identity to 1e-12."""
    elem = fem.make_element("V1", k)
    K = np.empty((elem.ndofs, elem.ndofs))
    for i, dof in enumerate(elem.dofs):
        vals = fem.tabulate(elem, dof.points).values
        for j in range(elem.ndofs):
            K[i, j] = np.sum(dof.weights * vals[:, j, :])
    assert np.abs(K - np.eye(elem.ndofs)).max() <= 1e-12


def _monomial_derivative(exp, axis):
    """(coefficient, exponents) of d/dxi_axis of a monomial."""
    a = list(exp)
    if a[axis] == 0:
        return 0.0, tuple(a)
    c = float(a[axis])
    a[axis] -= 1
    return c, tuple(a)


def per_monomial_values(monomials, pts):
    """V1 monomial values and divergences, one monomial at a time."""
    vals = np.zeros((len(pts), len(monomials), 3))
    divs = np.zeros((len(pts), len(monomials)))
    for j, (comp, exp) in enumerate(monomials):
        vals[:, j, comp] = fem._monomial_values([exp], pts)[:, 0]
        c, dexp = _monomial_derivative(exp, comp)
        if c:
            divs[:, j] = c * fem._monomial_values([dexp], pts)[:, 0]
    return vals, divs


@pytest.mark.parametrize("k", [1, 2])
def test_monomial_evaluator_matches_per_monomial_loop(k):
    """tabulate and make_element give exactly what the per-monomial loop gives."""
    elem = fem.make_element("V1", k)
    pts = np.random.default_rng(k).random((25, 3)) * [0.5, 0.5, 1.0]
    vals, divs = per_monomial_values(elem.monomials, pts)
    tab = fem.tabulate(elem, pts)
    np.testing.assert_array_equal(tab.values, np.einsum("dj,pjc->pdc", elem.coeffs, vals))
    np.testing.assert_array_equal(tab.divergences, divs @ elem.coeffs.T)

    A = np.array([
        np.einsum("qc,qjc->j", dof.weights, per_monomial_values(elem.monomials, dof.points)[0])
        for dof in elem.dofs
    ])
    np.testing.assert_array_equal(elem.coeffs, np.linalg.solve(A, np.eye(len(A))).T)


@pytest.mark.parametrize("k", [1, 2])
def test_divergence_lands_in_pressure_space(k):
    """div V1(k) lies in V2(k): L2 projection reproduces it pointwise."""
    e1 = fem.make_element("V1", k)
    e2 = fem.make_element("V2", k)
    rule = fem.quadrature_prism(2 * k + 6)
    t1 = fem.tabulate(e1, rule.points)
    t2 = fem.tabulate(e2, rule.points)
    G = np.einsum("q,qa,qb->ab", rule.weights, t2.values, t2.values)
    Q = t2.values @ np.linalg.inv(np.linalg.cholesky(G)).T
    proj = Q @ np.einsum("q,qa,qi->ai", rule.weights, Q, t1.divergences)
    assert np.abs(proj - t1.divergences).max() <= 1e-12


def test_lowest_order_divergences_constant():
    elem = fem.make_element("V1", 1)
    pts = np.random.default_rng(1).random((30, 3)) * [0.5, 0.5, 1.0]
    div = fem.tabulate(elem, pts).divergences
    assert np.abs(div - div[:1]).max() <= 1e-13


def test_quad_facet_dofs_vanish_on_other_facets():
    """Basis functions have normal support only on their own facet."""
    elem = fem.make_element("V1", 1)
    t = np.linspace(0.1, 0.9, 4)
    for j, dof in enumerate(elem.dofs):
        kind = dof.entity[0]
        for edge in range(3):
            if kind == "quad" and dof.entity[1] == edge:
                continue
            n = fem.edge_scaled_normal(edge)
            pts = fem.embed_quad(edge, t, np.full_like(t, 0.5))
            vals = fem.tabulate(elem, pts).values[:, j, :2]
            np.testing.assert_allclose(vals @ n, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Piola transform
# ---------------------------------------------------------------------------

def test_piola_push_scaling(single_prism):
    """J = 2I: velocities scale by 1/4, divergences by 1/8."""
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    coords = geometry.CoordinateField(cell_coords=2.0 * ref[None])
    V = fem.build_dof_map(single_prism, mesh.classify_facets(single_prism),
                          fem.make_element("V1", 1))
    u = fem.Field(V, np.random.default_rng(4).standard_normal(V.n_dofs))
    xi = np.array([[0.2, 0.2, 0.5]])
    tab = fem.tabulate(V.element, xi)
    chat = u.coeffs[V.cell_dofs[0]] * V.cell_signs[0]
    v = evaluate_velocity(u, coords, [0], xi)[0, 0]
    np.testing.assert_allclose(v, chat @ tab.values[0] / 4.0, atol=1e-14)
    # physical divergence by central differences in x = 2 xi (the field is linear)
    eps = 1e-3
    vp = evaluate_velocity(u, coords, [0], xi + eps * np.eye(3))[0]
    vm = evaluate_velocity(u, coords, [0], xi - eps * np.eye(3))[0]
    div = np.trace(vp - vm) / (2.0 * eps * 2.0)
    np.testing.assert_allclose(div, chat @ tab.divergences[0] / 8.0, atol=1e-12)


def test_piola_preserves_normal_flux():
    """Facet flux integrals match their reference values on an affine cell."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    A = A @ A.T + 3.0 * np.eye(3)       # well-conditioned, det > 0
    shift = rng.standard_normal(3)
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    coords = geometry.CoordinateField(cell_coords=(ref @ A.T + shift)[None])
    elem = fem.make_element("V1", 1)
    t, wt = np.polynomial.legendre.leggauss(4)
    t, wt = (t + 1) / 2, wt / 2
    for edge in range(3):
        n_scaled = fem.edge_scaled_normal(edge)
        tt, zz = np.meshgrid(t, t, indexing="ij")
        pts = fem.embed_quad(edge, tt.ravel(), zz.ravel())
        w2 = np.outer(wt, wt).ravel()
        tab = fem.tabulate(elem, pts)
        # reference flux of each basis function through this facet
        ref_flux = np.einsum("q,qdc,c->d", w2, tab.values[:, :, :2], n_scaled)
        # physical flux via the area-weighted facet normal T_s x T_z; the
        # Piola factor 1/det cancels the cofactor scaling exactly
        J = geometry.jacobian(coords, [0], pts)
        v = np.einsum("pik,pdk->pdi", J.J[0], tab.values) / J.det[0][:, None, None]
        a, b = fem.edge_endpoints(edge)
        tan_s = A @ np.array([b[0] - a[0], b[1] - a[1], 0.0])
        tan_z = A @ np.array([0.0, 0.0, 1.0])
        area_normal = np.cross(tan_s, tan_z)
        raw = np.array([b[1] - a[1], a[0] - b[0]])
        sigma = np.sign(raw @ n_scaled)
        phys_flux = np.einsum("q,qdc,c->d", w2, v, area_normal)
        np.testing.assert_allclose(
            phys_flux, sigma * ref_flux,
            atol=1e-12 * max(1.0, np.abs(ref_flux).max()),
        )


def test_piola_divergence_identity():
    """div of the pushed field equals dhat/det, checked by finite differences."""
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    ref = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=float
    )
    coords = geometry.CoordinateField(cell_coords=(ref @ A.T)[None])
    elem = fem.make_element("V1", 1)
    Ainv = np.linalg.inv(A)
    x0 = A @ np.array([0.25, 0.25, 0.5])
    h = 1e-6
    div_fd = np.zeros(elem.ndofs)
    for axis in range(3):
        for sgn in (1.0, -1.0):
            x = x0 + sgn * h * np.eye(3)[axis]
            xi = Ainv @ x
            tab = fem.tabulate(elem, xi[None])
            J = geometry.jacobian(coords, [0], xi[None])
            v = np.einsum("ik,dk->di", J.J[0, 0], tab.values[0]) / J.det[0, 0]
            div_fd += sgn * v[:, axis] / (2 * h)
    tab0 = fem.tabulate(elem, (Ainv @ x0)[None])
    J0 = geometry.jacobian(coords, [0], (Ainv @ x0)[None])
    np.testing.assert_allclose(div_fd, tab0.divergences[0] / J0.det[0, 0], atol=1e-6)


# ---------------------------------------------------------------------------
# global DOF maps
# ---------------------------------------------------------------------------

def test_dof_counts_lowest_order(annulus_r0_l1, facets_r0_l1):
    V1 = fem.build_dof_map(annulus_r0_l1, facets_r0_l1, fem.make_element("V1", 1))
    V2 = fem.build_dof_map(annulus_r0_l1, facets_r0_l1, fem.make_element("V2", 1))
    assert V1.n_dofs == 100          # 30 quads x 2 + 40 triangles x 1
    assert V2.n_dofs == 20


def test_dof_counts_quadratic(annulus_r1_l2, facets_r1_l2):
    m = annulus_r1_l2
    V1 = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V1", 2))
    V2 = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V2", 2))
    nquad = len(facets_r1_l2.vertical_cells)
    nhf = len(facets_r1_l2.horizontal_cells)
    assert V1.n_dofs == nquad * 6 + nhf * 3 + m.n_cells * 9
    assert V2.n_dofs == m.n_cells * 6


def test_shared_facet_dofs_appear_in_both_cells(annulus_r1_l2, facets_r1_l2):
    V = fem.build_dof_map(annulus_r1_l2, facets_r1_l2, fem.make_element("V1", 1))
    f = facets_r1_l2
    for vf in range(0, len(f.vertical_cells), 13):
        c0, c1 = f.vertical_cells[vf]
        for g in V.vfacet_dofs[vf]:
            assert g in V.cell_dofs[c0] and g in V.cell_dofs[c1]
    interior_horizontal = np.flatnonzero((f.horizontal_cells >= 0).all(axis=1))
    for hf in interior_horizontal[::7]:
        below, above = f.horizontal_cells[hf]
        for g in V.hfacet_dofs[hf]:
            assert g in V.cell_dofs[below] and g in V.cell_dofs[above]


def loop_nest_dof_map(mesh_, facets, element):
    """(n_dofs, cell_dofs, cell_signs, vfacet_dofs, hfacet_dofs) of V1(k) with
    the DOF counts per facet written out for each k and one loop per local
    edge, moment and interval moment."""
    nc, L, base, k = mesh_.n_cells, mesh_.n_layers, mesh_.base, element.k
    n_quad = (k + 1) * k
    n_tri = 3 if k == 2 else 1
    n_int = 9 if k == 2 else 0
    nvf, nhf = len(facets.vertical_cells), len(facets.horizontal_cells)
    off_h = nvf * n_quad
    off_i = off_h + nhf * n_tri
    vfacet_dofs = np.arange(off_h, dtype=np.int64).reshape(nvf, n_quad)
    hfacet_dofs = (off_h + np.arange(nhf * n_tri, dtype=np.int64)).reshape(nhf, n_tri)
    tris, layers = np.arange(nc) // L, np.arange(nc) % L
    cell_dofs = np.empty((nc, element.ndofs), dtype=np.int64)
    cell_signs = np.ones((nc, element.ndofs))
    i = 0
    for edge in range(3):
        vf = base.triangle_edges[tris, edge] * L + layers
        sig_n = np.where(facets.vertical_cells[vf, 0] == np.arange(nc), 1.0, -1.0)
        p, q = mesh.TRIANGLE_EDGE_VERTICES[edge]
        sig_s = np.where(base.triangles[tris, p] < base.triangles[tris, q], 1.0, -1.0)
        for j in range(k + 1):
            for m in range(k):
                cell_dofs[:, i] = vfacet_dofs[vf, j * k + m]
                cell_signs[:, i] = sig_n * sig_s ** j
                i += 1
    for which in (0, 1):
        hf = tris * (L + 1) + layers + which
        sig = np.where((layers + which) == 0, -1.0, 1.0)
        for j in range(n_tri):
            cell_dofs[:, i] = hfacet_dofs[hf, j]
            cell_signs[:, i] = sig
            i += 1
    for j in range(n_int):
        cell_dofs[:, i] = off_i + np.arange(nc) * n_int + j
        i += 1
    return off_i + nc * n_int, cell_dofs, cell_signs, vfacet_dofs, hfacet_dofs


def assert_dof_map_matches_loop_nest(mesh_, facets, k):
    V = fem.build_dof_map(mesh_, facets, fem.make_element("V1", k))
    n_dofs, *arrays = loop_nest_dof_map(mesh_, facets, V.element)
    assert V.n_dofs == n_dofs
    for name, want in zip(("cell_dofs", "cell_signs", "vfacet_dofs", "hfacet_dofs"), arrays):
        np.testing.assert_array_equal(getattr(V, name), want, strict=True)


@pytest.mark.parametrize("r", range(5))
def test_dof_map_matches_loop_nest(r):
    """The DOF map read off the element's DOF entities is exactly the loop
    nest's, at a in {1, 2}, L in {1, 2, 8} and k in {1, 2}."""
    for a in (1.0, 2.0):
        base = mesh.build_icosahedral_sphere(r, a)
        for L in (1, 2, 8):
            m = mesh.extrude_radial(base, L, 1.0)
            facets = mesh.classify_facets(m)
            for k in (1, 2):
                assert_dof_map_matches_loop_nest(m, facets, k)


@pytest.mark.parametrize("k", [1, 2])
def test_open_mesh_dof_map_matches_loop_nest(single_prism, k):
    assert_dof_map_matches_loop_nest(single_prism, mesh.classify_facets(single_prism), k)


def test_signs_are_unit(annulus_r1_l2, facets_r1_l2):
    for k in (1, 2):
        V = fem.build_dof_map(annulus_r1_l2, facets_r1_l2, fem.make_element("V1", k))
        assert set(np.unique(V.cell_signs)) <= {-1.0, 1.0}


def test_field_length_validation(annulus_r0_l1, facets_r0_l1):
    V = fem.build_dof_map(annulus_r0_l1, facets_r0_l1, fem.make_element("V1", 1))
    with pytest.raises(ValueError):
        fem.Field(V, np.zeros(V.n_dofs + 1))


# ---------------------------------------------------------------------------
# normal continuity across facets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_normal_continuity_vertical_facets(annulus_r1_l2, facets_r1_l2, k):
    """Normal components agree across interior vertical facets to 1e-10."""
    m = annulus_r1_l2
    coords = geometry.annulus_coordinates(m)
    V = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V1", k))
    rng = np.random.default_rng(17)
    u = fem.Field(V, rng.standard_normal(V.n_dofs))
    ss, zz = np.meshgrid(np.linspace(0.1, 0.9, 4), np.linspace(0.1, 0.9, 3), indexing="ij")
    worst = 0.0
    for vf in range(0, len(facets_r1_l2.vertical_cells), 5):
        lo, hi = vertical_facet_normal_values(
            m, coords, u, vf, facets_r1_l2, ss.ravel(), zz.ravel()
        )
        worst = max(worst, np.abs(lo - hi).max())
    scale = np.abs(u.coeffs).max()
    assert worst <= 1e-10 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_normal_continuity_horizontal_facets(annulus_r1_l2, facets_r1_l2, k):
    """Vertical flux is continuous across interior horizontal facets."""
    m = annulus_r1_l2
    coords = geometry.annulus_coordinates(m)
    V = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V1", k))
    rng = np.random.default_rng(23)
    u = fem.Field(V, rng.standard_normal(V.n_dofs))
    xy = np.array([[0.2, 0.3], [0.5, 0.25], [0.15, 0.6], [1 / 3, 1 / 3]])
    worst = 0.0
    interior_horizontal = np.flatnonzero((facets_r1_l2.horizontal_cells >= 0).all(axis=1))
    for hf in interior_horizontal[::3]:
        below, above = facets_r1_l2.horizontal_cells[hf]
        vals = []
        X_prev = None
        for c, which in ((below, 1), (above, 0)):
            ref = fem.embed_tri(which, xy)
            X = geometry.nodal_basis(ref) @ coords.cell_coords[c]
            if X_prev is not None:
                np.testing.assert_allclose(X, X_prev, atol=1e-12)
            X_prev = X
            corners = coords.cell_coords[c][(3, 4, 5), :] if which else coords.cell_coords[c][(0, 1, 2), :]
            n = np.cross(corners[1] - corners[0], corners[2] - corners[0])
            n /= np.linalg.norm(n)
            v = evaluate_velocity(u, coords, [c], ref)[0]
            vals.append(v @ n)
        worst = max(worst, np.abs(vals[0] - vals[1]).max())
    assert worst <= 1e-10 * np.abs(u.coeffs).max()


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_interpolate_constant_field():
    """Constants lie in the lowest-order space on a single affine column.

    Across columns the hedgehog facets do not coincide physically, so a
    global constant is only representable column by column.
    """
    verts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    m = mesh.extrude_radial(base, 2, 0.8)
    facets = mesh.classify_facets(m)
    coords = geometry.hedgehog_coordinates(m)
    V = fem.build_dof_map(m, facets, fem.make_element("V1", 1))
    const = np.array([0.3, -1.2, 0.8])
    u = interpolate_hdiv(V, coords, lambda cell, xi, x: np.broadcast_to(const, x.shape))
    pts = np.random.default_rng(6).random((5, 3)) * [0.5, 0.5, 1.0]
    vals = evaluate_velocity(u, coords, np.arange(m.n_cells), pts)
    np.testing.assert_allclose(vals, np.broadcast_to(const, vals.shape), atol=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_interpolation_reproduces_members(annulus_r1_l2, facets_r1_l2, k):
    """Interpolating a field of the space returns its own coefficients."""
    m = annulus_r1_l2
    coords = geometry.annulus_coordinates(m)
    V = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V1", k))
    rng = np.random.default_rng(8)
    u0 = fem.Field(V, rng.standard_normal(V.n_dofs))

    def func(cell, xi, x):
        return evaluate_velocity(u0, coords, [cell], xi)[0]

    u1 = interpolate_hdiv(V, coords, func)
    np.testing.assert_allclose(u1.coeffs, u0.coeffs, atol=1e-10)


def test_evaluate_pressure_constant(annulus_r0_l1, facets_r0_l1):
    """A V2 field of ones is 1 everywhere, evaluated as the error norms do."""
    V = fem.build_dof_map(annulus_r0_l1, facets_r0_l1, fem.make_element("V2", 1))
    p = fem.Field(V, np.ones(V.n_dofs))
    tab = fem.tabulate(V.element, np.array([[0.2, 0.2, 0.4]]))
    vals = p.coeffs[V.cell_dofs[np.arange(5)]] @ tab.values.T
    np.testing.assert_allclose(vals, 1.0, atol=1e-14)
