"""End-to-end acceptance suite.

One test per headline guarantee; run with ``pytest -v tests/test_acceptance.py``
for a pass/fail line each.  The two convergence studies are module-scoped
fixtures, so the heavy solves run once and feed several checks.
"""

import time

import numpy as np
import pytest

from conftest import hedgehog_axes, phi, vertical_facet_normal_values
from shallowfem import assembly, cli, fem, geometry, mesh, mms


@pytest.fixture(scope="module")
def k1_study():
    """Lowest-order study on the production ladder, with wall time."""
    t0 = time.monotonic()
    table = mms.convergence_study(k=1, levels=[(1, 2), (2, 4), (3, 8)])
    return table, time.monotonic() - t0


@pytest.fixture(scope="module")
def k2_study():
    """Quadratic study; one ladder step coarser than k=1 keeps the suite
    fast (the (3,8) level alone takes about a minute and 3 GiB)."""
    return mms.convergence_study(k=2, levels=[(0, 1), (1, 2), (2, 4)])


# ---------------------------------------------------------------------------
# 1. first-order convergence, lowest-order elements
# ---------------------------------------------------------------------------

def test_first_order_convergence_lowest_order(k1_study):
    """k=1 shallow solves converge at first order in both p and u."""
    table, elapsed = k1_study
    rate_p, rate_u = table.final_rates
    assert 0.8 <= rate_p <= 1.3, f"rate_p = {rate_p:.3f} outside [0.8, 1.3]"
    assert 0.8 <= rate_u <= 1.3, f"rate_u = {rate_u:.3f} outside [0.8, 1.3]"
    assert elapsed <= 600.0, f"study took {elapsed:.0f} s"
    assert [r.ncells for r in table.rows] == [160, 1280, 10240]


# ---------------------------------------------------------------------------
# 2. quadratic elements: second order in p, between first and second in u
# ---------------------------------------------------------------------------

def test_quadratic_element_convergence(k2_study):
    """k=2 pressure converges at second order; velocity lands in between."""
    rate_p, rate_u = k2_study.final_rates
    assert rate_p >= 1.7, f"rate_p = {rate_p:.3f} below 1.7"
    assert 1.0 < rate_u < 2.0, f"rate_u = {rate_u:.3f} outside (1.0, 2.0)"


# ---------------------------------------------------------------------------
# 3. affine cell maps in shallow mode, metric growth in deep mode
# ---------------------------------------------------------------------------

def test_jacobian_structure_by_mode():
    """Shallow cells are affine everywhere; deep cells scale as (r_t/r_b)^2.

    The shallow (chart) Jacobian J4 is checked at the solver's own quadrature
    points on every cell of every study mesh; the deep determinant ratio is
    measured by direct numeric Jacobian evaluation at the cell top and bottom.
    """
    rule = fem.quadrature_prism(10)
    for refinement, layers in [(1, 2), (2, 4), (3, 8)]:
        m = mesh.extrude_radial(
            mesh.build_icosahedral_sphere(refinement, 1.0), layers, 1.0
        )
        x4 = geometry.manifold_coordinates(m)
        worst = 0.0
        for start in range(0, m.n_cells, 4096):
            cells = np.arange(start, min(start + 4096, m.n_cells))
            J = geometry.jacobian4(x4, cells, rule.points)
            scale = np.abs(J).max(axis=(1, 2, 3))
            var = np.abs(J - J[:, :1]).max(axis=(1, 2, 3))
            worst = max(worst, (var / scale).max())
        assert worst <= 1e-12, f"refinement {refinement}: variation {worst:.2e}"

    xy = np.array([[0.2, 0.3], [0.5, 0.25], [1 / 3, 1 / 3]])
    bottom = np.column_stack([xy, np.zeros(3)])
    top = np.column_stack([xy, np.ones(3)])
    for refinement, layers in [(1, 2), (2, 4)]:
        m = mesh.extrude_radial(
            mesh.build_icosahedral_sphere(refinement, 1.0), layers, 1.0
        )
        coords = m.cell_node_coords()
        radii = m.layer_radii
        cells = np.arange(m.n_cells)
        det_b = geometry.jacobian(coords, cells, bottom).det
        det_t = geometry.jacobian(coords, cells, top).det
        lay = cells % m.n_layers
        expected = (radii[lay + 1] / radii[lay]) ** 2
        gap = np.abs(det_t / det_b - expected[:, None]).max()
        assert gap <= 1e-10, f"refinement {refinement}: det ratio off by {gap:.2e}"


# ---------------------------------------------------------------------------
# 4. H(div) element structure
# ---------------------------------------------------------------------------

def test_hdiv_element_structure(annulus_r1_l2, facets_r1_l2):
    """Dual-basis identity, divergence compatibility, normal-trace continuity."""
    for k in (1, 2):
        e1 = fem.make_element("V1", k)

        K = np.empty((e1.ndofs, e1.ndofs))
        for i, dof in enumerate(e1.dofs):
            vals = fem.tabulate(e1, dof.points).values
            for j in range(e1.ndofs):
                K[i, j] = np.sum(dof.weights * vals[:, j, :])
        assert np.abs(K - np.eye(e1.ndofs)).max() <= 1e-12

        e2 = fem.make_element("V2", k)
        rule = fem.quadrature_prism(2 * k + 6)
        t1 = fem.tabulate(e1, rule.points)
        t2 = fem.tabulate(e2, rule.points)
        G = np.einsum("q,qa,qb->ab", rule.weights, t2.values, t2.values)
        Q = t2.values @ np.linalg.inv(np.linalg.cholesky(G)).T
        proj = Q @ np.einsum("q,qa,qi->ai", rule.weights, Q, t1.divergences)
        assert np.abs(proj - t1.divergences).max() <= 1e-12

        m = annulus_r1_l2
        coords = m.cell_node_coords()
        V = fem.build_dof_map(m, facets_r1_l2, fem.make_element("V1", k))
        rng = np.random.default_rng(29 + k)
        u = fem.Field(V, rng.standard_normal(V.n_dofs))
        ss, zz = np.meshgrid(
            np.linspace(0.1, 0.9, 3), np.linspace(0.2, 0.8, 2), indexing="ij"
        )
        worst = 0.0
        for vf in range(0, len(facets_r1_l2.vertical_cells), 7):
            lo, hi = vertical_facet_normal_values(
                m, coords, u, vf, facets_r1_l2, ss.ravel(), zz.ravel()
            )
            worst = max(worst, np.abs(lo - hi).max())
        assert worst <= 1e-10 * np.abs(u.coeffs).max()


# ---------------------------------------------------------------------------
# 5. independent oracles agree; rotation term is energy-neutral
# ---------------------------------------------------------------------------

def test_oracle_cross_validation_and_rotation_skewness(annulus_r0_l1, facets_r0_l1):
    """Two gradient implementations agree; the Coriolis block is skew."""
    ops = mms.ShallowOperators(a=1.0, H=1.0)
    case = mms.ManufacturedCase(a=1.0, H=1.0)
    pts = mms.sample_manifold_points(1.0, 1.0, 100)
    for f in (case.p_exact, lambda x: x[..., 0] * x[..., 3]):
        g1 = ops.oracle_grad(f, pts)
        g2 = ops.grad_projected(f, pts)
        assert np.abs(g1 - g2).max() <= 1e-7

    m = annulus_r0_l1
    V1 = fem.build_dof_map(m, facets_r0_l1, fem.make_element("V1", 1))
    V2 = fem.build_dof_map(m, facets_r0_l1, fem.make_element("V2", 1))
    with_rot = assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1), V1, V2)
    no_rot = assembly.assemble(
        assembly.ProblemConfig(mode="shallow", k=1, coriolis_enabled=False), V1, V2
    )
    nu = with_rot.n_u
    C = (with_rot.matrix[:nu, :nu] - no_rot.matrix[:nu, :nu]).toarray()
    normC = np.linalg.norm(C, 2)
    assert normC > 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.standard_normal(nu)
        assert abs(u @ C @ u) <= 1e-12 * (u @ u) * normC


# ---------------------------------------------------------------------------
# 6. forcing derivation is reported, persisted, and drives the solves
# ---------------------------------------------------------------------------

def test_forcing_report_persisted_and_used(k1_study, tmp_path):
    """The printed-vs-derived forcing comparison is written out, not hidden,
    and the derived forcing is what the converging study actually used."""
    table, _ = k1_study
    report = table.forcing_report

    report_path = tmp_path / "forcing_report.txt"
    report_path.write_text("\n".join(report.summary_lines()) + "\n")
    text = report_path.read_text()
    assert "max |u_printed . l|" in text
    assert "F_derived - F_printed" in text
    assert "g_derived - g_printed" in text

    csv_path = tmp_path / "convergence.csv"
    csv_path.write_text("\n".join(cli._csv_lines(table)) + "\n")
    assert csv_path.read_text().startswith(cli.CSV_HEADER)

    # the independent algebraic value of max |u . l| is matched to 1e-10
    assert report.max_u_normal > 1.0
    assert report.max_u_normal_analytic_gap <= 1e-10
    # the discrepancies are real and visible in the persisted numbers
    assert report.f_discrepancy > 1e-3
    assert report.g_discrepancy > 1e-3
    assert f"{report.g_discrepancy:.12e}" in text

    errs_u = [r.err_u for r in table.rows]
    errs_p = [r.err_p for r in table.rows]
    assert errs_u == sorted(errs_u, reverse=True)
    assert errs_p == sorted(errs_p, reverse=True)


# ---------------------------------------------------------------------------
# 7. mesh and embedding exactness
# ---------------------------------------------------------------------------

def test_mesh_and_embedding_exactness():
    """Subdivision counts, phi of the chart onto the annulus, gap law, volume identity."""
    for r in range(4):
        base = mesh.build_icosahedral_sphere(r, 1.0)
        nv, nf, ne = len(base.vertices), len(base.triangles), len(base.edges)
        assert nv == 10 * 4 ** r + 2
        assert nf == 20 * 4 ** r
        assert ne == 30 * 4 ** r
        assert nv - ne + nf == 2

    # phi maps the chart, base triangulation x layer heights, onto the
    # annulus nodes: exactly at a = 1 and 2, within rounding on the Earth shell
    for a, H, slack in ((1.0, 1.0, 0.0), (2.0, 1.0, 0.0), (6.371e6, 1e4, 2.0)):
        m = mesh.extrude_radial(mesh.build_icosahedral_sphere(2, a), 3, H)
        x3 = phi(geometry.manifold_coordinates(m), a=a)
        err = np.abs(x3 - m.cell_node_coords()).max()
        assert err <= slack * np.finfo(float).eps * (a + H)

    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0)
    coords = geometry.hedgehog_coordinates(m)
    orig = m.cell_node_coords()
    height = geometry.manifold_coordinates(m)[:, :, 3]
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
                law = np.linalg.norm(axes[c1] - axes[c2]) * height[c1, i]
                assert abs(gap - law) <= 1e-12
                checked += 1
    assert checked > 100

    # volume identity: the hedgehog measure is chordal area x H, since each
    # column axis is the normal of its chordal base triangle; the plain
    # product holds on the raw icosahedron and on refined bases alike.
    rule = fem.quadrature_prism(4)
    for r in (0, 1):
        base = mesh.build_icosahedral_sphere(r, 1.0)
        H = 1.0
        m = mesh.extrude_radial(base, 2, H)
        coords = geometry.hedgehog_coordinates(m)
        det = geometry.jacobian(coords, np.arange(m.n_cells), rule.points).det
        total = (det * rule.weights).sum()

        v = base.vertices[base.triangles]
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        normals = cross / np.linalg.norm(cross, axis=1, keepdims=True)
        np.testing.assert_allclose(hedgehog_axes(coords)[::m.n_layers], normals, atol=1e-14)
        assert abs(total - areas.sum() * H) <= 1e-10


# ---------------------------------------------------------------------------
# 8. solver residual contract
# ---------------------------------------------------------------------------

def test_all_solves_meet_residual_contract(k1_study, k2_study):
    """Every solve in both studies reports a relative residual <= 1e-10."""
    table, _ = k1_study
    for row in list(table.rows) + list(k2_study.rows):
        assert row.residual <= 1e-10, f"level {row.level}: residual {row.residual:.2e}"
