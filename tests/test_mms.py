import numpy as np
import pytest

from conftest import frame_basis, interpolate_hdiv, pushforward_4to3
from shallowfem import assembly, fem, geometry, mesh, mms


@pytest.fixture(scope="module")
def ops():
    return mms.ShallowOperators(a=1.0, H=1.0)


@pytest.fixture(scope="module")
def case():
    return mms.ManufacturedCase(a=1.0, H=1.0)


@pytest.fixture(scope="module")
def sample_points():
    return mms.sample_manifold_points(1.0, 1.0, 100, seed=7)


def rotation_vector(case, pts):
    """The rotation vector (0, 0, 0, omega_4) of the case, for ``tangent_cross``."""
    return geometry.stack_planes((0.0, 0.0, 0.0, case.omega4(pts)))


CORNER = np.array([1 / np.sqrt(3.0), 1 / np.sqrt(3.0), 1 / np.sqrt(3.0), 0.0])


# ---------------------------------------------------------------------------
# oracle differential operators
# ---------------------------------------------------------------------------

def test_gradient_of_height_coordinate(ops, sample_points):
    g = ops.oracle_grad(lambda x: x[..., 3], sample_points)
    np.testing.assert_allclose(
        g, np.broadcast_to([0, 0, 0, 1.0], g.shape), atol=1e-8
    )


def test_gradient_of_x3_at_equator(ops):
    g = ops.oracle_grad(lambda x: x[..., 2], np.array([1.0, 0.0, 0.0, 0.3]))
    np.testing.assert_allclose(g, [0.0, 0.0, 1.0, 0.0], atol=1e-8)


def test_gradient_of_constant_vanishes(ops, sample_points):
    g = ops.oracle_grad(lambda x: np.full(x.shape[:-1], 3.7), sample_points)
    np.testing.assert_allclose(g, 0.0, atol=1e-9)


def test_divergence_of_solid_rotation(ops, sample_points):
    """The zonal flow (-x2, x1, 0, 0) is divergence-free."""

    def u(x):
        return np.stack([-x[..., 1], x[..., 0], np.zeros(x.shape[:-1]),
                         np.zeros(x.shape[:-1])], axis=-1)

    div = ops.oracle_div(u, sample_points)
    np.testing.assert_allclose(div, 0.0, atol=1e-8)


def test_divergence_library(ops, sample_points):
    """Five closed-form fields with hand-computed divergences, to 1e-7."""
    pts = sample_points
    zeros = np.zeros(pts.shape[:-1])
    rho = np.sqrt(pts[..., 0] ** 2 + pts[..., 1] ** 2)

    def zonal(x):
        return np.stack([-x[..., 1], x[..., 0], zeros, zeros], axis=-1)

    def zonal_weighted(x):
        return np.stack([-x[..., 1] * x[..., 3], x[..., 0] * x[..., 3], zeros, zeros], axis=-1)

    def meridional(x):
        f = geometry.TangentFrame.at(x, a=1.0)
        return f.e_phi

    def vertical_linear(x):
        return np.stack([zeros, zeros, zeros, x[..., 3]], axis=-1)

    def vertical_sine(x):
        return np.stack([zeros, zeros, zeros, np.sin(x[..., 3])], axis=-1)

    cases = [
        (zonal, np.zeros_like(rho)),
        (zonal_weighted, np.zeros_like(rho)),
        (meridional, -pts[..., 2] / rho),
        (vertical_linear, np.ones_like(rho)),
        (vertical_sine, np.cos(pts[..., 3])),
    ]
    for u, expected in cases:
        div = ops.oracle_div(u, pts)
        np.testing.assert_allclose(div, expected, atol=1e-7)


def test_gradient_cross_validation(ops, sample_points, case):
    """Frame-based gradient vs projected Euclidean gradient, 100 points."""
    for f in (case.p_exact, lambda x: x[..., 2] * x[..., 3] ** 2):
        g1 = ops.oracle_grad(f, sample_points)
        g2 = ops.grad_projected(f, sample_points)
        assert np.abs(g1 - g2).max() <= 1e-7


# ---------------------------------------------------------------------------
# tangent-space cross product
# ---------------------------------------------------------------------------

def test_cross_right_handed_frame(ops):
    x = np.array([1.0, 0.0, 0.0, 0.5])
    out = ops.tangent_cross(
        np.array([0.0, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0, 0.0]), x
    )
    np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 0.0], atol=1e-12)


def test_cross_of_vector_with_itself(ops, sample_points):
    e_lambda, e_phi, i4 = frame_basis(geometry.TangentFrame.at(sample_points, a=1.0))
    v = 0.7 * e_lambda - 1.3 * e_phi + 0.4 * i4
    out = ops.tangent_cross(v, v, sample_points)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_cross_orthogonal_to_inputs_and_normal(ops, sample_points):
    rng = np.random.default_rng(9)
    c = rng.standard_normal((2, len(sample_points), 3))
    basis = frame_basis(geometry.TangentFrame.at(sample_points, a=1.0))
    v = np.einsum("nk,knc->nc", c[0], basis)
    w = np.einsum("nk,knc->nc", c[1], basis)
    out = ops.tangent_cross(v, w, sample_points)
    for other in (v, w, geometry.unit_normal(sample_points)):
        dots = np.abs(np.einsum("nc,nc->n", out, other))
        assert dots.max() <= 1e-10 * max(1.0, np.abs(out).max() * np.abs(other).max())


def test_cross_rejects_non_tangent_input(ops):
    x = np.array([1.0, 0.0, 0.0, 0.5])
    with pytest.raises(ValueError):
        ops.tangent_cross(
            np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]), x
        )


# ---------------------------------------------------------------------------
# manufactured case
# ---------------------------------------------------------------------------

def test_pressure_value_at_diagonal_point(case):
    np.testing.assert_allclose(case.p_exact(CORNER), 4.0 * 3.0 ** -1.5, rtol=1e-14)


def test_printed_g_equals_printed_p(case, sample_points):
    np.testing.assert_allclose(
        case.g_printed(sample_points), case.p_exact(sample_points), atol=0
    )
    np.testing.assert_allclose(case.g_printed(CORNER), 0.7698003589195014, rtol=1e-15)


def test_printed_velocity_first_component(case):
    np.testing.assert_allclose(case.u_printed(CORNER)[0], 8.0 / 9.0, rtol=1e-14)


def test_printed_velocity_not_tangent(case):
    """u . l = (3 - a^2) x1 x2 x3 (x4^2-1)(x4^2-4) / a, nonzero on the manifold."""
    got = case.u_printed(CORNER) @ geometry.unit_normal(CORNER)
    np.testing.assert_allclose(got, 1.5396007178390028, rtol=1e-14)
    np.testing.assert_allclose(got, case.u_dot_l_analytic(CORNER), rtol=1e-14)


def test_normal_component_formula_at_random_points(case, sample_points):
    u = case.u_printed(sample_points)
    l = geometry.unit_normal(sample_points)
    got = np.einsum("nc,nc->n", u, l)
    np.testing.assert_allclose(got, case.u_dot_l_analytic(sample_points), atol=1e-12)


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_normal_component_formula_off_unit_radius(a):
    """Off a = 1 the closed form keeps its (3 - a^2) factor: the gap is round-off."""
    case_a = mms.ManufacturedCase(a=a, H=1.0)
    pts = mms.sample_manifold_points(a, 1.0, 100, seed=7)
    got = np.einsum("nc,nc->n", case_a.u_printed(pts), geometry.unit_normal(pts))
    np.testing.assert_allclose(got, case_a.u_dot_l_analytic(pts), rtol=0, atol=1e-12)
    assert mms.derive_forcing(case_a, pts).max_u_normal_analytic_gap <= 1e-12


def test_projected_velocity_is_tangent(case, sample_points):
    u = case.u_exact(sample_points)
    l = geometry.unit_normal(sample_points)
    assert np.abs(np.einsum("nc,nc->n", u, l)).max() <= 1e-12


def test_exact_vertical_velocity_vanishes_at_inner_boundary(case):
    rng = np.random.default_rng(13)
    d = rng.standard_normal((20, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = np.column_stack([d, np.zeros(20)])
    np.testing.assert_allclose(case.u_printed(pts)[:, 3], 0.0, atol=1e-15)


def test_rotation_vector_is_traditional(case, sample_points):
    """The case's rotation rate omega_4, a scalar per point, is the default
    one, x3 / 2, bit for bit, at a = 1, and x3 / (2a), a rate of 1/2 at any
    radius, elsewhere."""
    om = case.omega4(sample_points)
    np.testing.assert_array_equal(om, 0.5 * sample_points[:, 2])
    np.testing.assert_array_equal(assembly.traditional_omega(sample_points), om)
    np.testing.assert_array_equal(assembly.ProblemConfig().omega4(sample_points), om)
    pts = mms.sample_manifold_points(a=2.0)
    np.testing.assert_array_equal(mms.ManufacturedCase(a=2.0).omega4(pts), pts[:, 2] / 4.0)


# ---------------------------------------------------------------------------
# forcing derivation
# ---------------------------------------------------------------------------

def test_forcing_report_fields(case, sample_points):
    report = mms.derive_forcing(case, sample_points)
    assert report.n_points == len(sample_points)
    assert report.tangency_after_projection <= 1e-12
    assert report.max_u_normal > 1.0
    assert report.max_u_normal_analytic_gap <= 1e-10
    assert np.isfinite(report.f_discrepancy) and np.isfinite(report.g_discrepancy)
    assert report.F_derived.shape == (len(sample_points), 4)
    assert report.g_derived.shape == (len(sample_points),)
    text = "\n".join(report.summary_lines())
    assert "F_derived - F_printed" in text
    assert "g_derived - g_printed" in text
    assert "u_printed . l" in text


def test_forcing_discrepancies_are_reported_not_hidden(case, sample_points):
    """Printed F and g differ from the derived ones; the gap must surface."""
    report = mms.derive_forcing(case, sample_points)
    assert report.f_discrepancy > 1e-3
    assert report.g_discrepancy > 1e-3


def test_printed_forcing_is_coriolis_term(case, ops, sample_points):
    """F as printed equals 2 Omega x u_exact; the derived F adds u + grad p."""
    pts = sample_points
    u = case.u_exact(pts)
    cor = 2.0 * ops.tangent_cross(rotation_vector(case, pts), u, pts)
    np.testing.assert_allclose(case.F_printed(pts), cor, atol=1e-12)
    report = mms.derive_forcing(case, pts, ops)
    grad_p = ops.oracle_grad(case.p_exact, pts)
    np.testing.assert_allclose(
        report.F_derived, case.F_printed(pts) + u + grad_p, atol=1e-7
    )


def solver_points(k, a, refinement, layers):
    """The quadrature points at which ``assembly.assemble`` evaluates the forcing."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(refinement, radius=a), layers, 1.0)
    x4 = geometry.manifold_coordinates(m)
    pts = fem.quadrature_prism(assembly.ProblemConfig(mode="shallow", k=k).degree).points
    return np.einsum("qv,evi->eqi", geometry.nodal_basis(pts), x4)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("k, refinement, layers", [(1, 2, 2), (2, 1, 2)])
def test_closed_form_providers_match_fd_oracles(a, k, refinement, layers):
    """derived_f4 / derived_g equal derive_forcing's FD-built (F, g) at solver points.

    The points are chordal (inside S^2(a)); the providers must reproduce the
    oracles there, not only on the manifold.
    """
    case = mms.ManufacturedCase(a=a, H=1.0)
    ops = mms.ShallowOperators(a=a, H=1.0)
    x4q = solver_points(k, a, refinement, layers)
    assert np.abs(np.linalg.norm(x4q[..., :3], axis=-1) - a).max() > 1e-3
    report = mms.derive_forcing(case, x4q.reshape(-1, 4), ops)
    for got, ref in (
        (case.derived_f4(ops)(x4q), report.F_derived.reshape(x4q.shape)),
        (case.derived_g(ops)(x4q), report.g_derived.reshape(x4q.shape[:-1])),
    ):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-8 * np.abs(ref).max())


@pytest.mark.parametrize("mode", ["shallow", "deep"])
@pytest.mark.parametrize("k", [1, 2])
def test_providers_on_broadcast_planes_match_materialised_points(case, ops, k, mode):
    """At the solver's points the providers and exact fields give the same
    values on the solver-point map's broadcast planes (x1, x2, x3 per
    triangle point, h per interval point) as on the materialised
    (cells, points, 4) arrays, to 1e-14 relative; they still take those
    arrays, which the benchmark's traced probe passes."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0)
    config = assembly.ProblemConfig(mode=mode, k=k)
    x4 = geometry.manifold_coordinates(m)
    rules = [fem.quadrature_prism(config.degree)]
    if mode == "shallow":
        rules.append(fem.quadrature_prism(fem.exact_matrix_degree(k)))
    providers = {
        "derived_f4": case.derived_f4(ops), "derived_g": case.derived_g(ops),
        "traditional_omega": assembly.traditional_omega,
        "u_exact": case.u_exact, "p_exact": case.p_exact,
    }
    cells, maps = next(geometry.quadrature_chunks(x4, mode, *rules))
    for point_map in maps:
        shape = point_map.shape
        x4q = geometry.stack_planes(point_map.x).reshape(len(cells), -1, 4)
        for name, provider in providers.items():
            on_array = provider(x4q)
            tail = on_array.shape[2:]
            assert on_array.shape[:2] == x4q.shape[:2], name
            on_planes = np.broadcast_to(provider(point_map.x), shape + tail)
            ref = on_array.reshape(shape + tail)
            assert np.abs(on_planes - ref).max() <= 1e-14 * np.abs(ref).max(), name


@pytest.mark.parametrize("k", [1, 2])
def test_field_functions_take_planes_or_arrays_bit_for_bit(case, k):
    """p_exact, u_exact and TangentFrame.at have one entry for both forms of
    points: on a PointMap's broadcast planes and on the same points as a
    (..., 4) array they give bit-identical values."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0)
    x4 = geometry.manifold_coordinates(m)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(k))
    _, (point_map,) = next(geometry.quadrature_chunks(x4, "shallow", rule))
    x4q = geometry.stack_planes(point_map.x)               # (ch, nt, nz, 4)

    def frame(x):
        f = geometry.TangentFrame.at(x, case.a)
        return geometry.stack_planes((f.cos_l, f.sin_l, *f.phi))

    for fn in (case.p_exact, case.u_exact, frame):
        on_array = fn(x4q)
        assert on_array.shape[:3] == point_map.shape
        np.testing.assert_array_equal(np.broadcast_to(fn(point_map.x), on_array.shape),
                                      on_array)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_closed_form_gradient_matches_projected_gradient(a):
    """grad p inside derived_f4 agrees with the projected Euclidean gradient."""
    case = mms.ManufacturedCase(a=a, H=1.0)
    ops = mms.ShallowOperators(a=a, H=1.0)
    pts = mms.sample_manifold_points(a, 1.0, 100, seed=7)
    u = case.u_exact(pts)
    rotation = 2.0 * ops.tangent_cross(rotation_vector(case, pts), u, pts)
    grad = case.derived_f4(ops)(pts) - u - rotation
    ref = ops.grad_projected(case.p_exact, pts)
    np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-8 * np.abs(ref).max())


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_closed_form_providers_finite_at_poles(a):
    """At (0, 0, +-a, h) the frame falls back to a fixed pair and the forcing is 0.

    u_exact, grad p and div u all vanish on the polar axis; the FD divergence
    oracle divides by cos(phi) there, the closed forms do not.
    """
    case = mms.ManufacturedCase(a=a, H=1.0)
    ops = mms.ShallowOperators(a=a, H=1.0)
    h = np.array([0.0, 0.3, 1.0])
    poles = np.concatenate([
        np.column_stack([np.zeros((3, 2)), np.full(3, sgn * a), h]) for sgn in (1.0, -1.0)
    ])
    assert geometry.TangentFrame.at(poles, a).e_lambda[:, 0].tolist() == [1.0] * 6
    f4 = case.derived_f4(ops)(poles)
    g = case.derived_g(ops)(poles)
    assert np.isfinite(f4).all() and np.isfinite(g).all()
    np.testing.assert_allclose(f4, 0.0, atol=1e-12)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)
    for pole in poles:
        f4_1 = case.derived_f4(ops)(pole)
        assert f4_1.shape == (4,) and np.isfinite(f4_1).all()
        assert np.isfinite(case.derived_g(ops)(pole))


@pytest.mark.parametrize("call", [
    lambda case, ops: mms.derive_forcing(case, mms.sample_manifold_points(2.0, 1.0, 10), ops),
    lambda case, ops: case.derived_f4(ops),
    lambda case, ops: case.derived_g(ops),
], ids=["derive_forcing", "derived_f4", "derived_g"])
def test_mismatched_radius_is_rejected(call):
    """Operators of another radius than the case's are an error, not a silent
    mix: at a = 2 against a = 1, 100 default sample points, the providers
    were off by up to 10.4 (f4) and 28.4 (g)."""
    with pytest.raises(ValueError, match="radius"):
        call(mms.ManufacturedCase(a=2.0, H=1.0), mms.ShallowOperators(a=1.0, H=1.0))


def test_convergence_study_rejects_a_negative_radius():
    """A negative radius is a ValueError, raised before any geometry is built."""
    with pytest.raises(ValueError, match="radius"):
        mms.convergence_study(1, [(0, 1)], a=-1.0)


@pytest.mark.parametrize("kwargs, match", [
    ({"thickness": float("nan")}, "thickness"),
    ({"a": float("inf")}, "radius"),
    ({"levels": []}, "levels"),
    ({"tolerance": 0.0}, "tolerance"),
    ({"tolerance": float("nan")}, "tolerance"),
    ({"tolerance": -1.0}, "tolerance"),
    ({"tolerance": float("inf")}, "tolerance"),
    ({"levels": [(1.5, 2)]}, r"level \(1\.5, 2\) is not two integers"),
    ({"levels": [(1, 2.5)]}, r"level \(1, 2\.5\) is not two integers"),
    ({"levels": [(0,)]}, r"level \(0,\) is not two integers"),
    ({"levels": [(0, 1), (1, 2, 3)]}, r"level \(1, 2, 3\) is not two integers"),
    ({"levels": [(0, 0)]}, r"level \(0, 0\): need refinement >= 0 and n_layers >= 1"),
    ({"levels": [(-1, 1)]}, r"level \(-1, 1\): need refinement >= 0 and n_layers >= 1"),
    ({"k": 3}, r"unknown element V1\(3\)"),
    ({"mode": "Deep"}, "mode must be 'shallow' or 'deep', got 'Deep'"),
], ids=["nan-thickness", "inf-radius", "empty-ladder", "zero-tolerance", "nan-tolerance",
        "negative-tolerance", "inf-tolerance", "float-refinement", "float-layers",
        "one-number", "three-numbers", "no-layers", "negative-refinement", "k3", "mode-case"])
def test_convergence_study_rejects_bad_inputs_before_sampling(kwargs, match, monkeypatch):
    """One clear ValueError, not an OverflowError from ``rng.uniform``,
    RuntimeWarnings, a reduction over an empty sample, a table without
    rows whose ``final_rates`` raises IndexError, a SolverError for a
    tolerance no residual meets, a first float32 solve accepted under an
    infinite one, or a raw TypeError or unpacking error from a malformed
    level.  A pair is named as given; mode and k are checked by
    ``ProblemConfig`` and ``fem.make_element``, before the forcing report
    samples."""
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the inputs were checked")

    monkeypatch.setattr(mms, "sample_manifold_points", no_sampling)
    with pytest.raises(ValueError, match=match):
        mms.convergence_study(**{"k": 1, "levels": [(0, 1)], **kwargs})


def test_shallow_study_reads_no_annulus_nodes(monkeypatch):
    """Shallow mode meshes the manifold directly, base triangulation times
    layer heights: a ladder runs without the annulus nodes in R^3."""
    def no_annulus(self):
        raise AssertionError("shallow mode read the annulus nodes")

    monkeypatch.setattr(mesh.ExtrudedMesh, "cell_node_coords", no_annulus)
    table = mms.convergence_study(1, [(0, 1), (1, 2)])
    assert len(table.rows) == 2 and all(r.err_u > 0 for r in table.rows)


def test_sample_points_live_on_manifold(sample_points):
    r = np.linalg.norm(sample_points[:, :3], axis=1)
    np.testing.assert_allclose(r, 1.0, atol=1e-12)
    assert (sample_points[:, 3] > 0).all() and (sample_points[:, 3] < 1).all()


def test_sample_points_deterministic():
    a = mms.sample_manifold_points(1.0, 1.0, 50, seed=123)
    b = mms.sample_manifold_points(1.0, 1.0, 50, seed=123)
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# error norms
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def coarse_solution(case):
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0)
    facets = mesh.classify_facets(m)
    V1 = fem.build_dof_map(m, facets, fem.make_element("V1", 1))
    V2 = fem.build_dof_map(m, facets, fem.make_element("V2", 1))
    ops = mms.ShallowOperators(a=1.0, H=1.0)
    config = assembly.ProblemConfig(
        mode="shallow", k=1,
        omega4=case.omega4, f4=case.derived_f4(ops), g=case.derived_g(ops),
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    coords = assembly.coordinate_field(config, m)
    return m, V1, V2, coords, result


def test_zero_field_error_is_exact_norm(case, coarse_solution):
    m, V1, V2, coords, result = coarse_solution
    zero_u = fem.Field(V1, np.zeros(V1.n_dofs))
    zero_p = fem.Field(V2, np.zeros(V2.n_dofs))
    err_u0, err_p0 = mms.l2_errors(zero_u, zero_p, case, coords)
    assert err_u0 > 0.5 and err_p0 > 0.1
    err_u, err_p = mms.l2_errors(result.u, result.p, case, coords)
    assert err_u < err_u0 and err_p < err_p0


def test_l2_errors_deterministic(case, coarse_solution):
    _, _, _, coords, result = coarse_solution
    e1 = mms.l2_errors(result.u, result.p, case, coords)
    e2 = mms.l2_errors(result.u, result.p, case, coords)
    assert e1 == e2


def per_point_l2_errors(u_h, p_h, case, coords):
    """L^2 errors with the 3x3 J of a field in R^3 factored at every
    quadrature point of every cell."""
    V1, V2 = u_h.space, p_h.space
    m = V1.mesh
    x4 = geometry.manifold_coordinates(m)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(V1.element.k))
    pts, w = rule.points, rule.weights
    cells = np.arange(m.n_cells)
    J = geometry.jacobian(coords, cells, pts)
    J4 = geometry.jacobian4(x4, cells, np.array([[1 / 3, 1 / 3, 0.5]]))
    pinv4, _ = geometry.pseudo_inverse_pseudo_det(J4)
    x4q = np.einsum("qv,evi->eqi", geometry.nodal_basis(pts), x4)
    u_ex = np.einsum("eqik,eqkj,eqj->eqi", J.J, np.broadcast_to(pinv4, J.J.shape[:2] + (3, 4)),
                     case.u_exact(x4q))
    chat = u_h.coeffs[V1.cell_dofs] * V1.cell_signs
    u_hv = np.einsum("eqcd,qid,ei->eqc", J.J, fem.tabulate(V1.element, pts).values, chat)
    u_hv /= J.det[..., None]
    p_hv = p_h.coeffs[V2.cell_dofs] @ fem.tabulate(V2.element, pts).values.T
    err_u2 = np.einsum("q,eq,eq->", w, J.det, ((u_hv - u_ex) ** 2).sum(-1))
    err_p2 = np.einsum("q,eq,eq->", w, J.det, (p_hv - case.p_exact(x4q)) ** 2)
    return np.sqrt(err_u2), np.sqrt(err_p2)


@pytest.mark.parametrize("k", [1, 2])
def test_shallow_l2_errors_match_per_point_jacobian(case, coarse_solution, k):
    """The chart's norms, with J4 factored once per cell, equal the
    hedgehog's per-point formula in R^3."""
    if k == 1:
        m, _, _, coords, result = coarse_solution
        u_h, p_h = result.u, result.p
    else:
        m = mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, 1.0)
        facets = mesh.classify_facets(m)
        V1 = fem.build_dof_map(m, facets, fem.make_element("V1", 2))
        V2 = fem.build_dof_map(m, facets, fem.make_element("V2", 2))
        rng = np.random.default_rng(5)
        u_h = fem.Field(V1, rng.standard_normal(V1.n_dofs))
        p_h = fem.Field(V2, rng.standard_normal(V2.n_dofs))
        coords = geometry.manifold_coordinates(m)
    got = mms.l2_errors(u_h, p_h, case, coords)
    ref = per_point_l2_errors(u_h, p_h, case, geometry.hedgehog_coordinates(m))
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)


def test_interpolated_exact_error_is_comparable(case, coarse_solution):
    """The H(div) interpolant of u_exact lands near the solved field's error.

    The interpolant is not the L^2-best approximation, so it may lose to the
    Galerkin solution by a small factor; it must still crush the zero field.
    It is interpolated on the hedgehog mesh and measured on the chart.
    """
    m, V1, V2, coords, result = coarse_solution
    x4_cells = geometry.manifold_coordinates(m)
    hedgehog = geometry.hedgehog_coordinates(m)

    def exact_pushed(cell, xi, x):
        x4 = geometry.nodal_basis(xi) @ x4_cells[cell]
        u4 = case.u_exact(x4)
        return pushforward_4to3(hedgehog, x4_cells, cell, xi, u4)

    u_int = interpolate_hdiv(V1, hedgehog, exact_pushed)
    err_int, _ = mms.l2_errors(u_int, result.p, case, coords)
    err_sol, _ = mms.l2_errors(result.u, result.p, case, coords)
    err_zero, _ = mms.l2_errors(
        fem.Field(V1, np.zeros(V1.n_dofs)), result.p, case, coords
    )
    assert err_int < err_zero
    assert err_int < 2.0 * err_sol


# ---------------------------------------------------------------------------
# convergence driver
# ---------------------------------------------------------------------------

def test_convergence_study_structure():
    table = mms.convergence_study(k=1, levels=[(0, 1), (1, 2)])
    assert table.k == 1 and table.mode == "shallow"
    assert len(table.rows) == 2
    first, second = table.rows
    assert first.rate_p is None and first.rate_u is None
    assert second.err_u < first.err_u
    assert second.h_mesh < first.h_mesh
    assert first.ncells == 20 and second.ncells == 160
    # rates use the halving convention: each level doubles the resolution
    np.testing.assert_allclose(
        second.rate_u, np.log2(first.err_u / second.err_u), rtol=1e-12
    )
    np.testing.assert_allclose(
        second.rate_p, np.log2(first.err_p / second.err_p), rtol=1e-12
    )
    for row in table.rows:
        assert row.residual <= 1e-10
    assert table.forcing_report.n_points == 100


def test_reference_tables_are_built_once_and_change_no_bit(monkeypatch):
    """With the tables cleared, a k=2 ladder tabulates V1 and V2 at its two
    rules once, 4 calls of ``fem.tabulate`` over both levels' assembly and
    norms; a second ladder makes none, and its rows equal the first's bit
    for bit."""
    calls = []
    tabulate = fem.tabulate

    def counting(element, points):
        calls.append((element.family, len(points)))
        return tabulate(element, points)

    monkeypatch.setattr(fem, "tabulate", counting)
    fem.reference_tables.cache_clear()
    cold = mms.convergence_study(2, [(0, 1), (1, 2)])
    assert sorted(calls) == [("V1", 27), ("V1", 343), ("V2", 27), ("V2", 343)]
    calls.clear()
    warm = mms.convergence_study(2, [(0, 1), (1, 2)])
    assert calls == []
    assert warm.rows == cold.rows
    assert [r.solve_stats for r in warm.rows] == [r.solve_stats for r in cold.rows]
