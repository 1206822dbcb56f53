"""The plane kernels of the tangent space and the solver's providers against
their earlier stacked formulations.

The oracles below compute on (..., 4) arrays with np.stack, np.linalg.norm
and einsum, as the kernels did before they moved to coordinate planes.  The
plane kernels must match them to 1e-14 relative at the solver's own
quadrature points, at the poles, at chordal points inside S^2(a) and off the
unit sphere, for every input shape, and without writing into their inputs.
"""

import numpy as np
import pytest

from shallowfem import fem, geometry, mesh, mms


# ---------------------------------------------------------------------------
# Stacked oracles
# ---------------------------------------------------------------------------

def unit_normal_stacked(x4):
    l = np.zeros(x4.shape)
    l[..., :3] = x4[..., :3] / np.linalg.norm(x4[..., :3], axis=-1, keepdims=True)
    return l


def project_tangent_stacked(v, x4):
    l = unit_normal_stacked(x4)
    return v - np.sum(v * l, axis=-1, keepdims=True) * l


def longitude_stacked(x4, a):
    rho = np.hypot(x4[..., 0], x4[..., 1])
    polar = rho < 1e-8 * a
    safe = np.where(polar, 1.0, rho)
    return np.where(polar, 0.0, x4[..., 0] / safe), np.where(polar, -1.0, x4[..., 1] / safe)


def tangent_frame_stacked(x4, a):
    """(e_lambda, e_phi), each (..., 4)."""
    cos_l, sin_l = longitude_stacked(x4, a)
    rho = np.hypot(x4[..., 0], x4[..., 1])
    sin_p = x4[..., 2] / a
    polar = rho < 1e-8 * a
    zero = np.zeros(x4.shape[:-1])
    e_lam = np.stack([-sin_l, cos_l, zero, zero], axis=-1)
    e_phi = np.stack([np.where(polar, 0.0, -sin_p * cos_l),
                      np.where(polar, np.sign(x4[..., 2]), -sin_p * sin_l),
                      np.where(polar, 0.0, rho / a), zero], axis=-1)
    return e_lam, e_phi


def components_stacked(frame, v):
    e_lam, e_phi = frame
    return np.stack([np.einsum("...i,...i->...", v, e_lam),
                     np.einsum("...i,...i->...", v, e_phi), v[..., 3]], axis=-1)


def vector_stacked(frame, c, out=None):
    e_lam, e_phi = frame
    out = np.zeros_like(e_lam) if out is None else out
    out += c[..., 0, None] * e_lam
    out += c[..., 1, None] * e_phi
    out[..., 3] += c[..., 2]
    return out


def q_stacked(x4):
    h = x4[..., 3]
    return (h ** 2 - 1.0) * (h ** 2 - 4.0)


def p_exact_stacked(x4):
    return x4[..., 0] * x4[..., 1] * x4[..., 2] * q_stacked(x4)


def u_printed_stacked(x4):
    x1, x2, x3, h = (x4[..., i] for i in range(4))
    q = q_stacked(x4)
    return np.stack([x2 * x3 * (1.0 - x1 ** 2) * q,
                     x1 * x3 * (1.0 - x2 ** 2) * q,
                     x1 * x2 * (1.0 - x3 ** 2) * q,
                     2.0 * x1 * x2 * x3 * h * (2.0 * h ** 2 - 5.0)], axis=-1)


def u_exact_stacked(x4):
    return project_tangent_stacked(u_printed_stacked(x4), x4)


def oracle_angles_stacked(x4, a):
    s_phi = np.clip(x4[..., 2] / a, -1.0, 1.0)
    return (*longitude_stacked(x4, a), s_phi, np.sqrt(1.0 - s_phi * s_phi))


def derived_f4_stacked(x4, a):
    fr = tangent_frame_stacked(x4, a)
    u = u_exact_stacked(x4)
    c_l, s_l, s_p, c_p = oracle_angles_stacked(x4, a)
    h, q = x4[..., 3], q_stacked(x4)
    u_c = components_stacked(fr, u)
    o_4 = 0.5 * x4[..., 2] / a
    f_l = a * a * q * c_p * s_p * (c_l * c_l - s_l * s_l)
    f_l -= 2.0 * (o_4 * u_c[..., 1])
    f_p = a * a * q * (1.0 - 3.0 * s_p * s_p) * s_l * c_l * c_p
    f_p += 2.0 * (o_4 * u_c[..., 0])
    f_4 = 2.0 * a ** 3 * h * (2.0 * h * h - 5.0) * s_l * c_l * s_p * c_p * c_p
    return vector_stacked(fr, np.stack([f_l, f_p, f_4], axis=-1), out=u)


def derived_g_stacked(x4, a):
    c_l, s_l, s_p, c_p = oracle_angles_stacked(x4, a)
    h = x4[..., 3]
    h2 = h * h
    div = (2.0 * a * c_p * c_p * s_p * c_l * s_l
           * (6.0 * a * a * h2 - 5.0 * a * a - 6.0 * h2 * h2 + 30.0 * h2 - 24.0))
    return div - p_exact_stacked(x4)


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------

def solver_points(k, mode):
    """The first chunk's manifold points of the solver-point map at k,
    materialised from its broadcast planes, (ch, nq, 4)."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0)
    rule = fem.quadrature_prism(fem.default_quadrature_degree(k))
    cells, (point_map,) = next(geometry.quadrature_chunks(geometry.manifold_coordinates(m), mode, rule))
    return geometry.stack_planes(point_map.x).reshape(len(cells), -1, 4)


def pole_points(a):
    """The poles on S^2(a), a chordal pole, and points within 1e-8 a of the axis, (n, 4)."""
    return np.array([[0.0, 0.0, a, 0.3], [0.0, 0.0, -a, 0.7], [0.0, 0.0, 0.999 * a, 0.5],
                     [3e-9 * a, -2e-9 * a, a, 0.1], [-4e-9 * a, 0.0, -0.9995 * a, 0.9]])


def chordal_points(a, n=200, seed=31):
    """Points strictly inside S^2(a), 0.9 a <= |x| < a - 1e-3, (n, 4)."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = rng.uniform(0.9 * a, a - 1e-3, n)
    return np.column_stack([r[:, None] * d, rng.uniform(0.0, 1.0, n)])


POINT_SETS = {
    **{f"x4q-k{k}-{mode}": (lambda k=k, mode=mode: solver_points(k, mode), 1.0)
       for k in (1, 2) for mode in ("shallow", "deep")},
    "poles": (lambda: pole_points(1.0), 1.0),
    "chordal": (lambda: chordal_points(1.0), 1.0),
    "a2-chordal": (lambda: chordal_points(2.0, seed=32), 2.0),
    "a2-poles": (lambda: pole_points(2.0), 2.0),
    "a2-single": (lambda: np.array([1.2, -0.9, 1.1, 0.4]), 2.0),
    "single": (lambda: np.array([0.3, 0.5, -0.8, 0.6]), 1.0),
    "single-pole": (lambda: np.array([0.0, 0.0, -1.0, 0.2]), 1.0),
}


@pytest.fixture(params=list(POINT_SETS), ids=list(POINT_SETS))
def points(request):
    """(x4, a), with x4 read-only so that a kernel that writes into its input raises."""
    make, a = POINT_SETS[request.param]
    x4 = np.array(make(), dtype=float)
    x4.flags.writeable = False
    return x4, a


def assert_matches(got, want):
    """Same shape, and equal to 1e-14 relative to the oracle's largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale if scale > 0 else 0.0)


def read_only(x):
    x = np.array(x, dtype=float)
    x.flags.writeable = False
    return x


# ---------------------------------------------------------------------------
# The kernels against the oracles
# ---------------------------------------------------------------------------

def test_normal_and_projection_match_stacked(points):
    x4, _ = points
    v = read_only(np.random.default_rng(41).standard_normal(x4.shape))
    assert_matches(geometry.unit_normal(x4), unit_normal_stacked(x4))
    assert_matches(geometry.project_tangent(v, x4), project_tangent_stacked(v, x4))


def test_frame_matches_stacked(points):
    x4, a = points
    frame = geometry.TangentFrame.at(x4, a)
    e_lam, e_phi = tangent_frame_stacked(x4, a)
    assert_matches(frame.e_lambda, e_lam)
    assert_matches(frame.e_phi, e_phi)
    for got, want in zip((frame.cos_l, frame.sin_l), longitude_stacked(x4, a)):
        assert_matches(got, want)

    rng = np.random.default_rng(42)
    v = read_only(rng.standard_normal(x4.shape))
    c = read_only(rng.standard_normal(x4.shape[:-1] + (3,)))
    assert_matches(frame.components(v), components_stacked((e_lam, e_phi), v))
    assert_matches(frame.vector(c), vector_stacked((e_lam, e_phi), c))


def test_case_fields_match_stacked(points):
    x4, a = points
    case = mms.ManufacturedCase(a=a)
    assert_matches(case.p_exact(x4), p_exact_stacked(x4))
    assert_matches(case.u_printed(x4), u_printed_stacked(x4))
    assert_matches(case.u_exact(x4), u_exact_stacked(x4))


def test_providers_match_stacked(points):
    x4, a = points
    case, ops = mms.ManufacturedCase(a=a), mms.ShallowOperators(a=a)
    assert_matches(case.derived_f4(ops)(x4), derived_f4_stacked(x4, a))
    assert_matches(case.derived_g(ops)(x4), derived_g_stacked(x4, a))
