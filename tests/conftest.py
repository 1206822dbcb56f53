"""Shared fixtures: small meshes reused across test modules."""

import numpy as np
import pytest

from shallowfem import geometry, mesh


@pytest.fixture(scope="session")
def icosa_r0():
    return mesh.build_icosahedral_sphere(0, 1.0)


@pytest.fixture(scope="session")
def icosa_r1():
    return mesh.build_icosahedral_sphere(1, 1.0)


@pytest.fixture(scope="session")
def annulus_r0_l1(icosa_r0):
    return mesh.extrude_radial(icosa_r0, 1, 1.0)


@pytest.fixture(scope="session")
def annulus_r1_l2(icosa_r1):
    return mesh.extrude_radial(icosa_r1, 2, 1.0)


@pytest.fixture(scope="session")
def facets_r0_l1(annulus_r0_l1):
    return mesh.classify_facets(annulus_r0_l1)


@pytest.fixture(scope="session")
def facets_r1_l2(annulus_r1_l2):
    return mesh.classify_facets(annulus_r1_l2)


@pytest.fixture(scope="session")
def single_prism():
    """One prism over an equilateral-ish base triangle, open boundary."""
    verts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    return mesh.extrude_radial(base, 1, 0.5)


def frame_basis(frame):
    """A tangent frame's (e_lambda, e_phi, i4), each built by ``frame.vector``
    from unit components, stacked on a new leading axis, (3, ..., 4)."""
    shape = frame.e_lambda.shape[:-1] + (3,)
    return np.stack([frame.vector(np.broadcast_to(e, shape)) for e in np.eye(3)])


def physical_points(coords, cells, ref_points):
    """Map reference points through a coordinate field, (ncell, npts, dim)."""
    N = geometry.nodal_basis(ref_points)
    return np.einsum("pn,cnd->cpd", N, coords.cell_coords[np.asarray(cells)])


def pushforward_4to3(coords, cell_coords4, cells, points, v4):
    """Push tangent 4-vectors through chi_e = g_e o (g~_e)^{-1} (an oracle).

    Computes ``J_{g_e} pinv(J_{g~_e}) v4`` with both Jacobians taken at every
    given reference point.  Components of ``v4`` along the discrete element
    normal are annihilated by the pseudoinverse.  Shapes: ``v4`` is
    (..., npts, 4) matching the cell selection; result is (..., npts, 3).
    """
    J3 = geometry.jacobian(coords, cells, points).J
    pinv, _ = geometry.pseudo_inverse_pseudo_det(geometry.jacobian4(cell_coords4, cells, points))
    return np.einsum("...ik,...kj,...j->...i", J3, pinv, np.asarray(v4, dtype=float))


def vertical_facet_normal_values(m, coords, u, vf, facets, s, z):
    """u . n from both sides of an interior vertical facet at matched points.

    Builds the bilinear facet patch from the sorted global edge vertices so
    both adjacent cells are sampled at identical physical points, then
    evaluates the Piola-mapped velocity against the patch normal.
    """
    from shallowfem import fem
    from shallowfem.mesh import TRIANGLE_EDGE_VERTICES

    L = m.n_layers
    base = m.base
    e, lay = vf // L, vf % L
    g_lo, g_hi = sorted(base.edges[e])

    def vx(v, layer):
        return m.vertex_coords[v * (L + 1) + layer]

    Xlb, Xhb = vx(g_lo, lay), vx(g_hi, lay)
    Xlt, Xht = vx(g_lo, lay + 1), vx(g_hi, lay + 1)
    z1, s1 = z[:, None], s[:, None]
    X = (1 - z1) * ((1 - s1) * Xlb + s1 * Xhb) + z1 * ((1 - s1) * Xlt + s1 * Xht)
    T_s = (1 - z1) * (Xhb - Xlb) + z1 * (Xht - Xlt)
    T_z = (1 - s1) * (Xlt - Xlb) + s1 * (Xht - Xhb)
    n = np.cross(T_s, T_z)
    n /= np.linalg.norm(n, axis=1, keepdims=True)

    out = []
    for c in facets.vertical_cells[vf]:
        tri = c // L
        le = int(np.where(base.triangle_edges[tri] == e)[0][0])
        p, q = TRIANGLE_EDGE_VERTICES[le]
        ascending = base.triangles[tri, p] < base.triangles[tri, q]
        t = s if ascending else 1.0 - s
        ref = fem.embed_quad(le, t, z)
        got = geometry.nodal_basis(ref) @ coords.cell_coords[c]
        np.testing.assert_allclose(got, X, atol=1e-12)
        v = fem.evaluate_velocity(u, coords, [c], ref)[0]
        out.append((v * n).sum(axis=1))
    return out
