"""Shared fixtures: small meshes reused across test modules."""

import numpy as np
import pytest

from shallowfem import fem, geometry, mesh


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


def phi(x4, a: float = 1.0):
    """Map points of S^2(a) x [0, H] in R^4 to the annulus in R^3 (an oracle):
    phi(x1, x2, x3, x4) = (1 + x4 / a) * (x1, x2, x3)."""
    x4 = np.asarray(x4, dtype=float)
    return (1.0 + x4[..., 3:4] / a) * x4[..., :3]


def hedgehog_axes(coords) -> np.ndarray:
    """The column axis of each hedgehog cell, recovered from its nodes: the
    top node over base vertex 0 minus the bottom one, normalised, (n_cells, 3)."""
    d = coords[:, 3] - coords[:, 0]
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def matvec3(A, v) -> np.ndarray:
    """Products A v of n x 3 matrices and 3-vectors, entry by entry.

    ``A`` is (..., n, 3) and ``v`` is (..., 3); their leading axes
    broadcast, so one matrix per cell (..., 1, n, 3) serves every point.
    """
    out = np.empty(np.broadcast_shapes(A.shape[:-2], v.shape[:-1]) + A.shape[-2:-1])
    for i in range(A.shape[-2]):
        out[..., i] = A[..., i, 0] * v[..., 0] + A[..., i, 1] * v[..., 1] + A[..., i, 2] * v[..., 2]
    return out


def evaluate_velocity(u, coords, cells, points) -> np.ndarray:
    """Physical velocity values of a V1 field at reference points per cell,
    by the contravariant Piola map v = J vhat / det J (an oracle)."""
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    tab = fem.tabulate(u.space.element, points)
    J = geometry.jacobian(coords, cells, points)
    chat = u.coeffs[u.space.cell_dofs[cells]] * u.space.cell_signs[cells]
    vhat = np.einsum("ed,pdc->epc", chat, tab.values)
    return matvec3(J.J, vhat) / J.det[..., None]


def interpolate_hdiv(space, coords, func):
    """Interpolate a physical vector field by applying the DOF functionals (an oracle).

    ``coords`` is a field in R^3 (the annulus or the hedgehog mesh).
    ``func(cell, xi, x)`` returns physical vector values at reference points
    ``xi`` with physical locations ``x``.  Each global DOF is written by its
    lowest-indexed adjacent cell; values are pulled back with the inverse
    Piola transform before the reference functionals are applied.  Per cell,
    the distinct points of every DOF it still has to write go through one
    Jacobian and one ``func`` call.
    """
    dofs = space.element.dofs
    coeffs = np.zeros(space.n_dofs)
    written = np.zeros(space.n_dofs, dtype=bool)
    for cell in range(space.mesh.n_cells):
        todo = np.flatnonzero(~written[space.cell_dofs[cell]])
        if len(todo) == 0:
            continue
        # DOFs on one facet share their points; evaluate each point once
        xi, at = np.unique(
            np.concatenate([dofs[i].points for i in todo]), axis=0, return_inverse=True
        )
        J = geometry.jacobian(coords, cell, xi)
        x = geometry.nodal_basis(xi) @ coords[cell]
        v = np.asarray(func(cell, xi, x), dtype=float)
        vhat = np.einsum("pik,pk->pi", np.linalg.inv(J.J), v) * J.det[:, None]
        vhat = vhat[at.reshape(-1)]
        start = 0
        for i in todo:
            stop = start + len(dofs[i].points)
            g = space.cell_dofs[cell, i]
            coeffs[g] = space.cell_signs[cell, i] * np.sum(dofs[i].weights * vhat[start:stop])
            written[g] = True
            start = stop
    return fem.Field(space=space, coeffs=coeffs)


def physical_points(coords, cells, ref_points):
    """Map reference points through a coordinate field, (ncell, npts, dim)."""
    N = geometry.nodal_basis(ref_points)
    return np.einsum("pn,cnd->cpd", N, coords[np.asarray(cells)])


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
        got = geometry.nodal_basis(ref) @ coords[c]
        np.testing.assert_allclose(got, X, atol=1e-12)
        v = evaluate_velocity(u, coords, [c], ref)[0]
        out.append((v * n).sum(axis=1))
    return out


def nested_dissection(column_facets, centroids, leaf):
    """The vertical-facet DOFs 0 ... nv-1 in nested-dissection order over
    the columns, by recursion (an oracle for ``assembly._nested_dissection``).

    A set of columns is split into two halves by rank along the widest axis
    of its centroids, and the separator is the unordered DOFs that columns
    of both halves own; it is ordered after the two halves.  A set with at
    most ``leaf`` unordered DOFs is not split.
    """
    nv = column_facets.max() + 1
    side = np.zeros(nv, dtype=np.int8)   # 1: a low column owns it, 2: separator
    order = []

    def dissect(columns, ids):
        # ids: the unordered DOFs of columns, which no other column owns
        if len(ids) > leaf and len(columns) > 1:
            x = centroids[columns]
            rank = np.argsort(x[:, np.ptp(x, axis=0).argmax()], kind="stable")
            low, high = np.split(columns[rank], [len(columns) // 2])
            side[column_facets[low]] = 1
            sep = column_facets[high]
            sep = np.unique(sep[side[sep] == 1])
            side[sep] = 2
            half = side[ids]
            side[column_facets[low]] = 0
            dissect(low, ids[half == 1])
            dissect(high, ids[half == 0])
            ids = sep
        order.append(ids)

    dissect(np.arange(len(column_facets)), np.arange(nv))
    return np.concatenate(order)
