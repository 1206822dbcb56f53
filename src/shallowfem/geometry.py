"""Geometry of the spherical annulus seen as a 3-manifold embedded in R^4.

The annulus ``a <= |x| <= a + H`` in R^3 is the image of the cylinder-like
manifold ``S^2(a) x [0, H]`` in R^4 under

    phi(x1, x2, x3, x4) = (1 + x4 / a) * (x1, x2, x3).

The shallow solver assembles on the chart: the nodes pulled back to R^4
(``manifold_coordinates``) make every cell map affine, with metric J4^T J4
and volume factor pdet J4 (the product of J4's singular values).  As the
paper shows, this equals assembling on a discontinuous 3D mesh whose columns
are rigidly extruded along the outward normals of their chordal base
triangles (the "hedgehog" mesh, ``hedgehog_coordinates``): the base edges
are orthogonal to the axis, so J^T J = J4^T J4 and det J = pdet J4 exactly.
The hedgehog mesh is the tests' oracle and what ``export-mesh`` writes.

Assembly and the error norms read a cell's map only through the metric
G = J^T J and det J, which is all that shallow and deep differ in.  The
solver-point map ``quadrature_chunks`` hands them G, det and the points on
the manifold as planes over (cells, triangle points, interval points): on
the chart G and det are one value per cell; on a field in R^3 they come
from J's columns, since on the linear-triangle x linear-interval prism
dx/dxi1 and dx/dxi2 depend on zeta alone and dx/dzeta on (xi1, xi2) alone,
so no per-point Jacobian is formed.  The horizontal coordinates x1, x2, x3
vary only with the triangle point and h only with the interval point, so
the providers' horizontal work runs once per triangle point.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import ExtrudedMesh

__all__ = [
    "DegenerateMapError",
    "CoordinateField",
    "JacobianSample",
    "TangentFrame",
    "phi_inverse",
    "annulus_coordinates",
    "hedgehog_coordinates",
    "manifold_coordinates",
    "barycentric",
    "nodal_basis",
    "nodal_basis_gradients",
    "jacobian",
    "jacobian4",
    "pseudo_inverse_pseudo_det",
    "METRIC_PAIRS",
    "PointMap",
    "quadrature_chunks",
    "coordinate_planes",
    "stack_planes",
    "point_shape",
    "unit_normal",
    "project_tangent",
    "longitude",
    "tangent_frame",
    "cell_diameters",
]


class DegenerateMapError(ValueError):
    """A coordinate map lost rank (degenerate element or projection), or a
    point left its domain or the float64 range."""


def phi_inverse(x3, a: float = 1.0):
    """Inverse map: annulus point -> (a * x/|x|, |x| - a).

    Raises DegenerateMapError (a ValueError) for points more than 1e-9 a
    inside the inner sphere; the tolerance is relative because vertex radii
    carry rounding of about 1e-16 a.
    """
    x3 = np.asarray(x3, dtype=float)
    r = np.linalg.norm(x3, axis=-1)
    if np.any(r < a * (1.0 - 1e-9)):
        raise DegenerateMapError(
            f"point with radius {r.min():.3e} lies inside the sphere of radius {a}"
        )
    out = np.empty(x3.shape[:-1] + (4,))
    out[..., :3] = a * x3 / r[..., None]
    out[..., 3] = r - a
    return out


# ---------------------------------------------------------------------------
# Coordinate fields on the extruded mesh
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateField:
    """Per-cell nodal coordinates with a linear-triangle x linear-interval basis:
    three columns for a field in R^3, four for the chart in R^4."""

    cell_coords: np.ndarray           # (n_cells, 6, 3 or 4)

    @property
    def n_cells(self) -> int:
        return len(self.cell_coords)


def annulus_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Continuous coordinate field of the annulus mesh itself."""
    return CoordinateField(cell_coords=mesh.cell_node_coords())


def hedgehog_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Discontinuous 3D field whose metric equals the chart's exactly.

    Per cell: pull the six nodes back to R^4, take the outward unit normal
    ``k_e`` of the chordal base triangle (the horizontal parts of the bottom
    nodes), then place node ``v`` at ``a * unit(x_v) + (|x_v| - a) * k_e``.
    Raises DegenerateMapError for a base plane within 1e-9 a of the centre.
    """
    x4 = manifold_coordinates(mesh)                      # (nc, 6, 4)
    X = x4[:, :3, :3]                                    # chordal base triangles
    n = np.cross(X[:, 1] - X[:, 0], X[:, 2] - X[:, 0])
    norm = np.linalg.norm(n, axis=1)
    outward = (n * X[:, 0]).sum(axis=1) > 1e-9 * mesh.base.radius * norm
    if not outward.all():
        raise DegenerateMapError(f"cell {np.argmin(outward)}: chordal base triangle "
                                 f"has no outward normal")
    k = n / norm[:, None]
    return CoordinateField(cell_coords=x4[:, :, :3] + x4[:, :, 3:] * k[:, None, :])


def manifold_coordinates(mesh: ExtrudedMesh) -> np.ndarray:
    """Per-cell nodal coordinates on the 4D manifold, shape (n_cells, 6, 4)."""
    coords = mesh.cell_node_coords()
    return phi_inverse(coords, a=mesh.base.radius)


# ---------------------------------------------------------------------------
# Reference prism nodal basis (triangle (0,0),(1,0),(0,1) x interval [0,1])
# ---------------------------------------------------------------------------

def barycentric(points):
    """Reference-triangle barycentrics at the (xi1, xi2) of ``points``, (npts, 3),
    and their constant gradients, (3, 2)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]], axis=1)
    return lam, np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def _interval(points):
    """Interval basis (1 - xi3, xi3) at ``points``, (npts, 2), and its derivatives, (2,)."""
    return np.stack([1.0 - points[:, 2], points[:, 2]], axis=1), np.array([-1.0, 1.0])


def nodal_basis(points) -> np.ndarray:
    """Values of the six prism nodal functions at reference points, (npts, 6)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    lam, _ = barycentric(p)
    c, _ = _interval(p)
    return np.concatenate([lam * c[:, :1], lam * c[:, 1:]], axis=1)


def nodal_basis_gradients(points) -> np.ndarray:
    """Reference gradients of the nodal functions, (npts, 6, 3)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    lam, dlam = barycentric(p)
    c, dc = _interval(p)

    grads = np.empty((len(p), 2, 3, 3))     # node m * 3 + i: interval end m, vertex i
    grads[..., :2] = dlam * c[:, :, None, None]
    grads[..., 2] = lam[:, None, :] * dc[:, None]
    return grads.reshape(len(p), 6, 3)


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobianSample:
    """Jacobians dx/dxi at reference points, batched over (cells, points); on
    the chart J is 4x3 and det its signed pseudodeterminant (``jacobian``)."""

    J: np.ndarray          # (..., 3 or 4, 3)
    det: np.ndarray        # (...)

    @property
    def n_factorizations(self) -> int:
        """Number of (point, cell) factorizations this sample holds."""
        return int(self.det.size)


def _nodal_gemm(nodal, points) -> np.ndarray:
    """Jacobian of a nodal map at reference points as one GEMM.

    ``nodal`` is (..., 6, dim).  The (cells * dim, 6) nodal block times the
    (6, 3 * npts) reference gradients gives J[..., i, k, p]; the result is a
    (..., npts, dim, 3) view of it, so each entry J[..., i, k] is a plane
    that is contiguous over the points.
    """
    grads = nodal_basis_gradients(points)                # (npts, 6, 3)
    npts = len(grads)
    lead, dim = nodal.shape[:-2], nodal.shape[-1]
    G = grads.transpose(1, 2, 0).reshape(6, 3 * npts)
    R = np.swapaxes(nodal, -1, -2).reshape(-1, 6) @ G
    return np.moveaxis(R.reshape(lead + (dim, 3, npts)), -1, -3)


def _det3(J) -> np.ndarray:
    """Determinants of 3x3 matrices over leading axes, by cofactors."""
    return (J[..., 0, 0] * (J[..., 1, 1] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 1])
            - J[..., 0, 1] * (J[..., 1, 0] * J[..., 2, 2] - J[..., 1, 2] * J[..., 2, 0])
            + J[..., 0, 2] * (J[..., 1, 0] * J[..., 2, 1] - J[..., 1, 1] * J[..., 2, 0]))


def jacobian(coords: CoordinateField, cells, points) -> JacobianSample:
    """Jacobian samples for the given cells at the given reference points.

    ``cells`` may be an int or index array; ``points`` has shape (npts, 3).
    Result arrays are shaped (ncells, npts, dim, 3) (leading axis dropped for
    a scalar ``cells``).  On the chart (dim 4) det is pdet J signed by
    det [l | J], l = (x1, x2, x3, 0), which a base wound inward or descending
    layers make negative.  Raises DegenerateMapError if any det is <= 0.
    """
    nodal = coords.cell_coords[cells]
    if nodal.shape[-1] == 4:
        return _chart_sample(nodal, points)[0]
    J = _nodal_gemm(nodal, points)
    return JacobianSample(J=J, det=_positive(_det3(J)))


def _positive(det):
    """``det``; raises DegenerateMapError if any entry is <= 0."""
    if np.any(det <= 0):
        raise DegenerateMapError(f"non-positive Jacobian determinant ({det.min():.3e}); "
                                 "cell is inverted")
    return det


def _chart_sample(x4, points):
    """The chart's JacobianSample (see ``jacobian``) of cells ``x4``
    (..., 6, 4) and its pseudoinverse, from one SVD."""
    J = _nodal_gemm(x4, points)
    pinv, pdet = pseudo_inverse_pseudo_det(J)
    l = (nodal_basis(points) @ x4) * [1.0, 1.0, 1.0, 0.0]
    orientation = np.linalg.det(np.concatenate([l[..., None], J], axis=-1))
    return JacobianSample(J=J, det=_positive(pdet * np.sign(orientation))), pinv


CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0, 0.5]])


def jacobian4(cell_coords4, cells, points) -> np.ndarray:
    """4x3 Jacobian of the reference-to-manifold map, shape (..., npts, 4, 3)."""
    return _nodal_gemm(np.asarray(cell_coords4)[cells], points)


def pseudo_inverse_pseudo_det(J4):
    """Moore-Penrose pseudoinverse and pseudodeterminant of 4x3 Jacobians.

    The pseudodeterminant is the product of the three nonzero singular values.
    Raises DegenerateMapError when the SVD fails (a non-finite Jacobian) or
    s_min <= 1e-12 s_max, naming s_min / s_max, a chart cell's aspect ratio,
    and for a (cells, points, 4, 3) batch the first such cell's position.
    Batched over leading axes.
    """
    J4 = np.asarray(J4, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(J4, full_matrices=False)  # (..., 4, 3), (..., 3), (..., 3, 3)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMapError(f"4x3 Jacobian: {exc}") from exc
    low = ~(s[..., -1] > 1e-12 * s[..., 0])
    if low.any():
        bad = np.unravel_index(np.argmax(low), low.shape)
        where = f" at cell {bad[0]}" if J4.ndim == 4 else ""
        raise DegenerateMapError(f"4x3 Jacobian is rank deficient{where}: s_min/s_max = "
                                 f"{s[bad][-1] / max(s[bad][0], 1e-300):.3e} <= 1e-12")
    pinv = np.einsum("...ji,...j,...kj->...ik", Vt, 1.0 / s, U)
    pdet = np.prod(s, axis=-1)
    return pinv, pdet


POINTS_PER_CHUNK = 2 ** 15

# The entries of a symmetric 3x3 matrix, in the order PointMap.G keeps them.
METRIC_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


@dataclass(frozen=True)
class PointMap:
    """The solver-point map of a chunk of cells at one prism rule's points.

    Every array broadcasts over (cells, triangle points, interval points),
    (ch, nt, nz), and has size 1 along the axes it does not depend on.
    """

    x: tuple               # x1, x2, x3 (ch, nt, 1) and h (ch, 1, nz): manifold points
    G: tuple               # G = J^T J at METRIC_PAIRS
    det: np.ndarray        # det J; on the chart the signed pdet J4
    pinv4: np.ndarray      # (ch, 3, 4): J4's pseudoinverse at the centroid

    @property
    def shape(self) -> tuple:
        """(ch, nt, nz)."""
        return point_shape(self.x)

    @property
    def n_factorizations(self) -> int:
        """Number of (point, cell) metrics this map holds."""
        return int(self.det.size)

    def pull(self, v) -> tuple:
        """The planes pinv4 v: reference components of tangent 4-vectors v,
        given as planes or as a (..., 4) array whose leading axes broadcast
        against (ch, nt, nz).  One batched GEMM per chunk, (ch, 3, 4) x
        (ch, 4, points); each plane keeps v's broadcast shape."""
        v = stack_planes(v) if isinstance(v, tuple) else np.asarray(v, dtype=float)
        lead = (1,) * (4 - v.ndim) + v.shape[:-1]
        w = self.pinv4 @ np.swapaxes(v.reshape(lead[0], -1, 4), 1, 2)
        return tuple(w[:, c].reshape((len(w),) + lead[1:]) for c in range(3))

    def lower(self, v) -> tuple:
        """The planes G v of reference vectors with planes v."""
        g00, g01, g02, g11, g12, g22 = self.G
        return (g00 * v[0] + g01 * v[1] + g02 * v[2],
                g01 * v[0] + g11 * v[1] + g12 * v[2],
                g02 * v[0] + g12 * v[1] + g22 * v[2])


def _manifold_planes(x4, lam, z):
    """The coordinate planes of the manifold points of cells ``x4`` (ch, 6, 4)
    at the triangle barycentrics ``lam`` (nt, 3) times the interval points
    ``z`` (nz,): x1, x2, x3 from the bottom nodes, (ch, nt, 1), and h from
    node 0 and node 3, (ch, 1, nz)."""
    horizontal = np.swapaxes(x4[:, :3, :3], 1, 2) @ lam.T           # (ch, 3, nt)
    h = x4[:, :1, 3] * (1.0 - z) + x4[:, 3:4, 3] * z                 # (ch, nz)
    return (*(horizontal[:, d, :, None] for d in range(3)), h[:, None, :])


def _prism_metric(nodal, lam, z):
    """G at METRIC_PAIRS and det J of the prism cells ``nodal`` (n, 6, 3) in
    R^3 at the points ``lam`` x ``z`` (see ``_manifold_planes``), as a
    function of a run of cells.

    dx/dxi_a = E_a Z(zeta), with E_a the bottom and top edges a + 1 and
    Z = (1 - zeta, zeta), and dx/dzeta = j2(xi1, xi2).  So G_00, G_01 and
    G_11 are (ch, 1, nz), computed for every cell here, and G_22 is
    (ch, nt, 1); G_a2 = (j2 . E_a) Z and det = (j0 x j1) . j2 = (j2 . N) Z2,
    with N Z2 the quadratic j0 x j1, are each one (ch nt, 2 or 3) x (2 or 3,
    nz) GEMM.  The function raises DegenerateMapError if any det is <= 0.
    """
    bottom, top = nodal[:, :3], nodal[:, 3:]
    Z = np.stack([1.0 - z, z])                                       # (2, nz)
    Z2 = np.stack([Z[0] * Z[0], Z[0] * Z[1], Z[1] * Z[1]])
    E0, E1 = (np.stack([bottom[:, a] - bottom[:, 0], top[:, a] - top[:, 0]], axis=-1)
              for a in (1, 2))                                       # (n, 3, 2)
    cross = np.cross(E0[..., [0, 0, 1, 1]], E1[..., [0, 1, 0, 1]], axis=1)
    N = np.stack([cross[..., 0], cross[..., 1] + cross[..., 2], cross[..., 3]], axis=-1)
    C = np.concatenate([E0, E1, N], axis=-1)                         # (n, 3, 7)
    j0, j1 = E0 @ Z, E1 @ Z                                          # (n, 3, nz)
    flat = ((j0 * j0).sum(axis=1), (j0 * j1).sum(axis=1), (j1 * j1).sum(axis=1))
    vertical = top - bottom
    nt, nz = len(lam), len(z)

    def metric(run):
        j2 = lam @ vertical[run]                                     # (ch, nt, 3)
        ch = len(j2)
        P = (j2 @ C[run]).reshape(ch * nt, 7)
        G02, G12, det = ((P[:, cols] @ B).reshape(ch, nt, nz)
                         for cols, B in ((slice(0, 2), Z), (slice(2, 4), Z), (slice(4, 7), Z2)))
        g00, g01, g11 = (g[run, None] for g in flat)
        return (g00, g01, G02, g11, G12, (j2 * j2).sum(axis=2)[..., None]), _positive(det)

    return metric


def quadrature_chunks(coords: CoordinateField, x4, *rules):
    """The solver-point map of every cell, chunk by chunk.

    Assembly and the error norms both loop over this.  ``rules`` are prism
    rules (``fem.quadrature_prism``); a chunk holds max(1, POINTS_PER_CHUNK
    // their points) cells, in order (2**14 slowed k=2 ladders by 3-4%).
    Yields ``(cells, maps)``, one PointMap per rule:

      * ``x``: the manifold points from ``x4``, the nodes of radially
        extruded cells pulled back to R^4, whose top nodes share the bottom
        nodes' horizontal part and whose layers have one h; so x1, x2, x3
        vary only with the triangle point and h only with the interval point.
      * ``G``, ``det``: if ``coords`` holds ``x4`` itself (the chart), each
        map is affine: G = J4^T J4 and the signed pdet come once per cell,
        at the centroid, from the SVD that gives pinv4, (ch, 1, 1).  Any
        other field is in R^3; its G and det come from J's columns
        (``_prism_metric``), after the centroid det of every cell (an
        inverted cell is named first).
      * ``pinv4``: the pseudoinverse of J4 at the centroid.
    """
    tables = [(barycentric(r.triangle.points)[0], r.interval.points[:, 0]) for r in rules]
    if coords.cell_coords is x4:
        centre, pinv4 = _chart_sample(x4, CENTROID)
        J4 = centre.J[:, 0]
        G = tuple((J4[:, :, a] * J4[:, :, b]).sum(axis=1)[:, None, None] for a, b in METRIC_PAIRS)
        det = centre.det[:, :, None]
        metrics = [lambda run: (tuple(g[run] for g in G), det[run])] * len(rules)
    else:
        if coords.cell_coords.shape[-1] != 3:
            raise ValueError("a coordinate field in R^4 must be the chart x4 itself")
        jacobian(coords, slice(None), CENTROID)
        pinv4, _ = pseudo_inverse_pseudo_det(jacobian4(x4, slice(None), CENTROID))
        metrics = [_prism_metric(coords.cell_coords, lam, z) for lam, z in tables]
    pinv4 = pinv4[:, 0]
    chunk = max(1, POINTS_PER_CHUNK // sum(len(r.weights) for r in rules))
    for start in range(0, coords.n_cells, chunk):
        run = slice(start, min(start + chunk, coords.n_cells))
        maps = tuple(PointMap(_manifold_planes(x4[run], lam, z), *metric(run), pinv4[run])
                     for (lam, z), metric in zip(tables, metrics))
        yield np.arange(run.start, run.stop), maps


# ---------------------------------------------------------------------------
# The tangent space of S^2(a) x [0, H]
# ---------------------------------------------------------------------------
#
# The kernels below work on coordinate planes x1, x2, x3, h: every
# intermediate is such a plane, and a (..., 4) result is written once.
# Points given as a (..., 4) array are copied once into four contiguous
# planes; on chunks of quadrature points this roughly halves the time of
# computing on (..., 4) arrays, where every step strides over the last axis
# and builds np.stack, np.linalg.norm and einsum temporaries.  The
# solver-point map passes its planes as a tuple that ``coordinate_planes``
# hands through, each broadcast over (cells, triangle points, interval
# points), so a quantity of the horizontal position alone (the frame, the
# longitude, the latitude) is computed once per triangle point.  The
# providers in ``mms`` call the plane kernels (``longitude``,
# ``TangentFrame.at`` / ``dot`` / ``combine``) directly; the (..., 4)
# functions wrap the same kernels for the finite-difference oracles and the
# tests.

def coordinate_planes(v):
    """The coordinate planes of vectors v.

    A tuple holds planes already and is passed through (the solver-point
    map's ``PointMap.x`` is one).  An array (..., n) is copied once into one
    contiguous (n, ...) block, and the tuple of its rows is returned: row i
    is the (...)-shaped plane of component i, and a single vector (n,)
    gives n scalars.
    """
    if isinstance(v, tuple):
        return v
    return tuple(np.array(np.moveaxis(np.asarray(v, dtype=float), -1, 0), order="C"))


def point_shape(x) -> tuple:
    """The shape of the points with coordinate planes x: the planes' broadcast shape."""
    return np.broadcast_shapes(*(np.shape(p) for p in x))


def stack_planes(planes) -> np.ndarray:
    """Vectors (..., n) from n broadcastable planes, each written once."""
    out = np.empty(np.broadcast_shapes(*(np.shape(p) for p in planes)) + (len(planes),))
    for i, p in enumerate(planes):
        out[..., i] = p
    return out


def _radius_squared(x):
    """|x|^2 of the horizontal part of the points with planes x."""
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2]


def unit_normal(x4) -> np.ndarray:
    """Unit normal l = (x / |x|, 0), (..., 4); at a chordal point (|x| < a)
    it is the normal of the manifold at the point's radial lift."""
    x = coordinate_planes(x4)
    r = np.sqrt(_radius_squared(x))
    return stack_planes((x[0] / r, x[1] / r, x[2] / r, 0.0))


def project_tangent(v, x4) -> np.ndarray:
    """Tangential projection P v = v - (v . l) l, with l = unit_normal(x4)."""
    v, x = coordinate_planes(v), coordinate_planes(x4)
    s = (v[0] * x[0] + v[1] * x[1] + v[2] * x[2]) / _radius_squared(x)
    return stack_planes((v[0] - s * x[0], v[1] - s * x[1], v[2] - s * x[2], v[3]))


def longitude(x1, x2, a):
    """rho = |(x1, x2)|, the polar mask and (cos lambda, sin lambda) of the
    points with planes x1, x2.

    Within 1e-8 a of the polar axis the longitude is undefined; there the
    pair is (0, -1), which makes e_lambda = (1, 0, 0, 0).
    """
    rho = np.hypot(x1, x2)
    polar = rho < 1e-8 * a
    safe = np.where(polar, 1.0, rho)
    return rho, polar, np.where(polar, 0.0, x1 / safe), np.where(polar, -1.0, x2 / safe)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal tangent frame (e_lambda, e_phi, i4), with i4 = (0, 0, 0, 1).

    The horizontal parts of (e_lambda, e_phi) together with the radial
    direction form a right-handed triple in R^3.  The frame is kept as
    planes over the points' leading axes: e_lambda = (-sin lambda,
    cos lambda, 0, 0) from ``cos_l`` and ``sin_l``, and e_phi = (phi1, phi2,
    phi3, 0) from ``phi``.
    """

    cos_l: np.ndarray      # (...)
    sin_l: np.ndarray      # (...)
    phi: tuple             # three (...) planes

    @classmethod
    def at(cls, x, a: float = 1.0) -> "TangentFrame":
        """The frame at the points with coordinate planes x; pole columns get a
        fixed fallback pair."""
        rho, polar, cos_l, sin_l = longitude(x[0], x[1], a)
        sin_p = x[2] / a
        # At the poles any horizontal orthonormal pair will do; keep it
        # right-handed with the (+-z) radial.
        return cls(cos_l, sin_l, (np.where(polar, 0.0, -sin_p * cos_l),
                                  np.where(polar, np.sign(x[2]), -sin_p * sin_l),
                                  np.where(polar, 0.0, rho / a)))

    @property
    def e_lambda(self) -> np.ndarray:
        """e_lambda as 4-vectors, (..., 4)."""
        return stack_planes((-self.sin_l, self.cos_l, 0.0, 0.0))

    @property
    def e_phi(self) -> np.ndarray:
        """e_phi as 4-vectors, (..., 4)."""
        return stack_planes((*self.phi, 0.0))

    def dot(self, v):
        """The planes (v . e_lambda, v . e_phi) for the planes v of 4-vectors."""
        return (v[1] * self.cos_l - v[0] * self.sin_l,
                v[0] * self.phi[0] + v[1] * self.phi[1] + v[2] * self.phi[2])

    def combine(self, c, v=(0.0, 0.0, 0.0, 0.0)):
        """The planes of v + c0 e_lambda + c1 e_phi + c2 i4, for the planes c of
        frame components and v of 4-vectors."""
        return (v[0] - c[0] * self.sin_l + c[1] * self.phi[0],
                v[1] + c[0] * self.cos_l + c[1] * self.phi[1],
                v[2] + c[1] * self.phi[2],
                v[3] + c[2])

    def components(self, v) -> np.ndarray:
        """Frame components (v . e_lambda, v . e_phi, v_4) of 4-vectors, (..., 3)."""
        v = coordinate_planes(v)
        return stack_planes((*self.dot(v), v[3]))

    def vector(self, c) -> np.ndarray:
        """The 4-vector c0 e_lambda + c1 e_phi + c2 i4 of frame components c,
        (..., 3)."""
        return stack_planes(self.combine(coordinate_planes(c)))


def tangent_frame(x4, a: float = 1.0) -> TangentFrame:
    """Tangent frame at manifold points (..., 4); see ``TangentFrame.at``."""
    return TangentFrame.at(coordinate_planes(x4), a)


def cell_diameters(coords: CoordinateField) -> np.ndarray:
    """Max vertex-pair distance per cell in the given coordinate field."""
    c = coords.cell_coords
    diff = c[:, :, None, :] - c[:, None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
