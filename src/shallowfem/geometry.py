"""Geometry of the spherical annulus seen as a 3-manifold embedded in R^4.

The annulus ``a <= |x| <= a + H`` in R^3 is the image of the cylinder-like
manifold ``S^2(a) x [0, H]`` in R^4 under

    phi(x1, x2, x3, x4) = (1 + x4 / a) * (x1, x2, x3).

The shallow solver assembles on the chart, the mesh of the manifold itself:
the base triangulation times the layer heights (``manifold_coordinates``).
Every cell map is affine, with metric J4^T J4 and volume factor pdet J4 (the
product of J4's singular values).  The base edges are orthogonal to the
axis, so a cell is its chordal base triangle times its layer interval,
J4 = [E_0 E_1 | dh i4], and its metric, pdet,
pseudoinverse and rank test come in closed form (``_chart_cells``).  As the
paper shows, this equals assembling on a discontinuous 3D mesh whose columns
are rigidly extruded along the outward normals of their chordal base
triangles (the "hedgehog" mesh, ``hedgehog_coordinates``), with
J^T J = J4^T J4 and det J = pdet J4 exactly.
The hedgehog mesh is the tests' oracle and what ``export-mesh`` writes.

Both modes assemble on the chart and differ only in its metric: shallow
takes the restricted Euclidean metric of R^4, deep the one phi pulls back
from R^3, which makes the chart cell the annulus prism.  Assembly and the
error norms read a cell's map only through G and det, which the
solver-point map ``quadrature_chunks`` hands them, with the points on the
manifold, as planes over (cells, interval points, triangle points): one
value per cell in shallow mode, closed forms in phi in deep mode.  The
horizontal coordinates x1, x2, x3 vary only with the triangle point and h
only with the interval point, so the providers' horizontal work runs once
per triangle point, and every product of a horizontal and a vertical plane
runs its inner loop over the triangle points.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .mesh import ExtrudedMesh

__all__ = [
    "DegenerateMapError",
    "JacobianSample",
    "TangentFrame",
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
    "cell_diameters",
]


class DegenerateMapError(ValueError):
    """A coordinate map lost rank (degenerate element or projection), or a
    field left the float64 range."""


# ---------------------------------------------------------------------------
# Coordinate fields on the extruded mesh
# ---------------------------------------------------------------------------
#
# A coordinate field is a plain (n_cells, 6, dim) array of per-cell nodal
# coordinates with a linear-triangle x linear-interval basis: dim 3 for a
# field in R^3 (the annulus, ``mesh.cell_node_coords()``, or the hedgehog
# field), dim 4 for the chart in R^4.

def hedgehog_coordinates(mesh: ExtrudedMesh) -> np.ndarray:
    """Discontinuous 3D field whose metric equals the chart's exactly.

    Per cell: take the outward unit normal ``k_e`` of the chordal base
    triangle (the bottom nodes' horizontal parts on the chart), then place
    node ``v``, with horizontal part X_v and height h_v on the chart, at
    ``X_v + h_v * k_e``.
    Raises DegenerateMapError for a base plane within 1e-9 a of the centre.
    """
    x4 = manifold_coordinates(mesh)                      # (nc, 6, 4)
    X = x4[:, :3, :3] / mesh.base.radius                 # chordal base triangles, unit sphere
    n = np.cross(X[:, 1] - X[:, 0], X[:, 2] - X[:, 0])
    norm = np.linalg.norm(n, axis=1)
    outward = (n * X[:, 0]).sum(axis=1) > 1e-9 * norm
    if not outward.all():
        raise DegenerateMapError(f"cell {np.argmin(outward)}: chordal base triangle "
                                 f"has no outward normal")
    k = n / norm[:, None]
    return x4[:, :, :3] + x4[:, :, 3:] * k[:, None, :]


def manifold_coordinates(mesh: ExtrudedMesh) -> np.ndarray:
    """The chart: per-cell nodal coordinates on the 4D manifold, shape (n_cells, 6, 4).

    A node's horizontal part is its base vertex, ``mesh.base.vertices``, and
    its h is its layer height H l / L, ``mesh.layer_heights``, so a column's
    top nodes repeat its bottom nodes' horizontal parts exactly.
    """
    vertex, layer = np.divmod(mesh.cell_vertices, mesh.n_layers + 1)
    x4 = np.empty(mesh.cell_vertices.shape + (4,))
    x4[..., :3] = mesh.base.vertices[vertex]
    x4[..., 3] = mesh.layer_heights[layer]
    return x4


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


def jacobian(coords, cells, points) -> JacobianSample:
    """Jacobian samples for the given cells at the given reference points.

    ``cells`` may be an int or index array; ``points`` has shape (npts, 3).
    ``coords`` is a coordinate field (n_cells, 6, dim).  Result arrays are
    shaped (ncells, npts, dim, 3) (leading axis dropped for a scalar
    ``cells``).  On the chart (dim 4) det is the cell's pdet J4, signed
    (``_chart_cells``).  Raises DegenerateMapError if any det is <= 0.
    """
    nodal = coords[cells]
    J = _nodal_gemm(nodal, points)
    det = _chart_cells(nodal).pdet[..., None] if nodal.shape[-1] == 4 else _positive(_det3(J))
    return JacobianSample(J=J, det=np.broadcast_to(det, J.shape[:-2]))


def _positive(det):
    """``det``; raises DegenerateMapError if any entry is <= 0."""
    if np.any(det <= 0):
        raise DegenerateMapError(f"non-positive Jacobian determinant ({det.min():.3e}); "
                                 "cell is inverted")
    return det


class _ChartCells(NamedTuple):
    """Chart cells in closed form (``_chart_cells``), each field over the cells' axes."""

    a: np.ndarray          # |X_0|
    E: tuple               # E_0, E_1, each (3, ...): planes of the base edges
    G: tuple               # J4^T J4 at METRIC_PAIRS: E_a . E_b, 0, dh^2
    dh: np.ndarray         # h_3 - h_0
    vol: np.ndarray        # (E_0 x E_1) . X_0
    pdet: np.ndarray       # pdet J4 signed by det [l | J4], > 0
    pinv4: np.ndarray      # (..., 3, 4): J4's pseudoinverse


def _chart_cells(x4) -> _ChartCells:
    """Each chart cell of ``x4`` (..., 6, 4) in closed form, as its chordal
    base triangle times its layer interval, read as the solver points read
    it: X_0, the edges E_a = X_{a+1} - X_0 of the bottom nodes and
    dh = h_3 - h_0.  So J4 = [E_0 E_1 | dh i4], J4^T J4 is block diagonal,
    G_h = (E_a . E_b) and dh^2, and J4's singular values are |dh| and those
    of [E_0 E_1], s_1 and s_2 = |E_0 x E_1| / s_1.  pdet = |E_0 x E_1| |dh|
    is signed by det [l | J4] = dh (E_0 x E_1) . X_0, its expansion along
    the h row, and pinv4 = [[G_h^-1 [E_0 E_1]^T, 0], [0, 1 / dh]].
    Raises DegenerateMapError where s_min <= 1e-12 s_max, naming s_min /
    s_max, |dh|, s_1, s_2 and for a batch the first such cell, or where the
    signed pdet is <= 0 (an inverted cell).
    """
    X = np.moveaxis(x4[..., :3, :3], -1, 0)              # planes (3, ..., 3): bottom nodes
    with np.errstate(invalid="ignore", over="ignore"):   # a non-finite cell fails the test
        X0, E0, E1 = X[..., 0], X[..., 1] - X[..., 0], X[..., 2] - X[..., 0]
        dh = x4[..., 3, 3] - x4[..., 0, 3]
        g00, g01, g11 = _dot(E0, E0), _dot(E0, E1), _dot(E1, E1)
        n = np.cross(E0, E1, axis=0)
        area = np.sqrt(_dot(n, n))
        s1 = np.sqrt(0.5 * (g00 + g11 + np.hypot(g00 - g11, 2.0 * g01)))
        s2 = area / np.where(s1 > 0.0, s1, 1.0)
        s_max, s_min = np.maximum(s1, np.abs(dh)), np.minimum(s2, np.abs(dh))
        low = ~(s_min > 1e-12 * s_max)
    if low.any():
        bad = np.unravel_index(np.argmax(low), low.shape)
        where = f" at cell {bad[0]}" if bad else ""
        raise DegenerateMapError(
            f"4x3 Jacobian is rank deficient{where}: s_min/s_max = "
            f"{s_min[bad] / max(s_max[bad], 1e-300):.3e} <= 1e-12 (|dh| = {abs(dh[bad]):.3e}, "
            f"base triangle singular values {s1[bad]:.3e} and {s2[bad]:.3e})")
    vol, zero = _dot(n, X0), np.zeros_like(dh)
    pdet = _positive(area * dh * np.sign(vol))
    rows = np.array([g11 * E0 - g01 * E1, g00 * E1 - g01 * E0]) / (area * area)
    pinv4 = np.zeros(dh.shape + (3, 4))
    pinv4[..., :2, :3] = np.moveaxis(rows, (0, 1), (-2, -1))
    pinv4[..., 2, 3] = 1.0 / dh
    return _ChartCells(np.sqrt(_dot(X0, X0)), (E0, E1), (g00, g01, zero, g11, zero, dh * dh),
                       dh, vol, pdet, pinv4)


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
    Batched over leading axes.  The tests' oracle for the closed-form chart
    (``_chart_cells``), which the program reads instead.
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

    Every array broadcasts over (cells, interval points, triangle points),
    (ch, nz, nt), the order of the rule's points, and has size 1 along the
    axes it does not depend on.
    """

    x: tuple               # x1, x2, x3 (ch, 1, nt) and h (ch, nz, 1): manifold points
    G: tuple               # the chart's metric G = J^T J in the mode, at METRIC_PAIRS
    det: np.ndarray        # det J: shallow the signed pdet J4, deep phi's pull-back
    pinv4: np.ndarray      # (ch, 3, 4): J4's pseudoinverse at the centroid

    @property
    def shape(self) -> tuple:
        """(ch, nz, nt)."""
        return point_shape(self.x)

    @property
    def n_factorizations(self) -> int:
        """Number of (point, cell) metrics this map holds: G and det's broadcast size."""
        return math.prod(point_shape((*self.G, self.det)))

    def pull(self, v) -> tuple:
        """The planes pinv4 v: reference components of tangent 4-vectors v,
        a (..., 4) array whose leading axes broadcast against (ch, nz, nt).
        One batched GEMM per chunk, (ch, 3, 4) x (ch, 4, points); each plane
        keeps v's broadcast shape."""
        v = np.asarray(v, dtype=float)
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
    at the interval points ``z`` (nz,) times the triangle barycentrics
    ``lam`` (nt, 3): x1, x2, x3 from the bottom nodes, (ch, 1, nt), and h
    from node 0 and node 3, (ch, nz, 1)."""
    horizontal = np.swapaxes(x4[:, :3, :3], 1, 2) @ lam.T           # (ch, 3, nt)
    h = x4[:, :1, 3] * (1.0 - z) + x4[:, 3:4, 3] * z                 # (ch, nz)
    return (*(horizontal[:, d, None, :] for d in range(3)), h[:, :, None])


def _pullback_metric(chart, run):
    """G at METRIC_PAIRS and det J of the metric phi pulls back to the chart
    cells ``run`` of ``chart`` (``_chart_cells`` with leading axes
    (n, 1, 1)), as a function of their manifold planes ``x``.

    phi maps a cell to the annulus prism s(zeta) X(xi), with X the chordal
    chart point and s = 1 + h / a, a = |X_0|: dx/dxi_a = s E_a and
    dx/dzeta = c X, c = dh / a.  So G_ab = s^2 E_a . E_b and det = s^2 c
    (E_0 x E_1) . X_0 are (ch, nz, 1), G_a2 = s c E_a . X (ch, nz, nt) and
    G_22 = c^2 |X|^2 (ch, 1, nt)."""
    E0, E1 = (e[:, run] for e in chart.E)
    g00, g01, g11 = (chart.G[i][run] for i in (0, 1, 3))
    a = chart.a[run]
    c = chart.dh[run] / a
    vol = c * chart.vol[run]

    def metric(x):
        s = 1.0 + x[3] / a
        s2, sc = s * s, s * c
        return (s2 * g00, s2 * g01, sc * _dot(E0, x), s2 * g11, sc * _dot(E1, x),
                c * c * _dot(x, x)), s2 * vol

    return metric


def quadrature_chunks(x4, mode, *rules):
    """The solver-point map of every cell of the chart ``x4``, chunk by chunk.

    Assembly and the error norms both loop over this.  ``rules`` are prism
    rules (``fem.quadrature_prism``); a chunk holds max(1, POINTS_PER_CHUNK
    // their points) cells, in order.  2**14 and 2**16 each beat 2**15 in
    at most 6 of 10 alternating 10 s pairs of the benchmark ladders on 2
    cores, inside the runs' spread.  Deep k=1, at 95 + 8 points a cell (318
    cells a chunk): ladder medians 0.568 s (2**14) and 0.576 s (2**16)
    against 0.558 s, peak RSS 134.5 and 135.7 against 135.3 MiB.  k=2, at
    343 + 27 points: 0.74 against 0.73 s and 0.65 against 0.73 s.
    Yields ``(cells, maps)``, one PointMap per rule:

      * ``x``: the manifold points; top nodes share the bottom nodes'
        horizontal part and a layer has one h, so x1, x2, x3 vary only with
        the triangle point, (ch, 1, nt), and h only with the interval point,
        (ch, nz, 1); the triangle axis is innermost, as in the rule.
      * ``G``, ``det``: the chart's metric in ``mode``: "shallow" the
        restricted Euclidean one, G = J4^T J4 = (E_a . E_b, 0, dh^2) and
        the signed pdet once per cell, (ch, 1, 1); "deep" the one phi pulls
        back from R^3 (``_pullback_metric``), whose det has the sign of the
        chart's.
      * ``pinv4``: J4's pseudoinverse.

    Both modes read every cell once, in closed form, as its chordal base
    triangle times its layer interval (``_chart_cells``), which names an
    inverted or rank-deficient cell before the first chunk.
    """
    if mode not in ("shallow", "deep"):
        raise ValueError(f"mode must be 'shallow' or 'deep', got {mode!r}")
    tables = [(barycentric(r.triangle.points)[0], r.interval.points[:, 0]) for r in rules]
    chart = _chart_cells(x4[:, None, None])          # per cell, (n, 1, 1)
    chunk = max(1, POINTS_PER_CHUNK // sum(len(r.weights) for r in rules))
    for start in range(0, len(x4), chunk):
        run = slice(start, min(start + chunk, len(x4)))
        metric = (_pullback_metric(chart, run) if mode == "deep"
                  else lambda x: (tuple(g[run] for g in chart.G), chart.pdet[run]))
        planes = [_manifold_planes(x4[run], lam, z) for lam, z in tables]
        yield np.arange(run.start, run.stop), tuple(
            PointMap(x, *metric(x), chart.pinv4[run, 0, 0]) for x in planes)


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
# hands through, each broadcast over (cells, interval points, triangle
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


def _dot(u, v):
    """The planes of the dot product of the horizontal parts of the planes u, v."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def unit_normal(x4) -> np.ndarray:
    """Unit normal l = (x / |x|, 0), (..., 4); at a chordal point (|x| < a)
    it is the normal of the manifold at the point's radial lift."""
    x = coordinate_planes(x4)
    r = np.sqrt(_dot(x, x))
    return stack_planes((x[0] / r, x[1] / r, x[2] / r, 0.0))


def project_tangent(v, x4) -> np.ndarray:
    """Tangential projection P v = v - (v . l) l, with l = unit_normal(x4)."""
    v, x = coordinate_planes(v), coordinate_planes(x4)
    s = _dot(v, x) / _dot(x, x)
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
    """Tangent frame (e_lambda, e_phi, i4), with i4 = (0, 0, 0, 1).

    Orthonormal on S^2(a) x [0, H].  At a chordal point (|x| < a), as the
    quadrature points are, e_phi takes sin phi = x3 / a, so |e_phi| = |x| / a:
    up to 1.76e-2 short at k=2 (2,4).  The radial lift of ROADMAP item 3
    would make it unit.  The horizontal parts of (e_lambda, e_phi) together
    with the radial direction form a right-handed triple in R^3.  The frame
    is kept as planes over the points' leading axes: e_lambda = (-sin lambda,
    cos lambda, 0, 0) from ``cos_l`` and ``sin_l``, and e_phi = (phi1, phi2,
    phi3, 0) from ``phi``.
    """

    cos_l: np.ndarray      # (...)
    sin_l: np.ndarray      # (...)
    phi: tuple             # three (...) planes

    @classmethod
    def at(cls, x4, a: float) -> "TangentFrame":
        """The frame at manifold points of S^2(a) x [0, H], given as coordinate
        planes or as a (..., 4) array (see ``coordinate_planes``); pole columns
        get a fixed fallback pair."""
        x = coordinate_planes(x4)
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


def cell_diameters(coords) -> np.ndarray:
    """Max vertex-pair distance per cell of the coordinate field ``coords``,
    over the 15 distinct pairs of its six vertices."""
    i, j = np.triu_indices(6, 1)
    return np.sqrt(sum((x[:, i] - x[:, j]) ** 2 for x in coordinate_planes(coords))).max(axis=1)
