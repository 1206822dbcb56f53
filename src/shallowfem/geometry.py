"""Geometry of the spherical annulus seen as a 3-manifold embedded in R^4.

The annulus ``a <= |x| <= a + H`` in R^3 is the image of the cylinder-like
manifold ``S^2(a) x [0, H]`` in R^4 under

    phi(x1, x2, x3, x4) = (1 + x4 / a) * (x1, x2, x3).

The shallow metric comes from a modified, discontinuous coordinate field in
R^3: each prism column is rigidly extruded along its own radial unit vector
``k_e``, so columns keep a constant cross-section and open gaps between each
other (the "hedgehog" mesh).  The per-element map from the reference prism
then becomes affine.  Its J^T J equals that of the 4D chart (``jacobian4``)
only to second order: ``k_e`` is the normalised vertex mean, not the normal
of the chordal base triangle, so the two differ by up to 0.15 * 4^-r
relative at refinement r (exactly equal at r = 0).
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
    "matvec3",
    "jacobian4",
    "pseudo_inverse_pseudo_det",
    "quadrature_chunks",
    "coordinate_planes",
    "stack_planes",
    "unit_normal",
    "tangent_planes",
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
    """Per-cell nodal coordinates with a linear-triangle x linear-interval basis.

    ``column_axes`` stores the extrusion direction ``k_e`` per cell when each
    column is extruded rigidly along one (the hedgehog field, whose nodal
    values differ between cells sharing a mesh vertex); it is None for the
    continuous annulus field, which shares them.
    """

    cell_coords: np.ndarray           # (n_cells, 6, 3)
    column_axes: np.ndarray = None    # (n_cells, 3) or None

    @property
    def n_cells(self) -> int:
        return len(self.cell_coords)


def annulus_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Continuous coordinate field of the annulus mesh itself."""
    return CoordinateField(cell_coords=mesh.cell_node_coords())


def hedgehog_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Discontinuous coordinate field that encodes the shallow metric.

    Per cell: pull the six nodes back to R^4, average them, normalise the
    horizontal part of the average to get the column axis ``k_e``, then place
    node ``v`` at ``a * unit(x_v) + (|x_v| - a) * k_e``.  For radially
    extruded columns the axis is shared by every cell of the column.
    """
    x4 = manifold_coordinates(mesh)                      # (nc, 6, 4)
    mean_h = x4.mean(axis=1)[:, :3]                      # horizontal part of the average
    norms = np.linalg.norm(mean_h, axis=1)
    if np.any(norms < 1e-9):
        bad = int(np.argmin(norms))
        raise DegenerateMapError(
            f"cell {bad}: element average has no radial direction (|mean| = {norms[bad]:.3e})"
        )
    k = mean_h / norms[:, None]

    hedgehog = x4[:, :, :3] + x4[:, :, 3:] * k[:, None, :]
    return CoordinateField(cell_coords=hedgehog, column_axes=k)


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
    """Jacobian dx/dxi of the reference-to-physical map at reference points.

    All fields are batched over leading axes (cells, points).
    """

    J: np.ndarray          # (..., 3, 3)
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


def matvec3(A, v) -> np.ndarray:
    """Products A v of 3x3 matrices and 3-vectors, entry by entry.

    ``A`` is (..., 3, 3) and ``v`` is (..., 3); their leading axes
    broadcast, so one matrix per cell (..., 1, 3, 3) serves every point.
    """
    out = np.empty(np.broadcast_shapes(A.shape[:-1], v.shape))
    for i in range(3):
        out[..., i] = A[..., i, 0] * v[..., 0] + A[..., i, 1] * v[..., 1] + A[..., i, 2] * v[..., 2]
    return out


def jacobian(coords: CoordinateField, cells, points) -> JacobianSample:
    """Jacobian samples for the given cells at the given reference points.

    ``cells`` may be an int or index array; ``points`` has shape (npts, 3).
    Result arrays are shaped (ncells, npts, 3, 3) (leading axis dropped for a
    scalar ``cells``).  Raises DegenerateMapError (a ValueError) if any
    determinant is <= 0.
    """
    J = _nodal_gemm(coords.cell_coords[cells], points)
    det = _det3(J)
    if np.any(det <= 0):
        raise DegenerateMapError(
            f"non-positive Jacobian determinant ({det.min():.3e}); cell is inverted"
        )
    return JacobianSample(J=J, det=det)


CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0, 0.5]])


def jacobian4(cell_coords4, cells, points) -> np.ndarray:
    """4x3 Jacobian of the reference-to-manifold map, shape (..., npts, 4, 3)."""
    return _nodal_gemm(np.asarray(cell_coords4)[cells], points)


def pseudo_inverse_pseudo_det(J4):
    """Moore-Penrose pseudoinverse and pseudodeterminant of 4x3 Jacobians.

    The pseudodeterminant is the product of the three nonzero singular values.
    Raises DegenerateMapError when the smallest singular value drops below
    1e-12 times the largest, or when the SVD fails (a non-finite Jacobian).
    Batched over leading axes.
    """
    J4 = np.asarray(J4, dtype=float)
    try:
        U, s, Vt = np.linalg.svd(J4, full_matrices=False)  # (..., 4, 3), (..., 3), (..., 3, 3)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMapError(f"4x3 Jacobian: {exc}") from exc
    if np.any(s[..., -1] < 1e-12 * s[..., 0]):
        raise DegenerateMapError("4x3 Jacobian is rank deficient")
    pinv = np.einsum("...ji,...j,...kj->...ik", Vt, 1.0 / s, U)
    pdet = np.prod(s, axis=-1)
    return pinv, pdet


POINTS_PER_CHUNK = 2 ** 15


def quadrature_chunks(coords: CoordinateField, x4, points):
    """The solver-point map of every cell, chunk by chunk.

    Assembly and the error norms both loop over this.  A chunk holds
    max(1, POINTS_PER_CHUNK // npts) cells, in order: 151 at deep k=1 and 88
    at k=2.  A budget of 2**14 doubles the chunks and their fixed Python
    cost, which slowed k=2 ladders by 3-4%; one four times larger puts the
    providers' planes of deep k=1 on fresh pages.  Yields
    ``(cells, J, pinv4T, x4q)``:

      * ``J``: the JacobianSample of ``coords``.  A field with
        ``column_axes`` (the hedgehog field) extrudes each column rigidly, so
        its map is affine per cell and J is factored once at the centroid,
        shape (ch, 1, 3, 3), which broadcasts against (ch, npts).  Any other
        field is sampled at every point.
      * ``pinv4T``: the transposed pseudoinverse of the manifold Jacobian at
        the centroid, (ch, 4, 3); ``v4 @ pinv4T`` gives the reference
        components of tangent 4-vectors.
      * ``x4q``: the manifold points of the quadrature points, (ch, npts, 4).
    """
    nbasis = nodal_basis(points)
    jac_points = CENTROID if coords.column_axes is not None else points
    chunk = max(1, POINTS_PER_CHUNK // len(points))
    for start in range(0, coords.n_cells, chunk):
        cells = np.arange(start, min(start + chunk, coords.n_cells))
        J = jacobian(coords, cells, jac_points)
        pinv4, _ = pseudo_inverse_pseudo_det(jacobian4(x4, cells, CENTROID))
        yield cells, J, np.swapaxes(pinv4[:, 0], 1, 2), nbasis @ x4[cells]


# ---------------------------------------------------------------------------
# The tangent space of S^2(a) x [0, H]
# ---------------------------------------------------------------------------
#
# The kernels below work on coordinate planes: the points (..., 4) are copied
# once into four contiguous (...)-shaped planes x1, x2, x3, h, every
# intermediate is such a plane, and a (..., 4) result is written once.  On
# chunks of quadrature points this roughly halves the time of computing on
# (..., 4) arrays, where every step strides over the last axis and builds
# np.stack, np.linalg.norm and einsum temporaries.  The providers in ``mms``
# call the plane kernels (``tangent_planes``, ``longitude``,
# ``TangentFrame.at`` / ``dot`` / ``combine``) directly; the (..., 4)
# functions wrap the same kernels for the finite-difference oracles and the
# tests.

def coordinate_planes(v) -> np.ndarray:
    """The coordinate planes of vectors (..., n) as one contiguous copy, (n, ...).

    Row i is the (...)-shaped plane of component i; a single vector (n,)
    gives n scalars.
    """
    return np.array(np.moveaxis(np.asarray(v, dtype=float), -1, 0), order="C")


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


def tangent_planes(v, x):
    """The planes of P v = v - ((v . x) / |x|^2) x, the tangential projection
    along ``unit_normal``, for the planes v of 4-vectors at the points with
    planes x."""
    s = (v[0] * x[0] + v[1] * x[1] + v[2] * x[2]) / _radius_squared(x)
    return v[0] - s * x[0], v[1] - s * x[1], v[2] - s * x[2], v[3]


def project_tangent(v, x4) -> np.ndarray:
    """Tangential projection P v = v - (v . l) l, with l = unit_normal(x4)."""
    return stack_planes(tangent_planes(coordinate_planes(v), coordinate_planes(x4)))


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
