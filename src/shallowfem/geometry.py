"""Geometry of the spherical annulus seen as a 3-manifold embedded in R^4.

The annulus ``a <= |x| <= a + H`` in R^3 is the image of the cylinder-like
manifold ``S^2(a) x [0, H]`` in R^4 under

    phi(x1, x2, x3, x4) = (1 + x4 / a) * (x1, x2, x3).

Computing element Jacobians from the 4D side is equivalent to using a
modified, discontinuous coordinate field in R^3: each prism column is rigidly
extruded along its own radial unit vector ``k_e``, so columns keep a constant
cross-section and open gaps between each other (the "hedgehog" mesh).  The
per-element map from the reference prism then becomes affine, which encodes
the shallow-atmosphere metric.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import ExtrudedMesh

__all__ = [
    "DegenerateMapError",
    "CoordinateField",
    "JacobianSample",
    "TangentFrame",
    "phi",
    "phi_inverse",
    "annulus_coordinates",
    "hedgehog_coordinates",
    "manifold_coordinates",
    "nodal_basis",
    "nodal_basis_gradients",
    "jacobian",
    "quadrature_jacobian",
    "matvec3",
    "jacobian4",
    "pseudo_inverse_pseudo_det",
    "tangent_frame",
    "pushforward_4to3",
    "cell_diameters",
]


class DegenerateMapError(Exception):
    """A coordinate map lost rank (degenerate element or projection)."""


def phi(x4, a: float = 1.0):
    """Map points of S^2(a) x [0, H] in R^4 to the annulus in R^3."""
    x4 = np.asarray(x4, dtype=float)
    return (1.0 + x4[..., 3:4] / a) * x4[..., :3]


def phi_inverse(x3, a: float = 1.0):
    """Inverse map: annulus point -> (a * x/|x|, |x| - a).

    Raises ValueError for points more than 1e-9 inside the inner sphere.
    """
    x3 = np.asarray(x3, dtype=float)
    r = np.linalg.norm(x3, axis=-1)
    if np.any(r < a - 1e-9):
        raise ValueError(
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

    ``kind == "continuous"`` shares nodal values across cells touching the same
    mesh vertex (the annulus mesh); ``kind == "discontinuous"`` need not (the
    hedgehog field).  ``column_axes`` stores the extrusion direction ``k_e``
    per cell when one exists.
    """

    kind: str
    cell_coords: np.ndarray           # (n_cells, 6, 3)
    column_axes: np.ndarray = None    # (n_cells, 3) or None

    @property
    def n_cells(self) -> int:
        return len(self.cell_coords)


def annulus_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Continuous coordinate field of the annulus mesh itself."""
    return CoordinateField(kind="continuous", cell_coords=mesh.cell_node_coords())


def hedgehog_coordinates(mesh: ExtrudedMesh) -> CoordinateField:
    """Discontinuous coordinate field that encodes the shallow metric.

    Per cell: pull the six nodes back to R^4, average them, normalise the
    horizontal part of the average to get the column axis ``k_e``, then place
    node ``v`` at ``a * unit(x_v) + (|x_v| - a) * k_e``.  For radially
    extruded columns the axis is shared by every cell of the column.
    """
    a = mesh.base.radius
    coords = mesh.cell_node_coords()                     # (nc, 6, 3)
    radii = np.linalg.norm(coords, axis=2)               # (nc, 6)
    units = coords / radii[:, :, None]

    x4 = np.concatenate([a * units, (radii - a)[:, :, None]], axis=2)
    mean_h = x4.mean(axis=1)[:, :3]                      # horizontal part of the average
    norms = np.linalg.norm(mean_h, axis=1)
    if np.any(norms < 1e-9):
        bad = int(np.argmin(norms))
        raise DegenerateMapError(
            f"cell {bad}: element average has no radial direction (|mean| = {norms[bad]:.3e})"
        )
    k = mean_h / norms[:, None]

    hedgehog = a * units + (radii - a)[:, :, None] * k[:, None, :]
    return CoordinateField(kind="discontinuous", cell_coords=hedgehog, column_axes=k)


def manifold_coordinates(mesh: ExtrudedMesh) -> np.ndarray:
    """Per-cell nodal coordinates on the 4D manifold, shape (n_cells, 6, 4)."""
    coords = mesh.cell_node_coords()
    return phi_inverse(coords, a=mesh.base.radius)


# ---------------------------------------------------------------------------
# Reference prism nodal basis (triangle (0,0),(1,0),(0,1) x interval [0,1])
# ---------------------------------------------------------------------------

def nodal_basis(points) -> np.ndarray:
    """Values of the six prism nodal functions at reference points, (npts, 6)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]], axis=1)
    c = np.stack([1.0 - p[:, 2], p[:, 2]], axis=1)
    return np.concatenate([lam * c[:, :1], lam * c[:, 1:]], axis=1)


def nodal_basis_gradients(points) -> np.ndarray:
    """Reference gradients of the nodal functions, (npts, 6, 3)."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(p)
    lam = np.stack([1.0 - p[:, 0] - p[:, 1], p[:, 0], p[:, 1]], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    c = np.stack([1.0 - p[:, 2], p[:, 2]], axis=1)
    dc = np.array([-1.0, 1.0])

    grads = np.empty((n, 6, 3))
    for m in range(2):                       # interval end
        for i in range(3):                   # triangle vertex
            v = m * 3 + i
            grads[:, v, :2] = dlam[i][None, :] * c[:, m, None]
            grads[:, v, 2] = lam[:, i] * dc[m]
    return grads


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
    scalar ``cells``).  Raises ValueError if any determinant is <= 0.
    """
    J = _nodal_gemm(coords.cell_coords[cells], points)
    det = _det3(J)
    if np.any(det <= 0):
        raise ValueError(
            f"non-positive Jacobian determinant ({det.min():.3e}); cell is inverted"
        )
    return JacobianSample(J=J, det=det)


CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0, 0.5]])


def quadrature_jacobian(coords: CoordinateField, cells, points) -> JacobianSample:
    """Jacobian samples for a chunk of cells, as the quadrature loops use them.

    A field with ``column_axes`` (the hedgehog field) extrudes each column
    rigidly, so its map is affine per cell: J is factored once at the
    centroid and returned with shape (ncells, 1, 3, 3), which broadcasts
    against (ncells, npts).  Any other field is sampled at every point.
    """
    if coords.column_axes is not None:
        return jacobian(coords, cells, CENTROID)
    return jacobian(coords, cells, points)


def jacobian4(cell_coords4, cells, points) -> np.ndarray:
    """4x3 Jacobian of the reference-to-manifold map, shape (..., npts, 4, 3)."""
    return _nodal_gemm(np.asarray(cell_coords4)[cells], points)


def pseudo_inverse_pseudo_det(J4):
    """Moore-Penrose pseudoinverse and pseudodeterminant of 4x3 Jacobians.

    The pseudodeterminant is the product of the three nonzero singular values.
    Raises DegenerateMapError when the smallest singular value drops below
    1e-12 times the largest.  Batched over leading axes.
    """
    J4 = np.asarray(J4, dtype=float)
    U, s, Vt = np.linalg.svd(J4, full_matrices=False)    # (..., 4, 3), (..., 3), (..., 3, 3)
    if np.any(s[..., -1] < 1e-12 * s[..., 0]):
        raise DegenerateMapError("4x3 Jacobian is rank deficient")
    pinv = np.einsum("...ji,...j,...kj->...ik", Vt, 1.0 / s, U)
    pdet = np.prod(s, axis=-1)
    return pinv, pdet


# ---------------------------------------------------------------------------
# Tangent frames on S^2(a) x [0, H]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal tangent frame (e_lambda, e_phi, i4) and unit normal l.

    The horizontal parts of (e_lambda, e_phi) together with the radial
    direction form a right-handed triple in R^3.  Batched over leading axes.
    """

    point: np.ndarray      # (..., 4)
    e_lambda: np.ndarray   # (..., 4)
    e_phi: np.ndarray      # (..., 4)
    i4: np.ndarray         # (..., 4)
    normal: np.ndarray     # (..., 4)


def tangent_frame(x4, a: float = 1.0) -> TangentFrame:
    """Tangent frame at manifold points; pole columns get a fixed fallback pair."""
    x4 = np.asarray(x4, dtype=float)
    scalar = x4.ndim == 1
    x4 = np.atleast_2d(x4)

    rho = np.hypot(x4[..., 0], x4[..., 1])
    polar = rho < 1e-8 * a

    with np.errstate(invalid="ignore", divide="ignore"):
        cos_l = np.where(polar, 1.0, x4[..., 0] / np.where(polar, 1.0, rho))
        sin_l = np.where(polar, 0.0, x4[..., 1] / np.where(polar, 1.0, rho))
    sin_p = x4[..., 2] / a
    cos_p = rho / a

    e_lam = np.zeros(x4.shape)
    e_phi = np.zeros(x4.shape)
    e_lam[..., 0] = -sin_l
    e_lam[..., 1] = cos_l
    e_phi[..., 0] = -sin_p * cos_l
    e_phi[..., 1] = -sin_p * sin_l
    e_phi[..., 2] = cos_p

    # At the poles any horizontal orthonormal pair will do; keep it
    # right-handed with the (+-z) radial.
    if np.any(polar):
        sgn = np.sign(x4[..., 2])
        e_lam[polar] = 0.0
        e_phi[polar] = 0.0
        e_lam[polar, 0] = 1.0
        e_phi[polar, 1] = sgn[polar]

    i4 = np.zeros(x4.shape)
    i4[..., 3] = 1.0
    normal = np.zeros(x4.shape)
    normal[..., :3] = x4[..., :3] / a

    if scalar:
        return TangentFrame(x4[0], e_lam[0], e_phi[0], i4[0], normal[0])
    return TangentFrame(x4, e_lam, e_phi, i4, normal)


# ---------------------------------------------------------------------------
# Pushforward between the 4D manifold mesh and the 3D coordinate field
# ---------------------------------------------------------------------------

def pushforward_4to3(coords: CoordinateField, cell_coords4, cells, points, v4):
    """Push tangent 4-vectors through chi_e = g_e o (g~_e)^{-1}.

    Computes ``J_{g_e} pinv(J_{g~_e}) v4`` at the given reference points.
    Components of ``v4`` along the discrete element normal are annihilated by
    the pseudoinverse.  Shapes: ``v4`` is (..., npts, 4) matching the cell
    selection; result is (..., npts, 3).
    """
    J3 = jacobian(coords, cells, points).J
    J4 = jacobian4(cell_coords4, cells, points)
    pinv, _ = pseudo_inverse_pseudo_det(J4)
    return np.einsum("...ik,...kj,...j->...i", J3, pinv, np.asarray(v4, dtype=float))


def cell_diameters(coords: CoordinateField) -> np.ndarray:
    """Max vertex-pair distance per cell in the given coordinate field."""
    c = coords.cell_coords
    diff = c[:, :, None, :] - c[:, None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(1, 2))
