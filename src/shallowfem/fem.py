"""Prism finite elements for mixed H(div) x L^2 discretisations.

The velocity space couples a triangle BDM_k element with discontinuous and
continuous interval factors,

    V1(k) = BDM_k(tri) x DG_{k-1}(interval)   (horizontal components)
          + DG_{k-1}(tri) x CG_k(interval)    (vertical component),

and the pressure space is V2(k) = DG_{k-1}(tri) x DG_{k-1}(interval).
Velocity DOFs are normal moments on facets (plus interior moments for k=2),
so fields have single-valued normal components across facets once per-cell
orientation signs are applied.  Bases are built numerically by inverting the
functional/monomial matrix; every functional is stored as a small quadrature
rule with vector weights, which makes DOF application to arbitrary fields
(interpolation, unisolvence checks) uniform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CENTROID, barycentric
from .mesh import TRIANGLE_EDGE_VERTICES, ExtrudedMesh, FacetSet

__all__ = [
    "QuadratureRule",
    "FiniteElement",
    "Tabulation",
    "FunctionSpace",
    "Field",
    "quadrature_prism",
    "default_quadrature_degree",
    "exact_matrix_degree",
    "make_element",
    "tabulate",
    "build_dof_map",
]


# ---------------------------------------------------------------------------
# Reference prism: triangle (0,0),(1,0),(0,1) times interval [0,1]
# ---------------------------------------------------------------------------

_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def edge_endpoints(edge: int) -> np.ndarray:
    """2x2 array of triangle coordinates, rows = edge endpoints."""
    p, q = TRIANGLE_EDGE_VERTICES[edge]
    return _TRIANGLE[[p, q]]


def edge_scaled_normal(edge: int) -> np.ndarray:
    """In-plane outward normal of the edge with length = edge length."""
    a, b = edge_endpoints(edge)
    e = b - a
    n = np.array([e[1], -e[0]])
    if np.dot(n, _TRIANGLE[edge] - 0.5 * (a + b)) > 0:
        n = -n
    return n


def embed_quad(edge: int, t, z) -> np.ndarray:
    """Map (t, z) in [0,1]^2 onto the vertical quad facet of an edge."""
    a, b = edge_endpoints(edge)
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=float)
    xy = a[None, :] + t[:, None] * (b - a)[None, :]
    return np.column_stack([xy, z])


def embed_tri(which: int, xy) -> np.ndarray:
    """Map triangle points onto the bottom (0) or top (1) facet."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    return np.column_stack([xy, np.full(len(xy), float(which))])


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference prism (or triangle, or interval).

    A prism rule is the tensor product of ``triangle`` and ``interval``:
    point ``t * nz + z`` is triangle point t at interval point z, and its
    weight is their product, so values at the points reshape to (nt, nz).
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int
    triangle: "QuadratureRule" = None
    interval: "QuadratureRule" = None

    @property
    def tensor_weights(self) -> np.ndarray:
        """A prism rule's weights as (nt, nz), to broadcast over (cells, nt, nz)."""
        return self.weights.reshape(len(self.triangle.weights), -1)


def _gauss01(n: int):
    """Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_jacobi(n: int):
    """Gauss-Jacobi rule for the weight 1 - x on [-1, 1]: Golub-Welsch nodes
    of the monic recurrence p_{i+1} = (x - a_i) p_i - b_i p_{i-1}, one Newton
    step on p_n, and weights 1 / ((1 - x^2) p_n'^2) scaled to sum to 2."""
    i = np.arange(n)
    a, b = -1.0 / ((2 * i + 1) * (2 * i + 3)), i * (i + 1.0) / (2 * i + 1) ** 2

    def p_n(x):
        p0, p, d0, d = 0.0, np.ones_like(x), 0.0, np.zeros_like(x)
        for ai, bi in zip(a, b):
            p0, p, d0, d = p, (x - ai) * p - bi * p0, d, p + (x - ai) * d - bi * d0
        return p, d

    x = np.linalg.eigvalsh(np.diag(a) + np.diag(np.sqrt(b[1:]), -1))
    x -= np.divide(*p_n(x))
    w = 1.0 / ((1.0 - x) * (1.0 + x) * p_n(x)[1] ** 2)
    return x, 2.0 * w / w.sum()


def quadrature_triangle(degree: int) -> QuadratureRule:
    """Triangle rule of the requested exactness, built by collapsing a square.

    Uses Gauss-Jacobi (alpha=1) in the collapsed direction so the Duffy
    factor (1 - u) is absorbed into the weights; all weights are positive.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree} (supported: 0..60)")
    n = max(1, math.ceil((degree + 1) / 2))
    xj, wj = _gauss_jacobi(n)
    u, wu = (xj + 1.0) / 2.0, wj / 4.0
    v, wv = _gauss01(n)
    # xi1 = u, xi2 = v (1 - u): integrates f over the unit triangle
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    wts = np.outer(wu, wv).ravel()
    return QuadratureRule(points=pts, weights=wts, degree=degree)


def quadrature_prism(degree: int) -> QuadratureRule:
    """Tensor product of the triangle rule with Gauss-Legendre in xi3."""
    tri = quadrature_triangle(degree)
    z, wz = _gauss01(max(1, math.ceil((degree + 1) / 2)))
    npts, nz = len(tri.weights), len(z)
    pts = np.empty((npts * nz, 3))
    pts[:, :2] = np.repeat(tri.points, nz, axis=0)
    pts[:, 2] = np.tile(z, npts)
    wts = (tri.weights[:, None] * wz[None, :]).ravel()
    interval = QuadratureRule(points=z[:, None], weights=wz, degree=degree)
    return QuadratureRule(points=pts, weights=wts, degree=degree, triangle=tri, interval=interval)


def default_quadrature_degree(k: int) -> int:
    """Degree 2k + 8, generous enough that the manufactured forcing
    integrates exactly.

    It is the rule of the right-hand sides F and g, the error norms and the
    deep-mode matrix; no setting changes it.  The shallow-mode matrix is
    integrated exactly at ``exact_matrix_degree(k)``.
    """
    return 2 * k + 8


def exact_matrix_degree(k: int) -> int:
    """Degree 2k + 1, the lowest that integrates the shallow matrix exactly.

    On the chart in R^4 each cell's map is affine, so J4^T J4 / pdet is
    constant per cell, and omega_hat = pinv4 omega4 is affine when omega4
    is.  The V1 basis is BDM_k x P_{k-1} horizontally and P_{k-1} x P_k
    vertically, so phi_i . K phi_j has degree at most 2k + 1 in the triangle
    and 2k in the interval; ``quadrature_prism(2k + 1)`` has (k + 1)^3
    points, and the rule of degree 2k - 1 misses the matrix by 25-60%.
    """
    return 2 * k + 1


# ---------------------------------------------------------------------------
# Finite elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofFunctional:
    """One degree of freedom as a quadrature rule with vector weights.

    ``l(v) = sum_q weights[q] . v(points[q])`` for vector-valued v (weights
    have a single nonzero component pattern for scalar moments).
    ``entity`` tags where the DOF lives: ("quad", edge, j, m),
    ("tri", which, j) or ("interior", 0, i); ``entity[:2]`` names the
    entity and ``entity[2]`` is a moment index, whose parity on a quad is
    the moment's under a flip of the edge parameter.
    """

    entity: tuple
    points: np.ndarray    # (nq, 3)
    weights: np.ndarray   # (nq, 3)


@dataclass(frozen=True)
class FiniteElement:
    """Tabulated prism element; see the module docstring for the spaces."""

    family: str                       # "V1" or "V2"
    k: int
    monomials: tuple                  # V1: (component, (a, b, c)); V2: (a, b, c)
    coeffs: np.ndarray                # (ndofs, n_monomials)
    dofs: tuple                       # DofFunctional per DOF (V1 only; V2 modal)

    @property
    def ndofs(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class Tabulation:
    values: np.ndarray          # V1: (npts, ndofs, 3); V2: (npts, ndofs)
    divergences: np.ndarray     # V1: (npts, ndofs); V2: None


def _monomial_values(exps, points):
    """Evaluate scalar monomials (xi - centroid)^exps at points, (npts, nmono).

    Centring keeps the dual-basis Vandermonde well conditioned (raw powers
    cost three extra digits at k = 2).
    """
    p = np.atleast_2d(points) - CENTROID
    exps = np.asarray(exps)
    return np.prod(p[:, None, :] ** exps[None, :, :], axis=2)


def _v1_monomial_values(monomials, points):
    """Values (npts, nmono, 3) and divergences (npts, nmono) of the V1
    monomials, each a ``(component, exponents)`` pair."""
    comps = np.array([comp for comp, _ in monomials])
    exps = np.array([exp for _, exp in monomials])
    j = np.arange(len(monomials))
    vals = np.zeros((len(points), len(monomials), 3))
    vals[:, j, comps] = _monomial_values(exps, points)
    c = exps[j, comps]
    dexps = exps - np.eye(3, dtype=exps.dtype)[comps]
    live = c > 0
    divs = np.zeros(vals.shape[:2])
    divs[:, live] = c[live] * _monomial_values(dexps[live], points)
    return vals, divs


def _orthonormal_moments(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram-Schmidt a family of moment functions sampled at quadrature points.

    Keeps the span and ordering (so parity under parameter flips survives);
    normalisation keeps the dual basis O(1).
    """
    G = np.einsum("q,qi,qj->ij", weights, values, values)
    return values @ np.linalg.inv(np.linalg.cholesky(G)).T


def _interval_moments(z, weights, n: int) -> np.ndarray:
    """The orthonormalised moments (z - 1/2)^m, m < n, at ``z``."""
    return _orthonormal_moments(np.column_stack([(z - 0.5) ** m for m in range(n)]), weights)


def _p1_moments(points, weights, n: int = 3) -> np.ndarray:
    """The first n of the orthonormalised moments (1, xi1, xi2) at ``points``."""
    ones = np.ones(len(weights))
    return _orthonormal_moments(np.column_stack([ones, points[:, 0], points[:, 1]][:n]), weights)


def _functional(entity, points, comps, scal) -> DofFunctional:
    """DOF whose weights are ``scal`` in components ``comps`` and zero elsewhere."""
    w = np.zeros((len(points), 3))
    w[:, comps] = scal
    return DofFunctional(entity, points, w)


def _edge_moment_dofs(k: int):
    """Normal moments on the three vertical quad facets."""
    t, wt = _gauss01(k + 3)
    z, wz = _gauss01(k + 1)
    qpoly = _interval_moments(t, wt, k + 1)
    rpoly = _interval_moments(z, wz, k)
    dofs = []
    for edge in range(3):
        n_scaled = edge_scaled_normal(edge)
        tt, zz = np.meshgrid(np.arange(len(t)), np.arange(len(z)), indexing="ij")
        pts = embed_quad(edge, t[tt.ravel()], z[zz.ravel()])
        wq = np.outer(wt, wz).ravel()
        for j in range(k + 1):          # edge moment, parity j under s -> -s
            for m in range(k):          # interval moment in xi3
                scal = (wq * qpoly[tt.ravel(), j] * rpoly[zz.ravel(), m])[:, None] * n_scaled
                dofs.append(_functional(("quad", edge, j, m), pts, slice(2), scal))
    return dofs


def _tri_moment_dofs(k: int):
    """Vertical-component moments on the bottom and top triangle facets."""
    tri = quadrature_triangle(2 * k + 2)
    nmom = 3 if k == 2 else 1
    psi = _p1_moments(tri.points, tri.weights, nmom)
    pts = [embed_tri(which, tri.points) for which in (0, 1)]
    return [_functional(("tri", which, j), pts[which], 2, tri.weights * psi[:, j])
            for which in (0, 1) for j in range(nmom)]


def _interior_dofs(k: int):
    """Interior moments (k = 2 only): Whitney-weighted horizontal, P1 vertical."""
    if k < 2:
        return []
    rule = quadrature_prism(2 * k + 2)
    pts, wq = rule.points, rule.weights
    lam, dlam = barycentric(pts)
    rpoly = _interval_moments(pts[:, 2], wq * 2.0, k)
    psi = _p1_moments(pts, wq * 2.0)
    weights = []    # (components, weights) per DOF
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        whitney = lam[:, a, None] * dlam[b][None, :] - lam[:, b, None] * dlam[a][None, :]
        norm = math.sqrt(np.sum(wq * (whitney ** 2).sum(axis=1)))
        weights += [(slice(2), whitney * (wq * rpoly[:, m] / norm)[:, None]) for m in range(k)]
    weights += [(2, wq * psi[:, j]) for j in range(3)]
    return [_functional(("interior", 0, i), pts, c, w) for i, (c, w) in enumerate(weights)]


def _v1_monomials(k: int):
    """Monomial spanning set of V1(k): (component, exponent triple)."""
    mono = []
    hdeg = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
    for comp in (0, 1):
        for (a, b) in hdeg:
            for c in range(k):                    # DG_{k-1} in xi3
                mono.append((comp, (a, b, c)))
    vdeg = [(a, b) for a in range(k) for b in range(k - a)]
    for (a, b) in vdeg:
        for c in range(k + 1):                    # CG_k in xi3
            mono.append((2, (a, b, c)))
    return tuple(mono)


def _v2_monomials(k: int):
    return tuple(
        (a, b, c)
        for a in range(k)
        for b in range(k - a)
        for c in range(k)
    )


_ELEMENT_CACHE = {}


def make_element(family: str, k: int) -> FiniteElement:
    """Construct (and cache) the V1 or V2 element of degree k in {1, 2}."""
    key = (family, k)
    if key in _ELEMENT_CACHE:
        return _ELEMENT_CACHE[key]
    if family not in ("V1", "V2") or k not in (1, 2):
        raise ValueError(f"unknown element {family}({k}); families V1, V2 with k in {{1, 2}}")

    if family == "V2":
        mono = _v2_monomials(k)
        elem = FiniteElement(
            family="V2", k=k, monomials=mono, coeffs=np.eye(len(mono)), dofs=()
        )
        _ELEMENT_CACHE[key] = elem
        return elem

    mono = _v1_monomials(k)
    dofs = _edge_moment_dofs(k) + _tri_moment_dofs(k) + _interior_dofs(k)
    if len(dofs) != len(mono):
        raise AssertionError(f"DOF/monomial mismatch: {len(dofs)} vs {len(mono)}")

    # Vandermonde of functionals against monomials, then invert for the
    # nodal (dual) basis.
    A = np.array([
        np.einsum("qc,qjc->j", dof.weights, _v1_monomial_values(mono, dof.points)[0])
        for dof in dofs
    ])
    cond = np.linalg.cond(A)
    if cond > 1e8:
        raise AssertionError(f"degenerate DOF set for V1({k}): cond = {cond:.2e}")
    coeffs = np.linalg.solve(A, np.eye(len(dofs))).T

    elem = FiniteElement(family="V1", k=k, monomials=mono, coeffs=coeffs, dofs=tuple(dofs))
    _ELEMENT_CACHE[key] = elem
    return elem


def tabulate(element: FiniteElement, points) -> Tabulation:
    """Basis values (and reference divergences for V1) at reference points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if element.family == "V2":
        vals = _monomial_values(element.monomials, pts) @ element.coeffs.T
        return Tabulation(values=vals, divergences=None)

    vals, divs = _v1_monomial_values(element.monomials, pts)
    return Tabulation(
        values=np.einsum("dj,pjc->pdc", element.coeffs, vals), divergences=divs @ element.coeffs.T
    )


# ---------------------------------------------------------------------------
# Global function spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpace:
    """Global DOF layout over an extruded mesh.

    ``cell_dofs[cell, i]`` is the global index of local DOF i and
    ``cell_signs[cell, i]`` its orientation sign.  Facet DOF tables are kept
    for boundary conditions: ``vfacet_dofs`` per vertical facet,
    ``hfacet_dofs`` per horizontal facet (empty for V2).
    """

    mesh: ExtrudedMesh
    facets: FacetSet
    element: FiniteElement
    n_dofs: int
    cell_dofs: np.ndarray
    cell_signs: np.ndarray
    vfacet_dofs: np.ndarray
    hfacet_dofs: np.ndarray


def build_dof_map(mesh: ExtrudedMesh, facets: FacetSet, element: FiniteElement) -> FunctionSpace:
    """Number global DOFs and compute per-(cell, DOF) orientation signs.

    Horizontal velocity DOFs sit on vertical quad facets, vertical velocity
    DOFs on horizontal triangle facets, interior DOFs (and all V2 DOFs) are
    cell-local.  The V1 layout is read from the element's DOF entities: the
    DOF count per entity, and each DOF's slot, its rank among the element's
    DOFs on the same entity.  The global normal points from the lower-indexed
    adjacent cell to the higher (outward on the boundary); edge parameters
    ascend the global base-vertex index.  Odd edge moments flip sign with the
    edge parameter, all other moments only with the normal.
    """
    nc = mesh.n_cells
    L = mesh.n_layers
    base = mesh.base

    if element.family == "V2":
        nd = element.ndofs
        cell_dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
        return FunctionSpace(
            mesh=mesh, facets=facets, element=element, n_dofs=nc * nd,
            cell_dofs=cell_dofs, cell_signs=np.ones((nc, nd)),
            vfacet_dofs=np.empty((len(facets.vertical_cells), 0), dtype=np.int64),
            hfacet_dofs=np.empty((len(facets.horizontal_cells), 0), dtype=np.int64),
        )

    entities = [dof.entity[:2] for dof in element.dofs]
    n_quad, n_tri, n_int = (entities.count((kind, 0)) for kind in ("quad", "tri", "interior"))
    nvf = len(facets.vertical_cells)
    nhf = len(facets.horizontal_cells)
    off_h = nvf * n_quad
    off_i = off_h + nhf * n_tri
    n_dofs = off_i + nc * n_int

    vfacet_dofs = np.arange(off_h, dtype=np.int64).reshape(nvf, n_quad)
    hfacet_dofs = (off_h + np.arange(nhf * n_tri, dtype=np.int64)).reshape(nhf, n_tri)

    cells = np.arange(nc)
    tris = cells // L
    layers = cells % L

    # Per local entity: its first global DOF in each cell, the normal's sign
    # and the edge parameter's sign.
    entity_dofs = {("interior", 0): (off_i + cells * n_int, 1.0, 1.0)}
    for edge, (p, q) in enumerate(TRIANGLE_EDGE_VERTICES):
        vf = base.triangle_edges[tris, edge] * L + layers
        sig_n = np.where(facets.vertical_cells[vf, 0] == cells, 1.0, -1.0)
        sig_s = np.where(base.triangles[tris, p] < base.triangles[tris, q], 1.0, -1.0)
        entity_dofs["quad", edge] = (vf * n_quad, sig_n, sig_s)
    for which in (0, 1):
        hf = tris * (L + 1) + layers + which
        # +xi3 pushes to the upward direction; only the inner boundary's
        # outward normal opposes it.
        sig = np.where((layers + which) == 0, -1.0, 1.0)
        entity_dofs["tri", which] = (off_h + hf * n_tri, sig, 1.0)

    cell_dofs = np.empty((nc, element.ndofs), dtype=np.int64)
    cell_signs = np.empty((nc, element.ndofs))
    for i, dof in enumerate(element.dofs):
        first, sig_n, sig_s = entity_dofs[entities[i]]
        cell_dofs[:, i] = first + entities[:i].count(entities[i])
        cell_signs[:, i] = sig_n * sig_s ** dof.entity[2]

    return FunctionSpace(
        mesh=mesh, facets=facets, element=element, n_dofs=n_dofs,
        cell_dofs=cell_dofs, cell_signs=cell_signs,
        vfacet_dofs=vfacet_dofs, hfacet_dofs=hfacet_dofs,
    )


@dataclass
class Field:
    """Coefficient vector over a function space."""

    space: FunctionSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient length {self.coeffs.shape} != n_dofs {self.space.n_dofs}"
            )
