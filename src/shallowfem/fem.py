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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi

from .mesh import TRIANGLE_EDGE_VERTICES, ExtrudedMesh, FacetSet

__all__ = [
    "ReferencePrism",
    "QuadratureRule",
    "FiniteElement",
    "Tabulation",
    "FunctionSpace",
    "Field",
    "quadrature_prism",
    "make_element",
    "tabulate",
    "build_dof_map",
    "piola_push",
    "interpolate_hdiv",
]


# ---------------------------------------------------------------------------
# Reference prism: triangle (0,0),(1,0),(0,1) times interval [0,1]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferencePrism:
    """Numbering tables and embeddings for the reference prism."""

    triangle: np.ndarray = field(
        default_factory=lambda: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    )
    volume: float = 0.5

    def edge_endpoints(self, edge: int) -> np.ndarray:
        """2x2 array of triangle coordinates, rows = edge endpoints."""
        p, q = TRIANGLE_EDGE_VERTICES[edge]
        return self.triangle[[p, q]]

    def edge_scaled_normal(self, edge: int) -> np.ndarray:
        """In-plane outward normal of the edge with length = edge length."""
        a, b = self.edge_endpoints(edge)
        e = b - a
        n = np.array([e[1], -e[0]])
        opposite = self.triangle[edge]
        if np.dot(n, opposite - 0.5 * (a + b)) > 0:
            n = -n
        return n

    def embed_quad(self, edge: int, t, z) -> np.ndarray:
        """Map (t, z) in [0,1]^2 onto the vertical quad facet of an edge."""
        a, b = self.edge_endpoints(edge)
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        xy = a[None, :] + t[:, None] * (b - a)[None, :]
        return np.column_stack([xy, z])

    def embed_tri(self, which: int, xy) -> np.ndarray:
        """Map triangle points onto the bottom (0) or top (1) facet."""
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        z = np.full(len(xy), float(which))
        return np.column_stack([xy, z])


PRISM = ReferencePrism()


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference prism (or triangle)."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _gauss01(n: int):
    """Gauss-Legendre rule mapped to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def quadrature_triangle(degree: int) -> QuadratureRule:
    """Triangle rule of the requested exactness, built by collapsing a square.

    Uses Gauss-Jacobi (alpha=1) in the collapsed direction so the Duffy
    factor (1 - u) is absorbed into the weights; all weights are positive.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree} (supported: 0..60)")
    n = max(1, math.ceil((degree + 1) / 2))
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    u, wu = (xj + 1.0) / 2.0, wj / 4.0
    v, wv = _gauss01(n)
    # xi1 = u, xi2 = v (1 - u): integrates f over the unit triangle
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    wts = np.outer(wu, wv).ravel()
    return QuadratureRule(points=pts, weights=wts, degree=degree)


def quadrature_prism(degree: int) -> QuadratureRule:
    """Tensor product of the triangle rule with Gauss-Legendre in xi3."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree} (supported: 0..60)")
    tri = quadrature_triangle(degree)
    z, wz = _gauss01(max(1, math.ceil((degree + 1) / 2)))
    npts, nz = len(tri.weights), len(z)
    pts = np.empty((npts * nz, 3))
    pts[:, :2] = np.repeat(tri.points, nz, axis=0)
    pts[:, 2] = np.tile(z, npts)
    wts = (tri.weights[:, None] * wz[None, :]).ravel()
    return QuadratureRule(points=pts, weights=wts, degree=degree)


# ---------------------------------------------------------------------------
# Finite elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofFunctional:
    """One degree of freedom as a quadrature rule with vector weights.

    ``l(v) = sum_q weights[q] . v(points[q])`` for vector-valued v (weights
    have a single nonzero component pattern for scalar moments).
    ``entity`` tags where the DOF lives: ("quad", edge, j, m),
    ("tri", which, j) or ("interior", i).
    """

    entity: tuple
    points: np.ndarray    # (nq, 3)
    weights: np.ndarray   # (nq, 3)

    def apply(self, values: np.ndarray) -> float:
        """Apply to vector samples taken at ``self.points``, shape (nq, 3)."""
        return float(np.sum(self.weights * values))


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

    @property
    def value_shape(self) -> tuple:
        return (3,) if self.family == "V1" else ()


@dataclass(frozen=True)
class Tabulation:
    values: np.ndarray          # V1: (npts, ndofs, 3); V2: (npts, ndofs)
    divergences: np.ndarray     # V1: (npts, ndofs); V2: None


# Monomials are centred at the prism centroid; this keeps the dual-basis
# Vandermonde well conditioned (raw powers cost three extra digits at k = 2).
_MONOMIAL_CENTRE = np.array([1.0 / 3.0, 1.0 / 3.0, 0.5])


def _monomial_values(exps, points):
    """Evaluate scalar monomials (xi - centre)^exps at points, (npts, nmono)."""
    p = np.atleast_2d(points) - _MONOMIAL_CENTRE
    exps = np.asarray(exps)
    return np.prod(p[:, None, :] ** exps[None, :, :], axis=2)


def _monomial_derivative(exp, axis):
    """(coefficient, exponents) of d/dxi_axis of a monomial."""
    a = list(exp)
    if a[axis] == 0:
        return 0.0, tuple(a)
    c = float(a[axis])
    a[axis] -= 1
    return c, tuple(a)


def _orthonormal_moments(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Gram-Schmidt a family of moment functions sampled at quadrature points.

    Keeps the span and ordering (so parity under parameter flips survives);
    normalisation keeps the dual basis O(1).
    """
    G = np.einsum("q,qi,qj->ij", weights, values, values)
    return values @ np.linalg.inv(np.linalg.cholesky(G)).T


def _edge_moment_dofs(k: int):
    """Normal moments on the three vertical quad facets."""
    t, wt = _gauss01(k + 3)
    z, wz = _gauss01(k + 1)
    qpoly = _orthonormal_moments(
        np.column_stack([(t - 0.5) ** j for j in range(k + 1)]), wt
    )
    rpoly = _orthonormal_moments(
        np.column_stack([(z - 0.5) ** m for m in range(k)]), wz
    )
    dofs = []
    for edge in range(3):
        n_scaled = PRISM.edge_scaled_normal(edge)
        tt, zz = np.meshgrid(np.arange(len(t)), np.arange(len(z)), indexing="ij")
        pts = PRISM.embed_quad(edge, t[tt.ravel()], z[zz.ravel()])
        wq = np.outer(wt, wz).ravel()
        for j in range(k + 1):          # edge moment, parity j under s -> -s
            for m in range(k):          # interval moment in xi3
                scal = wq * qpoly[tt.ravel(), j] * rpoly[zz.ravel(), m]
                w = np.zeros((len(pts), 3))
                w[:, 0] = scal * n_scaled[0]
                w[:, 1] = scal * n_scaled[1]
                dofs.append(DofFunctional(("quad", edge, j, m), pts, w))
    return dofs


def _tri_moment_dofs(k: int):
    """Vertical-component moments on the bottom and top triangle facets."""
    tri = quadrature_triangle(2 * k + 2)
    nmom = 3 if k == 2 else 1
    psi = _orthonormal_moments(
        np.column_stack(
            [np.ones(len(tri.weights)), tri.points[:, 0], tri.points[:, 1]][:nmom]
        ),
        tri.weights,
    )
    dofs = []
    for which in (0, 1):
        pts = PRISM.embed_tri(which, tri.points)
        for j in range(nmom):
            w = np.zeros((len(pts), 3))
            w[:, 2] = tri.weights * psi[:, j]
            dofs.append(DofFunctional(("tri", which, j), pts, w))
    return dofs


def _interior_dofs(k: int):
    """Interior moments (k = 2 only): Whitney-weighted horizontal, P1 vertical."""
    if k < 2:
        return []
    rule = quadrature_prism(2 * k + 2)
    pts, wq = rule.points, rule.weights
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]], axis=1)
    dlam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    rpoly = _orthonormal_moments(
        np.column_stack([(pts[:, 2] - 0.5) ** m for m in range(k)]), wq * 2.0
    )
    psi = _orthonormal_moments(
        np.column_stack([np.ones(len(wq)), pts[:, 0], pts[:, 1]]), wq * 2.0
    )
    dofs = []
    i = 0
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        whitney = lam[:, a, None] * dlam[b][None, :] - lam[:, b, None] * dlam[a][None, :]
        norm = math.sqrt(np.sum(wq * (whitney ** 2).sum(axis=1)))
        for m in range(k):
            scal = wq * rpoly[:, m] / norm
            w = np.zeros((len(pts), 3))
            w[:, :2] = whitney * scal[:, None]
            dofs.append(DofFunctional(("interior", i), pts, w))
            i += 1
    for j in range(3):
        w = np.zeros((len(pts), 3))
        w[:, 2] = wq * psi[:, j]
        dofs.append(DofFunctional(("interior", i), pts, w))
        i += 1
    return dofs


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
    A = np.empty((len(dofs), len(mono)))
    for i, dof in enumerate(dofs):
        vals = np.zeros((len(dof.points), len(mono), 3))
        for j, (comp, exp) in enumerate(mono):
            vals[:, j, comp] = _monomial_values([exp], dof.points)[:, 0]
        A[i] = np.einsum("qc,qjc->j", dof.weights, vals)
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
    npts = len(pts)
    if element.family == "V2":
        vals = _monomial_values(element.monomials, pts) @ element.coeffs.T
        return Tabulation(values=vals, divergences=None)

    nmono = len(element.monomials)
    vals = np.zeros((npts, nmono, 3))
    divs = np.zeros((npts, nmono))
    for j, (comp, exp) in enumerate(element.monomials):
        vals[:, j, comp] = _monomial_values([exp], pts)[:, 0]
        c, dexp = _monomial_derivative(exp, comp)
        if c:
            divs[:, j] = c * _monomial_values([dexp], pts)[:, 0]
    basis = np.einsum("dj,pjc->pdc", element.coeffs, vals)
    bdivs = divs @ element.coeffs.T
    return Tabulation(values=basis, divergences=bdivs)


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
    cell-local.  The global normal points from the lower-indexed adjacent
    cell to the higher (outward on the boundary); edge parameters ascend the
    global base-vertex index.  Odd edge moments flip sign with the edge
    parameter, all other moments only with the normal.
    """
    nc = mesh.n_cells
    L = mesh.n_layers
    base = mesh.base
    k = element.k

    if element.family == "V2":
        nd = element.ndofs
        cell_dofs = np.arange(nc * nd, dtype=np.int64).reshape(nc, nd)
        return FunctionSpace(
            mesh=mesh, facets=facets, element=element, n_dofs=nc * nd,
            cell_dofs=cell_dofs, cell_signs=np.ones((nc, nd)),
            vfacet_dofs=np.empty((len(facets.vertical_cells), 0), dtype=np.int64),
            hfacet_dofs=np.empty((len(facets.horizontal_cells), 0), dtype=np.int64),
        )

    n_quad = (k + 1) * k            # DOFs per vertical facet
    n_tri = 3 if k == 2 else 1      # DOFs per horizontal facet
    n_int = 9 if k == 2 else 0
    nvf = len(facets.vertical_cells)
    nhf = len(facets.horizontal_cells)
    off_h = nvf * n_quad
    off_i = off_h + nhf * n_tri
    n_dofs = off_i + nc * n_int

    vfacet_dofs = np.arange(off_h, dtype=np.int64).reshape(nvf, n_quad)
    hfacet_dofs = (off_h + np.arange(nhf * n_tri, dtype=np.int64)).reshape(nhf, n_tri)

    tris = np.arange(nc) // L
    layers = np.arange(nc) % L

    cell_dofs = np.empty((nc, element.ndofs), dtype=np.int64)
    cell_signs = np.ones((nc, element.ndofs))

    i = 0
    for edge in range(3):
        eids = base.triangle_edges[tris, edge]
        vf = eids * L + layers
        first = facets.vertical_cells[vf, 0] == np.arange(nc)
        sig_n = np.where(first, 1.0, -1.0)
        p, q = TRIANGLE_EDGE_VERTICES[edge]
        sig_s = np.where(base.triangles[tris, p] < base.triangles[tris, q], 1.0, -1.0)
        for j in range(k + 1):
            for m in range(k):
                cell_dofs[:, i] = vfacet_dofs[vf, j * k + m]
                cell_signs[:, i] = sig_n * sig_s ** j
                i += 1
    for which in (0, 1):
        hf = tris * (L + 1) + layers + which
        # +xi3 pushes to the upward direction; only the inner boundary's
        # outward normal opposes it.
        sig = np.where((layers + which) == 0, -1.0, 1.0)
        for j in range(n_tri):
            cell_dofs[:, i] = hfacet_dofs[hf, j]
            cell_signs[:, i] = sig
            i += 1
    for j in range(n_int):
        cell_dofs[:, i] = off_i + np.arange(nc) * n_int + j
        i += 1
    assert i == element.ndofs

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


# ---------------------------------------------------------------------------
# Piola transformation and interpolation
# ---------------------------------------------------------------------------

def piola_push(J, vhat, dhat=None):
    """Contravariant Piola: v = J vhat / det J, div v = dhat / det J.

    ``J`` is a JacobianSample (batched); ``vhat``/``dhat`` broadcast against
    its leading axes.
    """
    v = np.einsum("...ik,...k->...i", J.J, np.asarray(vhat, dtype=float))
    v = v / J.det[..., None]
    if dhat is None:
        return v
    return v, np.asarray(dhat, dtype=float) / J.det


def evaluate_velocity(u: Field, coords, cells, points) -> np.ndarray:
    """Physical velocity values of a V1 field at reference points per cell."""
    from .geometry import jacobian, matvec3

    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    tab = tabulate(u.space.element, points)
    J = jacobian(coords, cells, points)
    chat = u.coeffs[u.space.cell_dofs[cells]] * u.space.cell_signs[cells]
    vhat = np.einsum("ed,pdc->epc", chat, tab.values)
    return matvec3(J.J, vhat) / J.det[..., None]


def evaluate_pressure(p: Field, cells, points) -> np.ndarray:
    """Pressure values of a V2 field at reference points per cell."""
    cells = np.atleast_1d(np.asarray(cells, dtype=int))
    tab = tabulate(p.space.element, points)
    return np.einsum("ed,pd->ep", p.coeffs[p.space.cell_dofs[cells]], tab.values)


def interpolate_hdiv(space: FunctionSpace, coords, func) -> Field:
    """Interpolate a physical vector field by applying the DOF functionals.

    ``func(cell, xi, x)`` returns physical vector values at reference points
    ``xi`` with physical locations ``x``.  Each global DOF is written by its
    lowest-indexed adjacent cell; values are pulled back with the inverse
    Piola transform before the reference functionals are applied.  Per cell,
    the distinct points of every DOF it still has to write go through one
    Jacobian and one ``func`` call.
    """
    from .geometry import jacobian, nodal_basis

    dofs = space.element.dofs
    nodal = coords.cell_coords
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
        J = jacobian(coords, cell, xi)
        x = nodal_basis(xi) @ nodal[cell]
        v = np.asarray(func(cell, xi, x), dtype=float)
        vhat = np.einsum("pik,pk->pi", np.linalg.inv(J.J), v) * J.det[:, None]
        vhat = vhat[at.reshape(-1)]
        start = 0
        for i in todo:
            stop = start + len(dofs[i].points)
            g = space.cell_dofs[cell, i]
            coeffs[g] = space.cell_signs[cell, i] * dofs[i].apply(vhat[start:stop])
            written[g] = True
            start = stop
    return Field(space=space, coeffs=coeffs)
