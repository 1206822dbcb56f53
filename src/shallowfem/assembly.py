"""Assembly and solution of the mixed velocity-pressure system.

Discretises

    u + 2 Omega x u = -grad p + F,      div u - p = g

on the spherical annulus with V1 x V2 prism elements.  The weak form gives
the block system [[M + C, -D^T], [D, -M_p]].  Coefficient providers are
functions of the 4D manifold coordinate, called with the coordinate planes
of ``geometry.quadrature_chunks``; vector data (Omega, F) is pushed into
the active frame through the per-cell map chi_e, so the same providers
serve both modes.  Assembly reads only the metric G = J^T J and det J,
which is all that the two modes differ in:

  * shallow: the chart ``manifold_coordinates`` in R^4, as the paper writes
    the equations; its map is affine, so G = J4^T J4 and det, the
    pseudodeterminant, come once per cell (the hedgehog mesh, the tests'
    oracle, has the same J^T J and det);
  * deep: continuous annulus coordinates, whose G and det vary over the
    cell and come from J's columns, with no per-point Jacobian.

The div(w) p coupling uses the Piola identity div v = dhat / det J, so the
determinants cancel and D reduces to a single reference matrix shared by
every cell.

The velocity block uses the tensor representation (Kirby & Logg 2006).
With physical basis J phi / det and Omega_3 = J pinv4 omega4 pushed through
chi_e, the integrand of M + C at a point is phi_i . K phi_j, where

    K = G / det + 2 [omega_hat]x,      G = J^T J,  omega_hat = pinv4 omega4.

The cross term carries no J and no det because (Ja) x (Jb) = det J J^-T
(a x b) and J^-1 (J pinv4) = pinv4; both hold at every point, so one formula
serves both modes.  The symmetric part pairs the six planes of G / det
with T_sym[(s,q),(i,j)] = w_q (phi_ic phi_jd + phi_id phi_jc) over the
entries s = (c, d) of ``geometry.METRIC_PAIRS`` (one term when c = d), and
the antisymmetric part pairs the three planes of 2 omega_hat with
T_anti[(m,q),(i,j)] = w_q (phi_j x phi_i)_m.  Both, and
Tb[(c,q),i] = w_q phi_ic, are tabulated once per call, and each chunk of
cells is a GEMM:

    A_uu = [G / det | 2 omega_hat] @ [T_sym; T_anti],    b_u = fhat @ Tb,

with fhat = G pinv4 f4 formed on planes.  On the chart the per-cell G and
det broadcast over the points, so one path serves both modes.  M_p and b_p
are GEMMs of w det against the V2 basis.  The blocks of a chunk of
``geometry.quadrature_chunks`` form one mixed cell matrix
E = [[A_uu, -D^T], [D, -M_p]] over each cell's [V1 | V2] DOFs; the
orientation signs s are applied once as E * s s^T, the signed E of all
cells are kept as one (n_cells, nd, nd) array, and [b_u | b_p] s is
scattered into the right-hand side.  No global matrix is built on the solve
path; ``LinearSystem.matrix`` is the tests' oracle.

The inner boundary condition u . n = 0 is written into the cell matrices
by ``apply_inner_bc``, so the solver, its residual and the oracle all read
one operator.

The kind of form fixes the quadrature rule.  The right-hand sides b_u and
b_p use ``fem.default_quadrature_degree(k)`` = 2k + 8, which the
manufactured forcing needs.  The shallow matrix E uses
``fem.exact_matrix_degree(k)`` = 2k + 1, (k + 1)^3 points: J^T J / det is
constant per cell and omega_hat is affine, so its integrand is a polynomial
of that degree.  Both point sets are mapped in one pass of
``quadrature_chunks``.  An omega4 that is not affine on the cells would be
under-integrated, so shallow assembly with rotation compares omega4 at the
matrix points with its nodal interpolant and raises ValueError when they
differ.  Deep mode integrates E with 2k + 8 and accepts any omega4.

``solve`` condenses statically from the cell matrices: every V2 DOF and
every V1 interior moment belongs to one cell, so all cells are condensed in
one batched dense pass, the leaf level of the element multifrontal method
(Duff & Reid 1983); a row of ``cell_dofs`` is [facet | local], so each
cell's blocks are slices of its matrix.  SuperLU factors the facet Schur
complement in float32, in a column order: the horizontal-facet DOFs, which
couple only inside one column of prisms, come first, so SuperLU eliminates
them as independent column blocks; the vertical-facet DOFs follow in
nested-dissection order over the columns (George 1973), so the dissection
splits only the 2D graph of columns.  Refinement in float64 (Buttari et al.
2007; Carson & Higham 2018) brings the residual to the tolerance; a step
that fails to cut it tenfold is a SolverError, never a silent fallback to a
float64 factor.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry
from .fem import (
    Field, FunctionSpace, default_quadrature_degree, exact_matrix_degree, quadrature_prism,
    tabulate,
)
from .geometry import CoordinateField, annulus_coordinates, manifold_coordinates

__all__ = [
    "ProblemConfig",
    "LinearSystem",
    "SolveResult",
    "SolverError",
    "assemble",
    "apply_inner_bc",
    "solve",
]


# Most unordered vertical-facet DOFs that nested dissection leaves unsplit.
# LU fill at k=2 (2,4), k=1 (3,8) and deep k=1 (4,2) is 6.88M, 15.25M and
# 4.79M with 32, the same with 8 and 16 but for 4.78M at deep (4,2) with 8;
# 64 gave 6.88M, 15.33M and 4.90M, and 128 gave 6.93M, 15.33M and 5.25M.
ND_LEAF = 32

# Most refinement steps after the first solve with the float32 factor.  Each
# step scales the residual by about cond(S) 2^-24: 1e-5 at k=2 (2,4) and
# 3e-5 at k=2 (3,8), where two steps reach 1e-10.
MAX_REFINEMENT_STEPS = 10


class SolverError(Exception):
    """Linear solve failed to meet the residual contract."""


def traditional_omega(x4):
    """Traditional-approximation rotation: (0, 0, 0, x3 / 2)."""
    return geometry.stack_planes((0.0, 0.0, 0.0, 0.5 * geometry.coordinate_planes(x4)[2]))


def _zeros(x4, *tail):
    """Zeros of the points' shape (see ``geometry.point_shape``) plus ``tail``."""
    return np.zeros(geometry.point_shape(geometry.coordinate_planes(x4)) + tail)


@dataclass
class ProblemConfig:
    """Coefficients and discretisation choices for one solve.

    ``omega4``, ``f4`` map batches of 4D points to tangent 4-vectors,
    (..., 4); ``g`` maps them to scalars, (...).  Assembly calls them with
    the solver-point map's coordinate planes, a tuple (x1, x2, x3, h) whose
    planes broadcast over (cells, triangle points, interval points), x1, x2,
    x3 varying with the triangle point and h with the interval point, so a
    provider's horizontal work runs once per triangle point; the result's
    leading axes need only broadcast against them.  Read the planes with
    ``geometry.coordinate_planes``, which also takes a (..., 4) array (as
    the finite-difference oracles and the tests pass).  In shallow mode
    ``omega4`` must be affine on each cell (``traditional_omega`` is; see
    the module docstring).
    ``quadrature_degree`` stays only for the benchmark's traced walk, which
    passes None (that default).
    """

    mode: str = "shallow"
    k: int = 1
    coriolis_enabled: bool = True
    omega4: callable = None
    f4: callable = None
    g: callable = None
    solver_tolerance: float = 1e-10
    quadrature_degree: int = None

    def __post_init__(self):
        if self.mode not in ("shallow", "deep"):
            raise ValueError(f"mode must be 'shallow' or 'deep', got {self.mode!r}")
        if self.omega4 is None:
            self.omega4 = traditional_omega
        if self.f4 is None:
            self.f4 = lambda x4: _zeros(x4, 4)
        if self.g is None:
            self.g = _zeros

    @property
    def degree(self) -> int:
        if self.quadrature_degree is None:
            return default_quadrature_degree(self.k)
        return self.quadrature_degree


@dataclass
class LinearSystem:
    """Assembled block system over [V1 DOFs | V2 DOFs]: each cell's signed
    mixed matrix over its row of ``cell_dofs``.  Boundary conditions are
    part of the cell matrices and ``rhs`` (see ``apply_inner_bc``)."""

    cell_matrices: np.ndarray      # (n_cells, nd, nd)
    rhs: np.ndarray
    u_space: FunctionSpace
    p_space: FunctionSpace
    stats: dict = field(default_factory=dict)

    def __post_init__(self):
        nd = self.u_space.element.ndofs + self.p_space.element.ndofs
        for name, shape in [("cell_matrices", (self.u_space.mesh.n_cells, nd, nd)),
                            ("rhs", (self.n_u + self.n_p,))]:
            if getattr(self, name).shape != shape:
                raise ValueError(
                    f"{name} has shape {getattr(self, name).shape}, but the spaces need {shape}")

    @property
    def n_u(self) -> int:
        return self.u_space.n_dofs

    @property
    def n_p(self) -> int:
        return self.p_space.n_dofs

    @property
    def cell_dofs(self) -> np.ndarray:
        """(n_cells, nd) each cell's global [V1 facet | V1 interior | V2] DOFs, facets first."""
        return np.hstack([self.u_space.cell_dofs, self.p_space.cell_dofs + self.n_u])

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """``matrix @ z``, from the cell matrices."""
        dofs = self.cell_dofs
        Ez = np.einsum("eij,ej->ei", self.cell_matrices, z[dofs])
        return np.bincount(dofs.ravel(), Ez.ravel(), len(z))

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The global CSR, the tests' oracle; ``solve`` never builds it.  A
        facet DOF lies in at most two cells, so no entry sums more than two
        contributions and the CSR does not depend on the scatter order.  It
        stores no zeros."""
        A = _scatter_blocks(self.cell_matrices, self.cell_dofs, len(self.rhs)).tocsr()
        A.eliminate_zeros()
        return A


def _scatter_blocks(blocks, index, n):
    """The n x n COO sum of the per-cell blocks (n_cells, m, m), each at the
    rows and columns ``index`` (n_cells, m)."""
    rows, cols = np.broadcast_arrays(index[:, :, None], index[:, None, :])
    return sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n))


def coordinate_field(config: ProblemConfig, mesh):
    """The chart in R^4 for shallow mode, the annulus in R^3 for deep mode."""
    if config.mode == "shallow":
        return CoordinateField(cell_coords=manifold_coordinates(mesh))
    return annulus_coordinates(mesh)


def _check_interpolant(omega, nodal):
    """Reject a rotation that differs from its nodal interpolant by more
    than 1e-12 relative: the shallow matrix rule would under-integrate it."""
    gap = np.abs(omega - nodal).max()
    if gap > 1e-12 * np.abs(omega).max():
        raise ValueError(
            f"omega4 differs from its nodal interpolant by {gap:.3e} at the matrix "
            f"quadrature points; the shallow matrix integrates only an omega4 that is "
            f"affine on each cell exactly (mode='deep' accepts any omega4)"
        )


def assemble(config: ProblemConfig, u_space: FunctionSpace, p_space: FunctionSpace) -> LinearSystem:
    """Assemble the block system; see the module docstring for the layout."""
    if u_space.mesh is not p_space.mesh:
        raise ValueError("velocity and pressure spaces built on different meshes")
    if not config.k == u_space.element.k == p_space.element.k:
        raise ValueError(
            f"config.k = {config.k} but the spaces have degree "
            f"{u_space.element.k} (V1) and {p_space.element.k} (V2)"
        )
    mesh = u_space.mesh
    coords = coordinate_field(config, mesh)
    shallow = config.mode == "shallow"
    x4 = coords.cell_coords if shallow else manifold_coordinates(mesh)

    # Shallow chunks map the right-hand-side and the matrix points in one pass.
    rule = quadrature_prism(config.degree)
    mrule = quadrature_prism(exact_matrix_degree(config.k)) if shallow else rule
    rules = (rule, mrule) if shallow else (rule,)
    w, wm = rule.weights, mrule.weights
    nq, nm = len(w), len(wm)
    omega_basis = geometry.nodal_basis(mrule.points)
    tab1, tab1m = tabulate(u_space.element, rule.points), tabulate(u_space.element, mrule.points)
    psi, psim = (tabulate(p_space.element, r.points).values for r in (rule, mrule))
    nd1, nd2 = u_space.element.ndofs, p_space.element.ndofs
    nd = nd1 + nd2

    nc = mesh.n_cells
    system = LinearSystem(
        cell_matrices=np.empty((nc, nd, nd)), rhs=np.zeros(u_space.n_dofs + p_space.n_dofs),
        u_space=u_space, p_space=p_space,
    )
    dofs = system.cell_dofs
    signs = np.hstack([u_space.cell_signs, p_space.cell_signs])

    # reference tensors, tabulated once; see the module docstring
    phim = tab1m.values                                          # (nm, nd1, 3)
    T = np.einsum("q,qic,qjd->cdqij", wm, phim, phim)
    T_sym = [T[c, d] + T[d, c] if c != d else T[c, c] for c, d in geometry.METRIC_PAIRS]
    T_anti = [T[2, 1] - T[1, 2], T[0, 2] - T[2, 0], T[1, 0] - T[0, 1]]
    T_uu = np.concatenate(T_sym + T_anti).reshape(9 * nm, nd1 * nd1)
    n_planes = 9 if config.coriolis_enabled else 6
    Tb = (w[:, None, None] * tab1.values).transpose(2, 0, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psim, psim).reshape(nm, nd2 * nd2)
    # det-free divergence coupling: identical on every cell
    D_ref = np.einsum("q,qa,qd->ad", wm, psim, tab1m.divergences)
    w, wm = rule.tensor_weights, mrule.tensor_weights

    n_fact = 0
    for cells, maps in geometry.quadrature_chunks(coords, x4, *rules):
        q, m = maps[0], maps[-1]
        ch = len(cells)
        n_fact += q.n_factorizations

        # [G / det | 2 omega_hat] planes with omega_hat = pinv4 omega4
        K = np.empty((ch, n_planes) + m.shape[1:])
        for i, g in enumerate(m.G):
            np.divide(g, m.det, out=K[:, i])
        if config.coriolis_enabled:
            om4 = config.omega4(m.x)
            if shallow:
                nodal = config.omega4(geometry.coordinate_planes(x4[cells]))
                _check_interpolant(np.broadcast_to(om4, m.shape + (4,)).reshape(ch, nm, 4),
                                   omega_basis @ nodal)
            for i, o in enumerate(m.pull(om4)):
                np.multiply(2.0, o, out=K[:, 6 + i])
        fhat = np.empty((ch, 3) + q.shape[1:])
        for i, v in enumerate(q.lower(q.pull(config.f4(q.x)))):
            fhat[:, i] = v
        wdet_g = np.broadcast_to(w * q.det * config.g(q.x), q.shape).reshape(ch, nq)
        b = np.hstack([fhat.reshape(ch, 3 * nq) @ Tb, wdet_g @ psi])

        E = system.cell_matrices[cells[0]:cells[0] + ch]   # chunks are runs of cells
        E[:, :nd1, :nd1] = (K.reshape(ch, -1) @ T_uu[:n_planes * nm]).reshape(ch, nd1, nd1)
        E[:, :nd1, nd1:] = -D_ref.T
        E[:, nd1:, :nd1] = D_ref
        wdet = np.broadcast_to(wm * m.det, m.shape).reshape(ch, nm)
        E[:, nd1:, nd1:] = -(wdet @ Tp).reshape(ch, nd2, nd2)
        sg, gd = signs[cells], dofs[cells]
        E *= sg[:, :, None] * sg[:, None, :]
        np.add.at(system.rhs, gd.ravel(), (b * sg).ravel())

    system.stats = {
        "n_jacobian_factorizations": n_fact,
        "n_quadrature_points": nq,
        "n_cells": nc,
        "quadrature_degree": config.degree,
        "matrix_quadrature_degree": mrule.degree,
        "n_matrix_quadrature_points": nm,
    }
    return system


def apply_inner_bc(system: LinearSystem) -> LinearSystem:
    """Impose u . n = 0 on the inner boundary (outer boundary stays natural).

    Each constrained DOF lies in one cell, a layer-0 cell.  In a copy of the
    cell matrices its row and column there are zeroed and its diagonal set
    to 1, so the global matrix has an identity row and a zero column for it;
    its right-hand side is zeroed (the constrained value is zero, so nothing
    moves to the RHS).  The input system is left unchanged.
    """
    space = system.u_space
    dofs = np.unique(space.hfacet_dofs[space.facets.inner_boundary].ravel())
    keep = np.ones(len(system.rhs))
    keep[dofs] = 0.0
    cells, pos = np.nonzero(keep[system.cell_dofs] == 0.0)
    E = system.cell_matrices.copy()
    E[cells, pos, :] = 0.0
    E[cells, :, pos] = 0.0
    E[cells, pos, pos] = 1.0
    return replace(system, cell_matrices=E, rhs=system.rhs * keep, stats=dict(system.stats))


@dataclass
class SolveResult:
    """Solution fields, the achieved relative residual and solver counts.

    ``stats``: ``n_global`` (order of the condensed matrix),
    ``n_local_per_cell`` (DOFs eliminated per cell), ``lu_nnz`` (SuperLU fill
    of the condensed matrix), ``refinement_steps``, ``ordering`` (the
    column order of the condensed matrix, always
    ``"column-nested-dissection"``: see ``_facet_order``),
    ``factor_dtype`` (the precision of the LU, always ``"float32"``) and
    ``residuals`` (the relative residual after the first solve and after
    each refinement step; its last entry is ``residual``, and it is empty
    when the right-hand side is zero and nothing is solved).
    """

    u: Field
    p: Field
    residual: float
    stats: dict = field(default_factory=dict)


def _n_facet(system: LinearSystem) -> int:
    """f, the facet DOFs per cell: the V1 DOFs not tagged "interior", which
    the element lists first, so a row of ``cell_dofs`` is [facet (f) | local]."""
    return sum(d.entity[0] != "interior" for d in system.u_space.element.dofs)


def _nested_dissection(column_facets, centroids):
    """The vertical-facet DOFs 0 ... nv-1 in nested-dissection order over
    the columns.

    Two vertical-facet DOFs couple in the Schur complement, once the
    horizontal-facet DOFs are eliminated, only through a shared column, so
    the order is built from each column's vertical-facet DOFs and the
    centroid of its base triangle before the matrix exists (George 1973).
    A set of columns is split into two halves by rank along the widest axis
    of its centroids, and the separator is the unordered DOFs that columns
    of both halves own; it is ordered after the two halves.  A set with at
    most ``ND_LEAF`` unordered DOFs is not split.
    """
    nv = column_facets.max() + 1
    side = np.zeros(nv, dtype=np.int8)   # 1: a low column owns it, 2: separator
    order = []

    def dissect(columns, ids):
        # ids: the unordered DOFs of columns, which no other column owns
        if len(ids) > ND_LEAF and len(columns) > 1:
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


def _facet_order(u: FunctionSpace) -> np.ndarray:
    """The facet DOFs 0 ... ng-1 in the order SuperLU factors them: every
    horizontal-facet DOF (nv ... ng-1), which couples only inside its
    column, then the vertical-facet DOFs 0 ... nv-1 by ``_nested_dissection``
    over the columns.  Cells are numbered column-major, so a column's
    vertical-facet DOFs are a reshape of its cells' ``"quad"`` DOFs."""
    base = u.mesh.base
    quad = [d.entity[0] == "quad" for d in u.element.dofs]
    columns = u.cell_dofs[:, quad].reshape(base.n_triangles, -1)
    nv = u.vfacet_dofs.size
    horizontal = np.arange(nv, nv + u.hfacet_dofs.size)
    centroids = base.vertices[base.triangles].mean(axis=1)
    return np.concatenate([horizontal, _nested_dissection(columns, centroids)])


def _condense(system: LinearSystem, order: np.ndarray):
    """Condense every cell's local (l) DOFs onto its facet (g) DOFs.

    E_gg, E_gl, E_lg and E_ll are slices of each cell matrix at f.  Per
    cell: B^-1 = E_ll^-1, W = B^-1 E_lg and S_e = E_gg - E_gl W.  Returns S
    = sum of the S_e, a float64 CSC in the facet order ``order``; the cells'
    facet DOFs as positions in ``order``; B^-1, W and E_gl.
    """
    f = _n_facet(system)
    E = system.cell_matrices
    try:
        B_inv = np.linalg.inv(E[:, f:, f:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cell-local block inversion failed: {exc}") from exc
    E_gl = E[:, :f, f:]
    W = B_inv @ E[:, f:, :f]
    S_e = E[:, :f, :f] - E_gl @ W

    ng = len(order)
    position = np.empty(ng, dtype=np.int64)
    position[order] = np.arange(ng)
    facet = position[system.cell_dofs[:, :f]]
    S = _scatter_blocks(S_e, facet, ng).tocsc()
    S.eliminate_zeros()         # zeros in the constrained rows and columns would add LU fill
    return S, facet, B_inv, W, E_gl


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    ``_condense`` sums the cells' Schur complements into S = A_gg - A_gl
    B^-1 A_lg on the facet DOFs, in the column order of ``_facet_order``.
    SuperLU factors S in float32, keeps that column order and relaxes
    diagonal pivoting to a threshold of 0.01 so that row swaps do not undo
    it.  Everything else stays in float64; only the facet right-hand side
    of each solve is cast to float32, scaled to unit max.
    The local DOFs are recovered cell by cell.  The solution is refined
    from z = 0 (relative residual 1): each step solves for the residual
    b - A z (``LinearSystem.matvec``) and adds the correction, until the
    relative residual is at most ``tolerance``, for at most
    ``MAX_REFINEMENT_STEPS`` steps after the first solve.

    Raises SolverError when a cell block is singular, when SuperLU fails or
    runs out of memory, when a solve (the first one included) cuts the
    residual less than tenfold, and when the residual misses the tolerance
    after ``MAX_REFINEMENT_STEPS`` steps; the last two name the residual
    history.
    """
    b = system.rhs
    n, n_u = len(b), system.n_u
    f = _n_facet(system)
    local = system.cell_dofs[:, f:]
    order = _facet_order(system.u_space)
    ng = len(order)
    stats = {
        "n_global": ng, "n_local_per_cell": local.shape[1], "lu_nnz": 0, "refinement_steps": 0,
        "ordering": "column-nested-dissection", "factor_dtype": "float32", "residuals": [],
    }

    def result(z, res):
        return SolveResult(
            u=Field(system.u_space, z[:n_u]), p=Field(system.p_space, z[n_u:]),
            residual=float(res), stats=stats,
        )

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return result(np.zeros_like(b), 0.0)

    S, facet, B_inv, W, E_gl = _condense(system, order)
    # float64 S is a temporary: only the float32 copy is kept for the LU
    S = S.astype(np.float32)
    try:
        lu = splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.01)
    except MemoryError as exc:
        raise SolverError(
            f"out of memory factoring the condensed matrix (n={ng}, nnz={S.nnz})"
        ) from exc
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    stats["lu_nnz"] = int(lu.nnz)

    def apply_inverse(rhs):
        y_l = np.einsum("eij,ej->ei", B_inv, rhs[local])
        Ey = np.einsum("eij,ej->ei", E_gl, y_l)
        f_g = rhs[order] - np.bincount(facet.ravel(), Ey.ravel(), ng)
        # scaled to unit max so that a small correction stays in float32 range
        scale = np.abs(f_g).max() or 1.0
        x_g = lu.solve((f_g / scale).astype(np.float32)).astype(float) * scale
        z = np.empty(n)
        z[order] = x_g
        z[local] = y_l - np.einsum("eij,ej->ei", W, x_g[facet])
        return z

    # Refinement from z = 0, whose relative residual is 1: each solve with
    # the float32 factor must cut the float64 residual of the full system
    # at least tenfold.
    residuals = stats["residuals"]
    z, r, res = np.zeros(n), b, 1.0
    for step in range(MAX_REFINEMENT_STEPS + 1):
        z = z + apply_inverse(r)
        r = b - system.matvec(z)
        prev, res = res, float(np.linalg.norm(r) / bnorm)
        residuals.append(res)
        if res <= tolerance:
            stats["refinement_steps"] = step
            return result(z, res)
        if not res <= 0.1 * prev:
            break
    history = ", ".join(f"{x:.3e}" for x in residuals)
    raise SolverError(
        f"solve residual {res:.3e} exceeds tolerance {tolerance:.1e} "
        f"after {len(residuals) - 1} refinement steps (residuals {history})"
    )
