"""Assembly and solution of the mixed velocity-pressure system.

Discretises

    u + 2 Omega x u = -grad p + F,      div u - p = g

on the spherical annulus with V1 x V2 prism elements.  The weak form gives
the block system [[M + C, -D^T], [D, -M_p]].  Coefficient providers are
functions of the 4D manifold coordinate; vector data (Omega, F) is pushed
into the active 3D frame through the per-cell map chi_e, so the same
providers serve both modes:

  * shallow: hedgehog coordinates, one Jacobian factorization per cell
    (the map is affine);
  * deep: continuous annulus coordinates, one factorization per
    quadrature point.

The div(w) p coupling uses the Piola identity div v = dhat / det J, so the
determinants cancel and D reduces to a single reference matrix shared by
every cell.

The velocity block uses the tensor representation (Kirby & Logg 2006).
With physical basis J phi / det and Omega_3 = J pinv4 omega4 pushed through
chi_e, the integrand of M + C at a point is phi_i . K phi_j, where

    K = J^T J / det + 2 [omega_hat]x,      omega_hat = pinv4 omega4.

The cross term carries no J and no det because (Ja) x (Jb) = det J J^-T
(a x b) and J^-1 (J pinv4) = pinv4; both hold at every point, so one formula
serves both modes.  The reference tensors T[(q,c,d),(i,j)] = w_q phi_ic
phi_jd and Tb[(q,c),i] = w_q phi_ic are tabulated once per call, and each
chunk of cells is a GEMM: A_uu = K @ T and b_u = fhat @ Tb with
fhat = J^T J pinv4 f4.  M_p and b_p are GEMMs of w det against the V2
basis.  Each chunk of cells comes from ``geometry.quadrature_chunks``:
shallow mode broadcasts J and det from the centroid, deep mode samples them
per point.  The blocks of a chunk form one mixed cell matrix
E = [[A_uu, -D^T], [D, -M_p]] over each cell's [V1 | V2] DOFs; the
orientation signs s are applied once as E * s s^T, and E and [b_u | b_p] s
are scattered through one global index table.  A facet DOF lies in at most
two cells, so no global entry sums more than two contributions and the CSR
does not depend on the scatter order.

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

``solve`` condenses statically: every V2 DOF and every V1 interior moment
belongs to one cell, so the cell-local block of the matrix is block
diagonal.  Its blocks are inverted in one batch, the Schur complement on
the facet DOFs is formed in float64 and factored with SuperLU in float32,
and the local DOFs are recovered cell by cell.  The facet DOFs are first put
in nested-dissection order over the cells (George 1973): the cells are
bisected by their centroids, each separator is the facet DOFs that both
halves own, and SuperLU keeps that order.  The single precision factor
roughly halves the LU's time and memory; refinement in float64 against the
full matrix (Buttari et al. 2007; Carson & Higham 2018) then brings the
residual to the tolerance, and a step that fails to cut it tenfold is a
SolverError, never a silent fallback to a float64 factor.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry
from .fem import (
    Field, FunctionSpace, default_quadrature_degree, exact_matrix_degree, quadrature_prism,
    tabulate,
)
from .geometry import annulus_coordinates, hedgehog_coordinates, manifold_coordinates

__all__ = [
    "ProblemConfig",
    "LinearSystem",
    "SolveResult",
    "SolverError",
    "assemble",
    "apply_inner_bc",
    "solve",
]


# Most unordered facet DOFs that nested dissection leaves unsplit.  LU fill
# at k=2 (2,4), k=1 (3,8) and deep k=1 (4,2) is 7.41M, 16.06M and 8.67M
# with 32; 64 gave 7.47M, 16.23M and 8.91M, and 128 gave 7.54M, 20.56M and
# 9.27M.  The solve times of 32 and 64 agree within run-to-run noise.
ND_LEAF = 32

# Most refinement steps after the first solve with the float32 factor.  Each
# step scales the residual by about cond(S) 2^-24: 5e-5 at k=2 (2,4) and
# 2e-3 at k=2 (3,8), where three steps reach 1e-10.
MAX_REFINEMENT_STEPS = 10


class SolverError(Exception):
    """Linear solve failed to meet the residual contract."""


def traditional_omega(x4):
    """Traditional-approximation rotation: (0, 0, 0, x3 / 2)."""
    x4 = np.asarray(x4, dtype=float)
    out = np.zeros(x4.shape)
    out[..., 3] = 0.5 * x4[..., 2]
    return out


@dataclass
class ProblemConfig:
    """Coefficients and discretisation choices for one solve.

    ``omega4``, ``f4`` map batches of 4D points to tangent 4-vectors;
    ``g`` maps them to scalars.  The right-hand sides and the deep matrix
    use ``fem.default_quadrature_degree(k)``; the shallow matrix uses the
    exact rule ``fem.exact_matrix_degree(k)``, so there ``omega4`` must be
    affine on each cell (``traditional_omega`` is); ``assemble`` raises
    ValueError for one that differs from its nodal interpolant.
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
            self.f4 = lambda x4: np.zeros(x4.shape)
        if self.g is None:
            self.g = lambda x4: np.zeros(x4.shape[:-1])

    @property
    def degree(self) -> int:
        if self.quadrature_degree is None:
            return default_quadrature_degree(self.k)
        return self.quadrature_degree


@dataclass
class LinearSystem:
    """Assembled block system over [V1 DOFs | V2 DOFs]."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    essential: np.ndarray          # constrained global row indices
    u_space: FunctionSpace
    p_space: FunctionSpace
    stats: dict = field(default_factory=dict)

    @property
    def n_u(self) -> int:
        return self.u_space.n_dofs

    @property
    def n_p(self) -> int:
        return self.p_space.n_dofs


def coordinate_field(config: ProblemConfig, mesh):
    """The coordinate field the mode dictates."""
    if config.mode == "shallow":
        return hedgehog_coordinates(mesh)
    return annulus_coordinates(mesh)


def _check_interpolant(omega, nodal):
    """Reject a rotation that differs from its nodal interpolant.

    The shallow matrix rule is exact only for an omega4 that is affine on
    each cell, as is the prism nodal interpolant; a relative gap above 1e-12
    at the matrix points would be under-integrated.
    """
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
    x4 = manifold_coordinates(mesh)

    # Shallow chunks map the right-hand-side and the matrix points in one
    # pass, so each cell's Jacobian is factored once.
    rule = quadrature_prism(config.degree)
    affine = coords.column_axes is not None
    mrule = quadrature_prism(exact_matrix_degree(config.k)) if affine else rule
    w, wm = rule.weights, mrule.weights
    nq, nm = len(w), len(wm)
    pts = np.vstack([rule.points, mrule.points]) if affine else rule.points
    mq = slice(nq, None) if affine else slice(None)      # the matrix points of pts
    omega_basis = geometry.nodal_basis(mrule.points)
    tab1 = tabulate(u_space.element, pts)
    tab2 = tabulate(p_space.element, pts)
    nd1, nd2 = u_space.element.ndofs, p_space.element.ndofs
    nd = nd1 + nd2

    nc = mesh.n_cells
    n_u, n_p = u_space.n_dofs, p_space.n_dofs
    n = n_u + n_p
    # each cell's [V1 | V2] DOFs in the global [V1 | V2] numbering
    dofs = np.hstack([u_space.cell_dofs, p_space.cell_dofs + n_u])
    signs = np.hstack([u_space.cell_signs, p_space.cell_signs])

    # reference tensors, tabulated once; see the module docstring
    phi, psi = tab1.values[:nq], tab2.values[:nq]            # (nq, nd1, 3), (nq, nd2)
    phim, psim = tab1.values[mq], tab2.values[mq]
    T = np.einsum("q,qic,qjd->qcdij", wm, phim, phim).reshape(9 * nm, nd1 * nd1)
    Tb = (w[:, None, None] * phi).transpose(0, 2, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psim, psim).reshape(nm, nd2 * nd2)
    # det-free divergence coupling: identical on every cell
    D_ref = np.einsum("q,qa,qd->ad", wm, psim, tab1.divergences[mq])

    n_fact = 0
    rows, cols, data = [], [], []
    rhs = np.zeros(n)

    for cells, J, pinv4T, x4q in geometry.quadrature_chunks(coords, x4, pts):
        ch = len(cells)
        n_fact += J.n_factorizations
        x4m, x4q = x4q[:, mq], x4q[:, :nq]
        JtJ = np.einsum("...ia,...ib->...ab", J.J, J.J)
        gq = config.g(x4q)

        # K = J^T J / det + 2 [omega_hat]x with omega_hat = pinv4 omega4
        K = np.empty((ch, nm, 3, 3))
        np.divide(JtJ, J.det[..., None, None], out=K)
        if config.coriolis_enabled:
            om4 = config.omega4(x4m)
            if affine:
                _check_interpolant(om4, omega_basis @ config.omega4(x4[cells]))
            om = 2.0 * (om4 @ pinv4T)
            K[..., 0, 1] -= om[..., 2]
            K[..., 1, 0] += om[..., 2]
            K[..., 0, 2] += om[..., 1]
            K[..., 2, 0] -= om[..., 1]
            K[..., 1, 2] -= om[..., 0]
            K[..., 2, 1] += om[..., 0]
        wdet = w * J.det                                     # (ch, nq)
        fhat = geometry.matvec3(JtJ, config.f4(x4q) @ pinv4T)
        b = np.hstack([fhat.reshape(ch, 3 * nq) @ Tb, (wdet * gq) @ psi])

        E = np.empty((ch, nd, nd))
        E[:, :nd1, :nd1] = (K.reshape(ch, 9 * nm) @ T).reshape(ch, nd1, nd1)
        E[:, :nd1, nd1:] = -D_ref.T
        E[:, nd1:, :nd1] = D_ref
        E[:, nd1:, nd1:] = -((wm * J.det) @ Tp).reshape(ch, nd2, nd2)
        sg, gd = signs[cells], dofs[cells]
        E *= sg[:, :, None] * sg[:, None, :]
        rows.append(np.repeat(gd, nd, axis=1).ravel())
        cols.append(np.tile(gd, (1, nd)).ravel())
        data.append(E.ravel())
        np.add.at(rhs, gd.ravel(), (b * sg).ravel())

    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()

    stats = {
        "n_jacobian_factorizations": n_fact,
        "n_quadrature_points": nq,
        "n_cells": nc,
        "quadrature_degree": config.degree,
        "matrix_quadrature_degree": mrule.degree,
        "n_matrix_quadrature_points": nm,
    }
    return LinearSystem(
        matrix=A, rhs=rhs, essential=np.empty(0, dtype=np.int64),
        u_space=u_space, p_space=p_space, stats=stats,
    )


def apply_inner_bc(system: LinearSystem) -> LinearSystem:
    """Impose u . n = 0 on the inner boundary (outer boundary stays natural).

    Essential rows become identity rows with zero right-hand side; matching
    columns are cleared (the constrained value is zero, so nothing moves to
    the RHS).
    """
    space = system.u_space
    dofs = np.unique(space.hfacet_dofs[space.facets.inner_boundary].ravel())
    n = system.matrix.shape[0]
    keep = np.ones(n)
    keep[dofs] = 0.0
    P = sp.diags(keep)
    ident = sp.coo_matrix((np.ones(len(dofs)), (dofs, dofs)), shape=(n, n))
    A = (P @ system.matrix @ P + ident).tocsr()
    rhs = system.rhs * keep
    return LinearSystem(
        matrix=A, rhs=rhs, essential=dofs,
        u_space=system.u_space, p_space=system.p_space, stats=dict(system.stats),
    )


@dataclass
class SolveResult:
    """Solution fields, the achieved relative residual and solver counts.

    ``stats``: ``n_global`` (order of the condensed matrix),
    ``n_local_per_cell`` (DOFs eliminated per cell), ``lu_nnz`` (SuperLU fill
    of the condensed matrix), ``refinement_steps``, ``ordering`` (the
    column order of the condensed matrix, always ``"nested-dissection"``),
    ``factor_dtype`` (the precision of the LU, always ``"float32"``) and
    ``residuals`` (the relative residual after the first solve and after
    each refinement step; its last entry is ``residual``, and it is empty
    when the right-hand side is zero and nothing is solved).
    """

    u: Field
    p: Field
    residual: float
    stats: dict = field(default_factory=dict)


def _cell_local_dofs(system: LinearSystem) -> np.ndarray:
    """(n_cells, n_local) global indices of the V1 interior and V2 DOFs."""
    u, p = system.u_space, system.p_space
    interior = [i for i, d in enumerate(u.element.dofs) if d.entity[0] == "interior"]
    return np.hstack([u.cell_dofs[:, interior], p.cell_dofs + system.n_u])


def _nested_dissection(cell_dofs, centroids, glob):
    """``glob`` (the facet DOFs) in nested-dissection order over the cells.

    Two facet DOFs couple in the Schur complement only through a shared
    cell, so the order is built from ``cell_dofs`` and the cell centroids
    before the matrix exists (George 1973).  A set of cells is split into two
    halves by rank along the widest axis of its centroids, and the separator
    is the unordered facet DOFs that cells of both halves own; it is ordered
    after the two halves.  A set with at most ``ND_LEAF`` unordered DOFs is
    not split.
    """
    ng = len(glob)
    index = np.full(cell_dofs.max() + 1, ng)
    index[glob] = np.arange(ng)
    cell_ids = index[cell_dofs]          # each cell's facet DOFs, ng elsewhere
    side = np.zeros(ng + 1, dtype=np.int8)   # 1: a low cell owns it, 2: separator
    order = []

    def dissect(cells, ids):
        # ids: the unordered facet DOFs of cells, which no other cell owns
        if len(ids) > ND_LEAF and len(cells) > 1:
            x = centroids[cells]
            rank = np.argsort(x[:, np.ptp(x, axis=0).argmax()], kind="stable")
            low, high = np.split(cells[rank], [len(cells) // 2])
            side[cell_ids[low]] = 1
            sep = cell_ids[high]
            sep = np.unique(sep[side[sep] == 1])
            sep = sep[sep < ng]
            side[sep] = 2
            half = side[ids]
            side[cell_ids[low]] = 0
            dissect(low, ids[half == 1])
            dissect(high, ids[half == 0])
            ids = sep
        order.append(ids)

    dissect(np.arange(len(cell_dofs)), np.arange(ng))
    return glob[np.concatenate(order)]


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    The cell-local DOFs (see ``_cell_local_dofs``) are eliminated through the
    inverses of their per-cell blocks B; SuperLU factors the Schur complement
    S = A_gg - A_gl B^-1 A_lg on the remaining facet DOFs, which are put in
    nested-dissection order over the cells (``_nested_dissection``: each
    separator is the facet DOFs that both halves of a cell bisection own)
    before S is formed; SuperLU factors S in float32, keeps that column
    order and relaxes diagonal pivoting to a threshold of 0.01 so that row
    swaps do not undo it.  S is formed in float64, and the cell-block
    inverses stay in float64; only the facet right-hand side of each solve
    is cast to float32, scaled to unit max, for the triangular solves.  The
    solution is refined from z = 0 (relative residual 1): each step solves
    for the float64 residual b - A z of the full ``system.matrix`` and adds
    the correction, until the relative residual is at most ``tolerance``,
    for at most ``MAX_REFINEMENT_STEPS`` steps after the first solve.

    Raises SolverError when the cell-local block couples two cells, when a
    cell block is singular, when SuperLU fails or runs out of memory, when a
    solve (the first one included) cuts the residual less than tenfold, and
    when the residual misses the tolerance after ``MAX_REFINEMENT_STEPS``
    steps; the last two name the residual history.
    """
    A, b = system.matrix.tocsr(), system.rhs
    n, n_u = A.shape[0], system.n_u
    local = _cell_local_dofs(system)
    nc, nl = local.shape
    local = local.ravel()
    u = system.u_space
    glob = _nested_dissection(
        u.cell_dofs, u.mesh.cell_node_coords().mean(axis=1), np.setdiff1d(np.arange(n), local)
    )
    ng = len(glob)
    stats = {
        "n_global": ng, "n_local_per_cell": nl, "lu_nnz": 0, "refinement_steps": 0,
        "ordering": "nested-dissection", "factor_dtype": "float32", "residuals": [],
    }

    def result(z, res):
        return SolveResult(
            u=Field(system.u_space, z[:n_u]), p=Field(system.p_space, z[n_u:]),
            residual=float(res), stats=stats,
        )

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return result(np.zeros_like(b), 0.0)

    # the cell-local rows, grouped by cell, and the facet rows
    A_l, A_g = A[local], A[glob]
    # B = A_ll as one (nl, nl) block per cell, inverted in place below
    B_inv = A_l[:, local].tobsr(blocksize=(nl, nl))
    B_inv.eliminate_zeros()
    if not (np.array_equal(B_inv.indptr, np.arange(nc + 1))
            and np.array_equal(B_inv.indices, np.arange(nc))):
        raise SolverError("cell-local block couples DOFs of different cells")
    try:
        B_inv.data[:] = np.linalg.inv(B_inv.data)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cell-local block inversion failed: {exc}") from exc
    A_gl = A_g[:, local]
    W = B_inv @ A_l[:, glob]                                 # B^-1 A_lg
    # float64 S is a temporary: only the float32 copy is kept for the LU
    S = (A_g[:, glob] - A_gl @ W).tocsc().astype(np.float32)
    del A_l, A_g                     # free the row copies before the LU
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
        y_l = B_inv @ rhs[local]
        f_g = rhs[glob] - A_gl @ y_l
        # scaled to unit max so that a small correction stays in float32 range
        scale = np.abs(f_g).max() or 1.0
        x_g = lu.solve((f_g / scale).astype(np.float32)).astype(float) * scale
        z = np.empty(n)
        z[glob] = x_g
        z[local] = y_l - W @ x_g
        return z

    # Refinement from z = 0, whose relative residual is 1: each solve with
    # the float32 factor must cut the float64 residual of the full system
    # at least tenfold.
    residuals = stats["residuals"]
    z, r, res = np.zeros(n), b, 1.0
    for step in range(MAX_REFINEMENT_STEPS + 1):
        z = z + apply_inverse(r)
        r = b - A @ z
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
