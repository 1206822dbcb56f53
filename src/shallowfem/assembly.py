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

``solve`` condenses statically: every V2 DOF and every V1 interior moment
belongs to one cell, so the cell-local block of the matrix is block
diagonal.  Its blocks are inverted in one batch, the Schur complement on
the facet DOFs is factored with SuperLU, and the local DOFs are recovered
cell by cell.  The facet DOFs are first put in a geometric nested-dissection
order (George 1973) computed from the DOF map and the cell centroids, and
SuperLU keeps that order.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry
from .fem import Field, FunctionSpace, default_quadrature_degree, quadrature_prism, tabulate
from .geometry import annulus_coordinates, hedgehog_coordinates, manifold_coordinates

__all__ = [
    "ProblemConfig",
    "LinearSystem",
    "SolveResult",
    "SolverError",
    "assemble",
    "apply_inner_bc",
    "solve",
    "weak_residual",
]


# Largest DOF set that nested dissection leaves unsplit.  LU fill at k=2
# (2,4), k=1 (3,8) and deep k=1 (4,2) is 9.9M, 23.3M and 16.7M with 64;
# 128 gave 10.1M, 26.1M and 16.3M, and 32 gave 9.9M, 23.2M and 15.3M.
ND_LEAF = 64


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
    ``g`` maps them to scalars.  ``quadrature_degree`` defaults to
    ``fem.default_quadrature_degree(k)``.
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

    rule = quadrature_prism(config.degree)
    pts, w = rule.points, rule.weights
    nq = len(w)
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
    phi, psi = tab1.values, tab2.values                      # (nq, nd1, 3), (nq, nd2)
    T = np.einsum("q,qic,qjd->qcdij", w, phi, phi).reshape(9 * nq, nd1 * nd1)
    Tb = (w[:, None, None] * phi).transpose(0, 2, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psi, psi).reshape(nq, nd2 * nd2)
    # det-free divergence coupling: identical on every cell
    D_ref = np.einsum("q,qa,qd->ad", w, psi, tab1.divergences)

    n_fact = 0
    rows, cols, data = [], [], []
    rhs = np.zeros(n)

    for cells, J, pinv4T, x4q in geometry.quadrature_chunks(coords, x4, pts, nd1):
        ch = len(cells)
        n_fact += J.n_factorizations
        JtJ = np.einsum("...ia,...ib->...ab", J.J, J.J)
        gq = config.g(x4q)

        # K = J^T J / det + 2 [omega_hat]x with omega_hat = pinv4 omega4
        K = np.empty((ch, nq, 3, 3))
        np.divide(JtJ, J.det[..., None, None], out=K)
        if config.coriolis_enabled:
            om = 2.0 * (config.omega4(x4q) @ pinv4T)
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
        E[:, :nd1, :nd1] = (K.reshape(ch, 9 * nq) @ T).reshape(ch, nd1, nd1)
        E[:, :nd1, nd1:] = -D_ref.T
        E[:, nd1:, :nd1] = D_ref
        E[:, nd1:, nd1:] = -(wdet @ Tp).reshape(ch, nd2, nd2)
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
    of the condensed matrix), ``refinement_steps`` and ``ordering`` (the
    column order of the condensed matrix, always ``"nested-dissection"``).
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


def _bisect(xyz, cell_ids, ids, cells):
    """Split the facet DOFs ``ids`` at the median of their widest axis.

    ``xyz`` holds each facet DOF's position and ``cell_ids`` each cell's
    facet DOFs as indices into ``xyz`` (-1 for its other DOFs); ``cells``
    are the cells that own a DOF of ``ids``.  The separator is the low-side
    DOFs of the cells that also own a high-side DOF, so the two halves share
    no cell.  Returns ``(low, low_cells), (high, high_cells), sep``.
    """
    x = xyz[ids]
    t = x[:, np.ptp(x, axis=0).argmax()]
    # -1 marks DOFs outside ids; the extra last entry is read by cell_ids == -1
    side = np.full(len(xyz) + 1, -1, dtype=np.int8)
    side[ids] = t >= np.median(t)
    owned = side[cell_ids[cells]]
    straddle = (owned == 0).any(axis=1) & (owned == 1).any(axis=1)
    sep = np.unique(cell_ids[cells[straddle]][owned[straddle] == 0])
    side[sep] = -1
    owned = side[cell_ids[cells]]
    low, high = (
        (ids[side[ids] == s], cells[(owned == s).any(axis=1)]) for s in (0, 1)
    )
    return low, high, sep


def _dof_positions(cell_dofs, centroids, glob):
    """Positions of the facet DOFs ``glob`` and each cell's facet DOFs.

    Returns ``(xyz, cell_ids)``: ``xyz[i]`` is the mean centroid of the cells
    that own ``glob[i]``, and ``cell_ids`` is ``cell_dofs`` with each facet
    DOF replaced by its index into ``glob`` and every other DOF by -1.
    """
    ng = len(glob)
    index = np.full(cell_dofs.max() + 1, -1)
    index[glob] = np.arange(ng)
    cell_ids = index[cell_dofs]
    owner, slot = np.nonzero(cell_ids >= 0)
    dof = cell_ids[owner, slot]
    count = np.bincount(dof, minlength=ng)
    xyz = np.stack(
        [np.bincount(dof, centroids[owner, a], ng) / count for a in range(3)], axis=1
    )
    return xyz, cell_ids


def _nested_dissection(cell_dofs, centroids, glob):
    """``glob`` (the facet DOFs) in geometric nested-dissection order.

    Two facet DOFs couple in the Schur complement only if they share a cell,
    so the order is built from ``cell_dofs`` and the cell centroids before
    the matrix exists (see ``_dof_positions``).  Sets are split by
    ``_bisect`` until they hold at most ``ND_LEAF`` DOFs, and each separator
    is ordered after its two halves.
    """
    xyz, cell_ids = _dof_positions(cell_dofs, centroids, glob)
    order = []

    def dissect(ids, cells):
        if len(ids) > ND_LEAF:
            (low, low_cells), (high, high_cells), sep = _bisect(xyz, cell_ids, ids, cells)
            if 0 < len(high) < len(ids):
                dissect(low, low_cells)
                dissect(high, high_cells)
                order.append(sep)
                return
        order.append(ids)

    dissect(np.arange(len(glob)), np.arange(len(cell_dofs)))
    return glob[np.concatenate(order)]


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    The cell-local DOFs (see ``_cell_local_dofs``) are eliminated through the
    inverses of their per-cell blocks B; SuperLU factors the Schur complement
    S = A_gg - A_gl B^-1 A_lg on the remaining facet DOFs, which are put in
    nested-dissection order (``_nested_dissection``) before S is formed;
    SuperLU keeps that column order and relaxes diagonal pivoting to a
    threshold of 0.01 so that row swaps do not undo it.  The residual is
    measured on the full ``system.matrix``.  One step of iterative
    refinement is applied if the first residual misses the tolerance.

    Raises SolverError when the cell-local block couples two cells, when a
    cell block is singular, when SuperLU fails or runs out of memory, and
    when the residual misses the tolerance after refinement.
    """
    A, b = system.matrix, system.rhs
    n, n_u = A.shape[0], system.n_u
    local = _cell_local_dofs(system)
    nc, nl = local.shape
    local = local.ravel()
    is_local = np.zeros(n, dtype=bool)
    is_local[local] = True
    u = system.u_space
    glob = _nested_dissection(
        u.cell_dofs, u.mesh.cell_node_coords().mean(axis=1), np.flatnonzero(~is_local)
    )
    ng = len(glob)
    stats = {
        "n_global": ng, "n_local_per_cell": nl, "lu_nnz": 0, "refinement_steps": 0,
        "ordering": "nested-dissection",
    }

    def result(z, res):
        return SolveResult(
            u=Field(system.u_space, z[:n_u]), p=Field(system.p_space, z[n_u:]),
            residual=float(res), stats=stats,
        )

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return result(np.zeros_like(b), 0.0)

    # [global | local] ordering, local DOFs grouped by cell
    perm = np.concatenate([glob, local])
    Ap = A.tocsr()[perm][:, perm]
    A_ll = Ap[ng:, ng:].tocoo()
    A_ll.sum_duplicates()
    nz = A_ll.data != 0.0
    r, c, v = A_ll.row[nz], A_ll.col[nz], A_ll.data[nz]
    if (r // nl != c // nl).any():
        raise SolverError("cell-local block couples DOFs of different cells")
    B = np.zeros((nc, nl, nl))
    B[r // nl, r % nl, c % nl] = v
    try:
        B_inv = np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cell-local block inversion failed: {exc}") from exc
    B_inv = sp.bsr_matrix(
        (B_inv, np.arange(nc), np.arange(nc + 1)), shape=(nc * nl, nc * nl)
    ).tocsr()
    A_gl = Ap[:ng, ng:]
    W = B_inv @ Ap[ng:, :ng]                                 # B^-1 A_lg
    S = (Ap[:ng, :ng] - A_gl @ W).tocsc()
    del Ap, A_ll                     # free the permuted copy before the LU
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
        x_g = lu.solve(rhs[glob] - A_gl @ y_l)
        z = np.empty(n)
        z[glob] = x_g
        z[local] = y_l - W @ x_g
        return z

    z = apply_inverse(b)
    res = np.linalg.norm(A @ z - b) / bnorm
    if res > tolerance:
        z = z + apply_inverse(b - A @ z)
        res = np.linalg.norm(A @ z - b) / bnorm
        stats["refinement_steps"] = 1
    if not np.isfinite(res) or res > tolerance:
        raise SolverError(f"solve residual {res:.3e} exceeds tolerance {tolerance:.1e}")
    return result(z, res)


def weak_residual(system: LinearSystem, result: SolveResult) -> float:
    """Max weak-form defect |a(z; w) - L(w)| over non-essential test DOFs."""
    z = np.concatenate([result.u.coeffs, result.p.coeffs])
    r = system.matrix @ z - system.rhs
    if len(system.essential):
        r[system.essential] = 0.0
    return float(np.abs(r).max())
