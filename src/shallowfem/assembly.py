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
basis.  Shallow mode broadcasts J and det from the centroid, deep mode
samples them per point (``geometry.quadrature_jacobian``).

``solve`` condenses statically: every V2 DOF and every V1 interior moment
belongs to one cell, so the cell-local block of the matrix is block
diagonal.  Its blocks are inverted in one batch, the Schur complement on
the facet DOFs is factored with SuperLU, and the local DOFs are recovered
cell by cell.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry
from .fem import Field, FunctionSpace, quadrature_prism, tabulate
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


class SolverError(Exception):
    """Linear solve failed to meet the residual contract."""


def _default_omega(x4):
    """Traditional-approximation rotation: (0, 0, 0, x3 / 2)."""
    out = np.zeros(x4.shape)
    out[..., 3] = 0.5 * x4[..., 2]
    return out


@dataclass
class ProblemConfig:
    """Coefficients and discretisation choices for one solve.

    ``omega4``, ``f4`` map batches of 4D points to tangent 4-vectors;
    ``g`` maps them to scalars.  ``quadrature_degree`` defaults to 2k + 8,
    generous enough that the manufactured forcing integrates exactly.
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
            self.omega4 = _default_omega
        if self.f4 is None:
            self.f4 = lambda x4: np.zeros(x4.shape)
        if self.g is None:
            self.g = lambda x4: np.zeros(x4.shape[:-1])

    @property
    def degree(self) -> int:
        return self.quadrature_degree if self.quadrature_degree is not None else 2 * self.k + 8


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
    nbasis = geometry.nodal_basis(pts)                       # (nq, 6)

    nc = mesh.n_cells
    n_u, n_p = u_space.n_dofs, p_space.n_dofs
    n = n_u + n_p

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

    chunk = max(1, int(3e6 / (nq * nd1)))
    for start in range(0, nc, chunk):
        cells = np.arange(start, min(start + chunk, nc))
        ch = len(cells)

        J = geometry.quadrature_jacobian(coords, cells, pts)  # (ch, 1 or nq, 3, 3)
        n_fact += J.n_factorizations
        JtJ = np.einsum("...ia,...ib->...ab", J.J, J.J)
        J4 = geometry.jacobian4(x4, cells, geometry.CENTROID)  # (ch, 1, 4, 3)
        pinv4, _ = geometry.pseudo_inverse_pseudo_det(J4)
        pinv4T = np.swapaxes(pinv4[:, 0], 1, 2)                # (ch, 4, 3)

        x4q = nbasis @ x4[cells]                             # (ch, nq, 4)
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
        A_uu = (K.reshape(ch, 9 * nq) @ T).reshape(ch, nd1, nd1)
        fhat = geometry.matvec3(JtJ, config.f4(x4q) @ pinv4T)
        b_u = fhat.reshape(ch, 3 * nq) @ Tb

        wdet = w * J.det                                     # (ch, nq)
        M_p = wdet @ Tp
        b_p = (wdet * gq) @ psi

        gd1 = u_space.cell_dofs[cells]
        sg1 = u_space.cell_signs[cells]
        gd2 = p_space.cell_dofs[cells] + n_u

        A_uu *= sg1[:, :, None] * sg1[:, None, :]
        rows.append(np.repeat(gd1, nd1, axis=1).ravel())
        cols.append(np.tile(gd1, (1, nd1)).ravel())
        data.append(A_uu.ravel())

        Ds = sg1[:, None, :] * D_ref[None, :, :]             # (ch, nd2, nd1)
        rows.append(np.repeat(gd2, nd1, axis=1).ravel())
        cols.append(np.tile(gd1, (1, nd2)).ravel())
        data.append(Ds.ravel())

        rows.append(np.repeat(gd1, nd2, axis=1).ravel())
        cols.append(np.tile(gd2, (1, nd1)).ravel())
        data.append(-np.swapaxes(Ds, 1, 2).ravel())

        rows.append(np.repeat(gd2, nd2, axis=1).ravel())
        cols.append(np.tile(gd2, (1, nd2)).ravel())
        data.append(-M_p.ravel())

        np.add.at(rhs, gd1.ravel(), (b_u * sg1).ravel())
        np.add.at(rhs, gd2.ravel(), b_p.ravel())

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
    of the condensed matrix) and ``refinement_steps``.
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


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    The cell-local DOFs (see ``_cell_local_dofs``) are eliminated through the
    inverses of their per-cell blocks B; SuperLU factors the Schur complement
    S = A_gg - A_gl B^-1 A_lg on the remaining facet DOFs.  The residual is
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
    glob = np.flatnonzero(~is_local)
    ng = len(glob)
    stats = {"n_global": ng, "n_local_per_cell": nl, "lu_nnz": 0, "refinement_steps": 0}

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
        lu = splu(S)
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
