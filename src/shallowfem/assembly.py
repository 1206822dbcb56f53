"""Assembly and solution of the mixed velocity-pressure system.

Discretises

    u + 2 Omega x u = -grad p + F,      div u - p = g

on the spherical annulus with V1 x V2 prism elements.  The weak form gives
the block system [[M + C, -D^T], [D, -M_p]].  Coefficient providers are
functions of the 4D manifold coordinate, called with the coordinate planes
of ``geometry.quadrature_chunks``, which broadcast over (cells, interval
points, triangle points) in the order of the rule's points, so every
(ch, nz, nt) plane reshapes to the GEMMs' (ch, points); the forcing F is
pulled into the active frame through the per-cell map chi_e, so the same
providers serve both modes.  Both assemble on the chart
``manifold_coordinates`` in R^4, as the paper writes the equations, and
read only its metric G and det:

  * shallow: the restricted Euclidean metric; the map is affine, so
    G = J4^T J4 and det, the pseudodeterminant, come once per cell (the
    hedgehog mesh, the tests' oracle, has the same J^T J and det);
  * deep: the metric phi pulls back from R^3, the annulus prism's, whose G
    and det vary over the cell and come in closed form.

The div(w) p coupling uses the Piola identity div v = dhat / det J, so the
determinants cancel and D reduces to a single reference matrix shared by
every cell.

The velocity block uses the tensor representation (Kirby & Logg 2006).
The rotation is the traditional one, omega_4 i4 along the extrusion axis,
the only part of the rotation the shallow approximation keeps (White et al.
2005), so a rotation provider returns the scalar field omega_4.  With
physical basis J phi / det and Omega_3 = J pinv4 (omega_4 i4) pushed
through chi_e, the integrand of M + C at a point is phi_i . K phi_j, where

    K = G / det + 2 [omega_hat]x,      G = J^T J,  omega_hat = pinv4 (omega_4 i4).

The cross term carries no J and no det because (Ja) x (Jb) = det J J^-T
(a x b) and J^-1 (J pinv4) = pinv4; both hold at every point, so one formula
serves both modes.  Rows 0 and 1 of pinv4 hold 0 in the i4 column and row
2 is (0, 0, 0, 1 / dh), so omega_hat = (0, 0, omega_4 / dh).  The
symmetric part pairs the six planes of G / det with
T_sym[(s,q),(i,j)] = w_q (phi_ic phi_jd + phi_id phi_jc) over the entries
s = (c, d) of ``geometry.METRIC_PAIRS`` (one term when c = d), and the
rotation plane 2 omega_4 / dh pairs with
T_anti[q,(i,j)] = w_q (phi_j x phi_i)_2.  Both, and
Tb[(c,q),i] = w_q phi_ic, are formed once per call from the rules and basis
tables of ``fem.reference_tables``, which are built once per degree and
shared with the error norms.  T_uu = [T_sym; T_anti] (1.6 MB at k=2) is not
cached with them: alive between calls, it sits under every level's LU
factor, where the memory peaks, and the k=2 ladder's peak RSS rose with it.
Each chunk of cells is a GEMM:

    A_uu = [G / det | 2 omega_4 / dh] @ [T_sym; T_anti],    b_u = fhat @ Tb,

with fhat = G pinv4 f4 formed on planes.  On the chart the per-cell G and
det broadcast over the points, so one path serves both modes.  M_p and b_p
are GEMMs of w det against the V2 basis.  The blocks of a chunk of
``geometry.quadrature_chunks`` form one mixed cell matrix
E = [[A_uu, -D^T], [D, -M_p]] over each cell's [V1 | V2] DOFs; the
orientation signs s are applied once as E * s s^T, the signed E of all
cells are kept as one (n_cells, nd, nd) array, and the rows [b_u | b_p] s
as one (n_cells, nd) array that one ``np.bincount`` scatters into the
right-hand side, in cell order.  No global matrix is built on the solve
path; ``LinearSystem.matrix`` is the tests' oracle.

The inner boundary condition u . n = 0 is written into the cell matrices
by ``apply_inner_bc``, so the solver, its residual and the oracle all read
one operator.

One quadrature policy serves both modes, which differ only in their metric.
The right-hand sides use ``fem.default_quadrature_degree(k)``, degree 9
(95 points) at k=1 and 12 (343 points) at k=2, exact in zeta on the shallow
forcing, and E ``fem.exact_matrix_degree(k)`` = 2k + 1, (k + 1)^3 points;
``quadrature_chunks`` maps both in one pass.
On the chart E's integrand is a polynomial of that degree.  On the annulus
det J varies only across the layer (a top face is its bottom face scaled)
and G / det is rational in zeta with parameter dr / r, a quadrature error
(Ciarlet 1978, 4.1) that falls as the layers thin.  omega_4 is read once,
at the chart's nodes, and the rotation plane is 2 / dh times its prism
interpolant, in P1 x P1, so the rule integrates the rotation term exactly
for any omega_4.

``solve`` condenses statically from the cell matrices: every V2 DOF and
every V1 interior moment belongs to one cell, so all cells are condensed in
one batched dense pass, the leaf level of the element multifrontal method
(Duff & Reid 1983); a row of ``cell_dofs`` is [facet | local], so each
cell's blocks are slices of its matrix.  SuperLU factors the facet Schur
complement, scaled by an exact power of two, in float32, in a column
order: the horizontal-facet DOFs, which couple only inside one column of
prisms, come first, so SuperLU eliminates them as independent column
blocks; the vertical-facet DOFs follow in nested-dissection order over
the columns (George 1973), so the dissection splits only the 2D graph of
columns, one tree level at a time, and keeps its separator tree (Liu
1990).  Refinement in float64 (Buttari et al. 2007; Carson & Higham 2018)
brings the residual to the tolerance; a step that fails to cut it tenfold
is a SolverError, never a silent fallback to a float64 factor.
"""

import ctypes
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import geometry
from .fem import Field, FunctionSpace, default_quadrature_degree, reference_tables
from .geometry import manifold_coordinates

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

# SuperLU's panel width w (its default is 20).  The factor's panel work
# arrays take about 12 bytes per facet unknown per panel column, and w does
# not move the fill.  Factor RSS rise (fresh process) and median time (21
# factors alternating in one process, one BLAS thread) at w = 4, 6, 8, 10,
# 12, 16, 20: k=2 (2,4) 42.3, 42.6, 42.9, 43.4, 43.7, 44.5, 45.2 MiB and
# 225, 230, 225, 227, 212, 213, 214 ms; deep (4,2) 34.9, 35.9, 37.0, 38.1,
# 39.1, 41.2, 43.3 MiB and 153, 154, 152, 156, 153, 150, 152 ms.  k=2 (3,8)
# rose 794-817 MiB; there 6 and 8 factored 27 % and 10 % slower than 20,
# 10 lost 25 of 34 alternating pairs to 20, and 12 won 11 of 16.
PANEL_SIZE = 12

# Most refinement steps after the first solve with the float32 factor.  Each
# step scales the residual by about cond(S) 2^-24: 1e-5 at k=2 (2,4) and
# 3e-5 at k=2 (3,8), where two steps reach 1e-10.
MAX_REFINEMENT_STEPS = 10

# ``solve`` scales the float32 system by 2^e, so that S's largest entry lies
# in [2^109, 2^110): float32 subnormals made the Earth shell's factor 18x
# slower than at a = 1.  U's largest entry was at most 2^8 above S's (the
# strong-rotation test, 689 rows swapped; at most 2^0 with no row swapped)
# and the forward solve's at most 2^4.5 above 2^e, so 10 binary orders are
# left below float32's largest, 2^128.
FACTOR_TOP_LOG2 = 110


class SolverError(Exception):
    """Linear solve failed to meet the residual contract."""


def traditional_omega(x4):
    """Traditional-approximation rotation rate omega_4 = x3 / 2, a plane of
    the points' shape (see ``geometry.point_shape``)."""
    return 0.5 * geometry.coordinate_planes(x4)[2]


def _zeros(x4, *tail):
    """Zeros of the points' shape (see ``geometry.point_shape``) plus ``tail``."""
    return np.zeros(geometry.point_shape(geometry.coordinate_planes(x4)) + tail)


@dataclass
class ProblemConfig:
    """Coefficients and discretisation choices for one solve.

    ``f4`` maps batches of 4D points to tangent 4-vectors, (..., 4);
    ``omega4`` and ``g`` map them to scalars, (...).  Assembly calls them with
    the solver-point map's coordinate planes, a tuple (x1, x2, x3, h) whose
    planes broadcast over (cells, interval points, triangle points), x1, x2,
    x3 varying with the triangle point, (cells, 1, nt), and h with the
    interval point, (cells, nz, 1), so a provider's horizontal work runs
    once per triangle point and its mixed products loop innermost over the
    triangle points; the result's leading axes need only broadcast against
    them.  Read the planes with ``geometry.coordinate_planes``, which also
    takes a (..., 4) array (as the finite-difference oracles and the tests
    pass).  ``omega4`` gives omega_4 of the traditional rotation omega_4 i4,
    the rotation along the extrusion axis that the shallow approximation
    keeps: ``assemble`` reads it once, at the chart's nodes, planes
    (n_cells, 6), and interpolates it (see the module docstring).  A result
    that does not broadcast to (n_cells, 6), such as the vector (..., 4), is
    a ValueError, raised before the forcing is read.
    ``coriolis_enabled=False`` replaces it with zero.
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
        if not self.coriolis_enabled:
            self.omega4 = _zeros
        elif self.omega4 is None:
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


def coordinate_field(config: ProblemConfig, mesh) -> np.ndarray:
    """The coordinate field (n_cells, 6, dim): the chart in R^4 for shallow
    mode, the annulus in R^3 for deep mode."""
    if config.mode == "shallow":
        return manifold_coordinates(mesh)
    return mesh.cell_node_coords()


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
    x4 = manifold_coordinates(mesh)
    tables = reference_tables(config.k, config.quadrature_degree)
    rule, mrule = tables.rule, tables.matrix_rule
    w, wm = rule.weights, mrule.weights
    nq, nm = len(w), len(wm)
    omega_basis = geometry.nodal_basis(mrule.points)
    omega = config.omega4(geometry.coordinate_planes(x4))
    try:
        omega_nodes = np.broadcast_to(omega, x4.shape[:-1])
    except ValueError:
        raise ValueError(
            f"omega4 must return the scalar omega_4, broadcasting to the chart nodes' "
            f"shape {x4.shape[:-1]}, but returned shape {np.shape(omega)}") from None
    tab1, tab1m = tables.v1, tables.matrix_v1
    psi, psim = tables.v2.values, tables.matrix_v2.values
    nd1, nd2 = u_space.element.ndofs, p_space.element.ndofs
    nd = nd1 + nd2

    nc = mesh.n_cells
    system = LinearSystem(
        cell_matrices=np.empty((nc, nd, nd)), rhs=np.zeros(u_space.n_dofs + p_space.n_dofs),
        u_space=u_space, p_space=p_space,
    )
    dofs = system.cell_dofs
    signs = np.hstack([u_space.cell_signs, p_space.cell_signs])

    # reference tensors, formed once per call; see the module docstring
    phim = tab1m.values                                          # (nm, nd1, 3)
    T = np.einsum("q,qic,qjd->cdqij", wm, phim, phim)
    T_sym = [T[c, d] + T[d, c] if c != d else T[c, c] for c, d in geometry.METRIC_PAIRS]
    T_uu = np.concatenate(T_sym + [T[1, 0] - T[0, 1]]).reshape(7 * nm, nd1 * nd1)
    Tb = (w[:, None, None] * tab1.values).transpose(2, 0, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psim, psim).reshape(nm, nd2 * nd2)
    # det-free divergence coupling: identical on every cell
    D_ref = np.einsum("q,qa,qd->ad", wm, psim, tab1m.divergences)
    w, wm = rule.tensor_weights, mrule.tensor_weights

    b_cells = np.empty((nc, nd))
    n_fact = 0
    for cells, (q, m) in geometry.quadrature_chunks(x4, config.mode, rule, mrule):
        ch = len(cells)
        run = slice(cells[0], cells[0] + ch)                # chunks are runs of cells
        n_fact += q.n_factorizations

        # [G / det | 2 omega_4 / dh] planes, omega_4 from its nodal interpolant
        K = np.empty((ch, 7) + m.shape[1:])
        for i, g in enumerate(m.G):
            np.divide(g, m.det, out=K[:, i])
        om = (omega_nodes[cells] @ omega_basis.T).reshape(m.shape)
        np.multiply(2.0 * m.pinv4[:, 2, 3, None, None], om, out=K[:, 6])
        fhat = np.empty((ch, 3) + q.shape[1:])
        for i, v in enumerate(q.lower(q.pull(config.f4(q.x)))):
            fhat[:, i] = v
        wdet_g = np.broadcast_to(w * q.det * config.g(q.x), q.shape).reshape(ch, nq)
        b = b_cells[run]
        b[:, :nd1] = fhat.reshape(ch, 3 * nq) @ Tb
        b[:, nd1:] = wdet_g @ psi

        E = system.cell_matrices[run]
        E[:, :nd1, :nd1] = (K.reshape(ch, -1) @ T_uu).reshape(ch, nd1, nd1)
        E[:, :nd1, nd1:] = -D_ref.T
        E[:, nd1:, :nd1] = D_ref
        wdet = np.broadcast_to(wm * m.det, m.shape).reshape(ch, nm)
        E[:, nd1:, nd1:] = -(wdet @ Tp).reshape(ch, nd2, nd2)
        sg = signs[cells]
        E *= sg[:, :, None] * sg[:, None, :]
        b *= sg
    system.rhs = np.bincount(dofs.ravel(), b_cells.ravel(), len(system.rhs))

    system.stats = {
        "n_jacobian_factorizations": n_fact,
        "n_quadrature_points": nq,
        "n_cells": nc,
        "quadrature_degree": rule.degree,
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
    moves to the RHS).  The input system is left unchanged.  Dropping these
    DOFs from S instead raised deep (4,2) LU fill from 4.79M to 12.72M under
    SuperLU's default relaxed supernodes; the deep (3,1) fill test catches it.
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
    of the condensed matrix), ``rows_swapped`` (the rows SuperLU's partial
    pivoting moved, the entries of ``perm_r`` off the identity: with none
    the fill depends only on the pattern), ``refinement_steps``,
    ``factor_scale_log2`` (the e of the factor's 2^e scaling; 0 when nothing
    is factored), ``ordering`` (the column order of the condensed matrix, always
    ``"column-nested-dissection"``: see ``_facet_order``),
    ``separator_tree_depth`` (the levels of that dissection's separator tree
    below its root, ``SeparatorTree.depth``), ``largest_separator`` (the
    vertical-facet DOFs of its largest separator; 0 when no box is split),
    ``factor_dtype`` (the precision of the LU, always ``"float32"``),
    ``panel_size`` (SuperLU's panel width, always ``PANEL_SIZE``, also when
    nothing is factored) and
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


class SeparatorTree(NamedTuple):
    """The nested-dissection order of the vertical-facet DOFs and its
    separator tree, the elimination tree of the column boxes (Liu 1990).

    Nodes are numbered in post-order, so every child comes before its
    parent and a subtree is a run of nodes ending at its root.  Node i holds
    the DOFs ``order[bounds[i]:bounds[i + 1]]``, ascending: a leaf the
    unsplit DOFs of its box of columns, an inner node the separator of its
    box's two halves.  ``parent[i]`` is -1 at the root, the last node.
    ``column_leaf`` gives each column's leaf and ``depth`` the levels below
    the root.
    """

    order: np.ndarray
    parent: np.ndarray
    bounds: np.ndarray
    column_leaf: np.ndarray
    depth: int


def _nested_dissection(column_facets, centroids) -> SeparatorTree:
    """The vertical-facet DOFs 0 ... nv-1 in nested-dissection order over
    the columns, with its separator tree.

    Two vertical-facet DOFs couple in the Schur complement, once the
    horizontal-facet DOFs are eliminated, only through a shared column, so
    the order is built from each column's vertical-facet DOFs and the
    centroid of its base triangle before the matrix exists (George 1973).
    A box of columns is split into two halves by stable rank along the
    widest axis of its centroids, and its separator is the pending DOFs (those
    whose one or two owning columns all lie in the box) whose owners land
    in different halves; it is ordered after the two halves.  A box with at
    most ``ND_LEAF`` pending DOFs, or one column, is a leaf.  Every box of a
    tree level is split in one pass of numpy calls: one ``np.lexsort`` of
    all their columns, the box first and the centroid along the box's own
    axis next, so that ties keep the order of the parent's halves.
    """
    ncol, width = column_facets.shape
    nv = column_facets.max() + 1
    facets, owner = column_facets.ravel(), np.repeat(np.arange(ncol), width)
    first, last = np.full(nv, ncol), np.full(nv, -1)   # each DOF's owning columns
    np.minimum.at(first, facets, owner)
    np.maximum.at(last, facets, owner)

    # nodes are numbered level by level here; a level's boxes are top ... n_nodes-1
    box = np.zeros(ncol, dtype=np.int64)               # each column's box
    node = np.empty(nv, dtype=np.int64)                # each DOF's node
    parent = np.full(2 * ncol, -1)
    cols, pending = np.arange(ncol), np.arange(nv)     # the level's columns, box by box
    levels, top, n_nodes = [], 0, 1
    while True:
        cb, db = box[cols] - top, box[first[pending]] - top
        n_cols = np.bincount(cb, minlength=n_nodes - top)
        split = (np.bincount(db, minlength=n_nodes - top) > ND_LEAF) & (n_cols > 1)
        leaf = ~split[db]
        node[pending[leaf]] = db[leaf] + top
        pending = pending[~leaf]
        if not split.any():
            break
        keep = split[cb]
        cols, cb = cols[keep], (np.cumsum(split) - 1)[cb[keep]]
        n = n_cols[split]
        starts = np.cumsum(n) - n
        x = centroids[cols]
        axis = (np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)).argmax(axis=1)
        cols = cols[np.lexsort((x[np.arange(len(cols)), axis[cb]], cb))]
        high = np.arange(len(cols)) - starts[cb] >= (n // 2)[cb]
        box[cols] = n_nodes + 2 * cb + high
        boxes = np.flatnonzero(split) + top
        parent[n_nodes:n_nodes + 2 * len(boxes)] = np.repeat(boxes, 2)
        a = box[first[pending]]
        sep = a != box[last[pending]]
        node[pending[sep]] = parent[a[sep]]
        pending = pending[~sep]
        levels.append((boxes, n_nodes))
        top, n_nodes = n_nodes, n_nodes + 2 * len(boxes)

    # post-order: a subtree's nodes start where its low child's do
    size = np.ones(n_nodes, dtype=np.int64)
    for p, c in reversed(levels):
        low = c + 2 * np.arange(len(p))
        size[p] += size[low] + size[low + 1]
    start = np.zeros(n_nodes, dtype=np.int64)
    for p, c in levels:
        low = c + 2 * np.arange(len(p))
        start[low] = start[p]
        start[low + 1] = start[p] + size[low]
    post = start + size - 1
    rank = post[node]
    tree_parent = np.full(n_nodes, -1)
    tree_parent[post[1:]] = post[parent[1:n_nodes]]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rank, minlength=n_nodes))])
    order = np.argsort(rank, kind="stable")
    return SeparatorTree(order, tree_parent, bounds, post[box], len(levels))


def _facet_order(u: FunctionSpace):
    """The facet DOFs 0 ... ng-1 in the order SuperLU factors them, and the
    vertical ones' ``SeparatorTree``: every horizontal-facet DOF (nv ...
    ng-1), which couples only inside its column, then the vertical-facet
    DOFs 0 ... nv-1 by ``_nested_dissection`` over the columns.  Cells are
    numbered column-major, so a column's
    vertical-facet DOFs are a reshape of its cells' ``"quad"`` DOFs.  The
    columns' centroids come from the base mesh's unscaled ``directions``:
    the icosahedral mesh has exact coordinate ties, which centroids of the
    scaled vertices break by rounding differently at some radii, so the
    order, and with it the LU fill, is the same at every radius."""
    base = u.mesh.base
    quad = [d.entity[0] == "quad" for d in u.element.dofs]
    columns = u.cell_dofs[:, quad].reshape(base.n_triangles, -1)
    nv = u.vfacet_dofs.size
    horizontal = np.arange(nv, nv + u.hfacet_dofs.size)
    centroids = base.directions[base.triangles].mean(axis=1)
    tree = _nested_dissection(columns, centroids)
    return np.concatenate([horizontal, tree.order]), tree


def _condense(system: LinearSystem, order: np.ndarray):
    """Condense every cell's local (l) DOFs onto its facet (g) DOFs.

    E_gg, E_gl, E_lg and E_ll are slices of each cell matrix at f.  Per
    cell: B^-1 = E_ll^-1 and S_e = E_gg - E_gl (B^-1 E_lg).  Returns S = sum
    of the S_e, a float64 CSC in the facet order ``order``; the cells' facet
    DOFs as positions in ``order``; and B^-1.  B^-1 E_lg, which ``solve``
    needs only after the factor, is a temporary here, so that it is not
    alive across the factor.
    """
    f = _n_facet(system)
    E = system.cell_matrices
    try:
        B_inv = np.linalg.inv(E[:, f:, f:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cell-local block inversion failed: {exc}") from exc
    S_e = E[:, :f, :f] - E[:, :f, f:] @ (B_inv @ E[:, f:, :f])

    ng = len(order)
    position = np.empty(ng, dtype=np.int64)
    position[order] = np.arange(ng)
    facet = position[system.cell_dofs[:, :f]]
    S = _scatter_blocks(S_e, facet, ng).tocsc()
    S.eliminate_zeros()         # zeros in the constrained rows and columns would add LU fill
    return S, facet, B_inv


def _release_freed_heap():
    """Hand the heap that freed arrays leave behind back to the OS.

    glibc keeps a freed block below its dynamic mmap threshold (at most
    32 MiB) in the heap, where it stays resident; ``malloc_trim(0)`` returns
    those pages.  Where the C library has no ``malloc_trim``, or cannot be
    opened by ``ctypes.CDLL(None)``, nothing is done.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim(0)


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    ``_condense`` sums the cells' Schur complements into S = A_gg - A_gl
    B^-1 A_lg on the facet DOFs, in the column order of ``_facet_order``.
    SuperLU factors S in float32, keeps that column order and relaxes
    diagonal pivoting to a threshold of 0.01 so that row swaps do not undo
    it.  Everything else stays in float64; only the facet right-hand side
    of each solve is cast to float32, scaled to unit max.  Both S and that
    right-hand side are first multiplied by the same power of two 2^e,
    which is exact and leaves the float32 solution unchanged, so that S's
    largest entry lies just below 2^``FACTOR_TOP_LOG2``: at the Earth's
    radius S's entries fall to 1e-25 and its unscaled factor held 182,198
    float32 subnormals at k=1 (3,8), whose arithmetic made it 10x slower.
    The local DOFs are recovered cell by cell.  The solution is refined
    from z = 0 (relative residual 1): each step solves for the residual
    b - A z (``LinearSystem.matvec``) and adds the correction, until the
    relative residual is at most ``tolerance``, for at most
    ``MAX_REFINEMENT_STEPS`` steps after the first solve.

    A level's memory peaks at the factor or just after it.  At the factor
    L, U and SuperLU's work arrays sit on top of what stays alive across
    it: the cell matrices, B^-1, the float32 S and the index arrays (the
    facet order, the cells' facet positions and local DOFs).  SuperLU's
    panel work arrays grow with the panel width ``PANEL_SIZE``: each unit
    of it costs about 0.53 MiB at ng = 46,080 facet unknowns (deep k=1
    (4,2)) and 0.19 MiB at ng = 16,320 (k=2 (2,4)).  The float32 S is
    dropped as soon as the factor returns (the LU keeps no reference to
    it), and only then is W = B^-1 E_lg formed, by the matmul ``_condense``
    used.  At k=2 (2,4) the level's maximum falls after the factor: 133.3
    MiB when it returns, 134.2 MiB at the level's end.  The per-cell S_e,
    B^-1 E_lg, the int64 COO indices and the float64 S are freed by then,
    but glibc keeps a freed block below its
    dynamic mmap threshold (at most 32 MiB) resident in the heap, so
    ``_release_freed_heap`` hands those pages back just before the factor.
    That helps only where the freed arrays fall under the threshold: at k=2
    (2,4) they are 5.6-11.2 MiB each and the level's peak falls by about 16
    MiB; at k=2 (3,8) they are 45-90 MiB, were mapped and unmapped on their
    own, and the peak moves by about 1 MiB.

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
    order, tree = _facet_order(system.u_space)
    ng = len(order)
    separators = np.diff(tree.bounds)[tree.parent[tree.parent >= 0]]
    stats = {
        "n_global": ng, "n_local_per_cell": local.shape[1], "lu_nnz": 0, "rows_swapped": 0,
        "refinement_steps": 0, "factor_scale_log2": 0, "separator_tree_depth": tree.depth,
        "largest_separator": int(separators.max(initial=0)),
        "ordering": "column-nested-dissection", "factor_dtype": "float32",
        "panel_size": PANEL_SIZE, "residuals": [],
    }

    def result(z, res):
        return SolveResult(
            u=Field(system.u_space, z[:n_u]), p=Field(system.p_space, z[n_u:]),
            residual=float(res), stats=stats,
        )

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return result(np.zeros_like(b), 0.0)

    S, facet, B_inv = _condense(system, order)
    # 2^e S is exact, so the factor's L is that of S and its U 2^e times
    # it; float64 S is a temporary: only the float32 copy is kept for the LU
    e = FACTOR_TOP_LOG2 - int(np.frexp(np.abs(S.data).max(initial=0.0))[1])
    stats["factor_scale_log2"] = e
    np.ldexp(S.data, e, out=S.data)
    S = S.astype(np.float32)
    _release_freed_heap()
    try:
        lu = splu(S, permc_spec="NATURAL", diag_pivot_thresh=0.01, panel_size=PANEL_SIZE)
    except MemoryError as exc:
        raise SolverError(
            f"out of memory factoring the condensed matrix (n={ng}, nnz={S.nnz})"
        ) from exc
    except RuntimeError as exc:
        raise SolverError(f"factorization failed: {exc}") from exc
    del S                       # W is formed only now, on pages S held during the factor
    E = system.cell_matrices
    E_gl, W = E[:, :f, f:], B_inv @ E[:, f:, :f]
    stats["lu_nnz"] = int(lu.nnz)
    stats["rows_swapped"] = int(np.count_nonzero(lu.perm_r != np.arange(ng)))

    def apply_inverse(rhs):
        y_l = np.einsum("eij,ej->ei", B_inv, rhs[local])
        Ey = np.einsum("eij,ej->ei", E_gl, y_l)
        f_g = rhs[order] - np.bincount(facet.ravel(), Ey.ravel(), ng)
        # scaled to unit max so that a small correction stays in float32 range,
        # then by the factor's 2^e
        scale = np.abs(f_g).max() or 1.0
        x_g = lu.solve(np.ldexp(f_g / scale, e).astype(np.float32)).astype(float) * scale
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
