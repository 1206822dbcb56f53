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
cell's blocks are slices of its matrix.  The facet Schur complement S,
scaled by an exact power of two, is factored in float32 by a numpy
multifrontal method (Liu 1992) in a column order: the horizontal-facet
DOFs, which couple only inside one column of prisms, are eliminated first,
each column's in a front of its own; the vertical-facet DOFs follow in
nested-dissection order over the columns (George 1973), so the dissection
splits only the 2D graph of columns, one tree level at a time, and its
separator tree (Liu 1990) is the tree of the remaining fronts.  One
extend-add sums the fronts from the cells' Schur complements and their
children's updates, never from a global matrix, and the fronts of one tree
height are factored and solved together, padded to one shape.  Refinement
in float64 (Buttari et al. 2007; Carson & Higham 2018) brings the residual
to the tolerance; a step that fails to cut it tenfold is a SolverError,
never a silent fallback to a float64 factor.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

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
# Entries the factor stores (``lu_nnz``) with 8 / 16 / 32 / 64 / 128 / 256:
# k=2 (2,4) 7.62M / 7.62M / 7.51M / 7.56M / 8.21M / 10.25M, k=1 (3,8)
# 16.59M / 16.57M / 16.69M / 17.94M / 17.94M / 21.43M and deep k=1 (4,2)
# 6.13M / 6.26M / 6.25M / 6.99M / 8.80M / 12.60M.  32 stores the least at
# k=2 (2,4) and at most 2 % above the least at the others; deep (4,2) takes
# 3 refinement steps from 64 on, 2 below.
ND_LEAF = 32

# Most padding entries one batch of fronts may hold.  A batch costs a fixed
# number of numpy calls in the factor and in each solve, a padding entry
# its share of the GEMMs and of the extend-add.  Median solve at k=2 (2,4)
# and deep (4,2), one process: 2^12 160 and 191 ms (33 and 212 batches),
# 2^14 171 and 203, 2^16 171 and 153 (31 and 37), 2^18 196 and 161, 2^20
# 210 and 169 ms (12 and 13).
BATCH_PADDING = 2 ** 16

# Most source entries, the cells' S_e or the children's updates, one
# extend-add call adds (its int64 index takes 8 bytes an entry).  An
# index-free ``np.add.at`` that broadcasts (slots, rows, rows) builds no
# index, but took 35 ms against 7 ms on 1.15M float32 entries.
EXTEND_ADD_CHUNK = 2 ** 20

# Order up to which ``_invert`` hands a pivot block to ``np.linalg.inv``,
# whose cost per block grows with its order (25 us at 32, 6 us at 16).
# Median factor at k=2 (2,4) and deep (4,2): 134 and 144 ms at 4, 124 and
# 93 at 8, 124 and 91 at 16, 119 and 94 ms at 32.  A whole-block
# ``np.linalg.inv`` of every pivot block raised the k=2 benchmark ladder's
# peak RSS from 108.1 to 112.5 MiB (median of 5 runs, higher in all 5).
INVERT_BASE = 16

# Most entries, padding included, one batch of fronts may hold; a larger
# front is a batch of its own.  It bounds the batch's float32 front and its
# inverse, X and update, which sit on the factor.  Median solve and
# tracemalloc peak at k=2 (2,4) and deep (4,2), one BLAS thread: 2^17 155
# and 166 ms, 40.0 and 30.5 MiB; 2^19 143 and 158 ms, 40.2 and 33.2 MiB;
# 2^21 143 and 163 ms, 50.4 and 38.5 MiB; unbounded 144 and 160 ms, 50.8
# and 38.5 MiB.
BATCH_ENTRIES = 2 ** 19

# Most refinement steps after the first solve with the float32 factor.  Each
# step scales the residual by about cond(S) 2^-24: 1e-5 at k=2 (2,4) and
# 3e-5 at k=2 (3,8), where two steps reach 1e-10.
MAX_REFINEMENT_STEPS = 10

# ``solve`` scales the float32 system by 2^e, so that the largest entry of
# the cells' S_e lies in [2^7, 2^8).  The factor holds entries of S's scale
# (fronts, F21, updates) and of its inverse's (F11^-1), so the top sits near
# the middle of float32's range.  Stored float32 subnormals, top 2^8 (2^24;
# 2^64; 2^110; unscaled): Earth k=1 (1,2) 0 (0; 376; 24; 624), (2,4) 0 (0;
# 22,336; 2,892; 10,032), (3,8) 10,352 (119,831; 436,055; 52,482; 127,636);
# a = 1e9 (1,2) 0 (312; 1,373; 240; 0), (2,4) 0 (7,056; 49,029; 8,004; 0);
# k=1 (3,8) 31 (280; 191; 147,466; 70); none on the k=2 and deep ladders or
# in the strong-rotation test, where 2^110 stored 196,268 at k=2 (2,4).  At
# 2^8 fronts and updates stay within 2^4.7 of the top (the strong-rotation
# test), X = F11^-1 F12 within 2^7 and F11^-1 within 2^52 (a = 1e9), 76
# binary orders below float32's largest, 2^128.
FACTOR_TOP_LOG2 = 8


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

    @cached_property
    def cell_dofs(self) -> np.ndarray:
        """(n_cells, nd) each cell's global [V1 facet | V1 interior | V2] DOFs,
        facets first; built once per system."""
        return np.hstack([self.u_space.cell_dofs, self.p_space.cell_dofs + self.n_u])

    def matvec(self, z: np.ndarray) -> np.ndarray:
        """``matrix @ z``, from the cell matrices."""
        dofs = self.cell_dofs
        Ez = np.einsum("eij,ej->ei", self.cell_matrices, z[dofs])
        return np.bincount(dofs.ravel(), Ez.ravel(), len(z))

    @cached_property
    def matrix(self):
        """The global scipy CSR, the tests' oracle; ``solve`` never builds it,
        and only this property imports scipy.  A facet DOF lies in at most
        two cells, so no entry sums more than two contributions and the CSR
        does not depend on the scatter order.  It stores no zeros."""
        import scipy.sparse as sp

        dofs = self.cell_dofs
        rows, cols = np.broadcast_arrays(dofs[:, :, None], dofs[:, None, :])
        n = len(self.rhs)
        A = sp.coo_matrix((self.cell_matrices.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
        A.eliminate_zeros()
        return A


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
    SuperLU's default relaxed supernodes, which factored S before the
    multifrontal method did.
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
    ``n_local_per_cell`` (DOFs eliminated per cell), ``lu_nnz`` (the float32
    entries the factor stores, F11^-1, X and F21 of every front, padding
    included), ``n_fronts`` (the columns of prisms plus the separator tree's
    nodes), ``largest_front`` (the rows of the largest front, unpadded),
    ``factor_flops`` (the factor's floating-point operations, padding
    included), ``refinement_steps``,
    ``factor_scale_log2`` (the e of the factor's 2^e scaling; 0 when nothing
    is factored), ``ordering`` (the column order of the condensed matrix, always
    ``"column-nested-dissection"``: see ``_facet_order``),
    ``separator_tree_depth`` (the levels of that dissection's separator tree
    below its root, ``SeparatorTree.depth``), ``largest_separator`` (the
    vertical-facet DOFs of its largest separator; 0 when no box is split),
    ``factor_dtype`` (the precision of the factor, always ``"float32"``) and
    ``residuals`` (the relative residual after the first solve and after
    each refinement step; its last entry is ``residual``, and it is empty
    when the right-hand side is zero and nothing is solved).  The front
    counts come from the symbolic phase, also when nothing is factored.
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
    """The facet DOFs 0 ... ng-1 in the order the factor eliminates them, and the
    vertical ones' ``SeparatorTree``: every horizontal-facet DOF (nv ...
    ng-1), which couples only inside its column, then the vertical-facet
    DOFs 0 ... nv-1 by ``_nested_dissection`` over the columns.  Cells are
    numbered column-major, so a column's
    vertical-facet DOFs are a reshape of its cells' ``"quad"`` DOFs.  The
    columns' centroids come from the base mesh's unscaled ``directions``:
    the icosahedral mesh has exact coordinate ties, which centroids of the
    scaled vertices break by rounding differently at some radii, so the
    order, and with it the factor, is the same at every radius."""
    base = u.mesh.base
    quad = [d.entity[0] == "quad" for d in u.element.dofs]
    columns = u.cell_dofs[:, quad].reshape(base.n_triangles, -1)
    nv = u.vfacet_dofs.size
    horizontal = np.arange(nv, nv + u.hfacet_dofs.size)
    centroids = base.directions[base.triangles].mean(axis=1)
    tree = _nested_dissection(columns, centroids)
    return np.concatenate([horizontal, tree.order]), tree


def _condense(system: LinearSystem):
    """Condense every cell's local (l) DOFs onto its facet (g) DOFs.

    E_gg, E_gl, E_lg and E_ll are slices of each cell matrix at f.  Per
    cell: B^-1 = E_ll^-1 and S_e = E_gg - E_gl (B^-1 E_lg).  Returns the
    S_e (n_cells, f, f), which sum to S over the cells' facet DOFs, and
    B^-1.  B^-1 E_lg, which ``solve`` needs only after the factor, is a
    temporary here, so that it is not alive across the factor.
    """
    f = _n_facet(system)
    E = system.cell_matrices
    try:
        B_inv = np.linalg.inv(E[:, f:, f:])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"cell-local block inversion failed: {exc}") from exc
    return E[:, :f, :f] - E[:, :f, f:] @ (B_inv @ E[:, f:, :f]), B_inv


def _invert(A):
    """The inverses of a stack of float32 pivot blocks (nb, n, n), by 2 x 2
    block elimination down to order ``INVERT_BASE``, where ``np.linalg.inv``
    pivots inside the block.  No pivot leaves its half (static pivoting, Li
    & Demmel 2003), so the work is GEMMs.  S is indefinite, so nothing
    guarantees a half invertible; SuperLU's threshold pivoting kept every
    diagonal pivot on every benchmark level.  A singular half shows as a
    LinAlgError or as non-finite entries."""
    n = A.shape[-1]
    if n <= INVERT_BASE:
        return np.linalg.inv(A)
    h = n // 2
    inv11 = _invert(A[:, :h, :h])
    X, Y = inv11 @ A[:, :h, h:], A[:, h:, :h] @ inv11
    out = np.empty_like(A)
    out[:, h:, h:] = _invert(A[:, h:, h:] - A[:, h:, :h] @ X)
    out[:, :h, h:] = -(X @ out[:, h:, h:])
    out[:, h:, :h] = -(out[:, h:, h:] @ Y)
    out[:, :h, :h] = inv11 - out[:, :h, h:] @ Y
    return out


class _Batch(NamedTuple):
    """Fronts of one height in the front tree, factored together.  Each is
    padded to ``P`` pivots (its own first) and M border rows (its own
    first), so the batch is one (nb, P + M, P + M) array.  ``dofs`` gives
    each row's facet DOF, ng on padding, where the solves read and write a
    zero; ``eye`` the flat indices of the padding pivots' diagonal, set to
    1.  ``children`` lists what the batch's fronts sum, one entry per
    source, (source, blocks there, slots here, rows (n, r)): each block is
    added at its rows of the front at its slot.  Source -1 is the cells'
    S_e, added into the columns' fronts; source j is batch j's updates,
    added into their parents' fronts, at the border rows' rows there (0 on
    padding, whose update entries are zero)."""

    dofs: np.ndarray
    P: int
    eye: np.ndarray
    children: list


class _Fronts(NamedTuple):
    """The front tree's batches in factor order; for each source the last
    batch that reads it (-1 the cells, i batch i's updates; the root's are
    read by none); the facet order's ``SeparatorTree``; and the counts
    ``solve`` reports."""

    batches: list
    last_read: dict
    tree: SeparatorTree
    n_fronts: int
    largest_front: int
    entries: int
    flops: float


def _front_tree(u: FunctionSpace, f: int) -> _Fronts:
    """The multifrontal factor's symbolic phase (Duff & Reid 1983; Liu
    1992): its fronts, their rows and the maps that add the cells' S_e
    and each front's update into the fronts that sum them.

    The fronts are the columns of prisms, then the nodes of the facet
    order's ``SeparatorTree``.  A column's pivots are its horizontal-facet
    DOFs, which couple only inside it, and its parent is its leaf; a tree
    node's pivots are its vertical-facet DOFs.  A DOF lies in the fronts on
    the path from its cells' columns up to the one that eliminates it, in
    elimination order (``_facet_order``), so a front's pivots come first
    and its border rows are its ancestors' DOFs.  Each height of the tree
    (columns 0, leaves 1, ...) is cut, largest fronts first, into batches
    of at most ``BATCH_PADDING`` padding entries.  Every index map is built
    for all fronts at once, in numpy.
    """
    order, tree = _facet_order(u)
    ng, n_nodes = len(order), len(tree.parent)
    ncol = u.mesh.base.n_triangles
    n = ncol + n_nodes
    facets = u.cell_dofs[:, :f]
    column = np.arange(len(facets)) // u.mesh.n_layers
    rank = np.empty(ng, dtype=np.int64)
    rank[order] = np.arange(ng)
    owner = np.empty(ng, dtype=np.int64)                 # the front that eliminates each DOF
    owner[facets] = column[:, None]
    owner[tree.order] = ncol + np.repeat(np.arange(n_nodes), np.diff(tree.bounds))
    parent = np.concatenate([ncol + tree.column_leaf,
                             np.where(tree.parent < 0, -1, ncol + tree.parent)])

    front, dof, keys = column.repeat(f), facets.ravel(), []
    while len(dof):
        keys.append(front * ng + rank[dof])
        up = front != owner[dof]
        front, dof = parent[front[up]], dof[up]
    keys = np.sort(np.concatenate(keys))                 # (front, rank), ascending
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    start = np.searchsorted(keys, np.arange(n + 1) * ng)
    size = np.diff(start)
    p = np.bincount(owner, minlength=n)
    m = size - p

    height = np.zeros(n, dtype=np.int64)
    child = np.flatnonzero(parent >= 0)
    for _ in range(tree.depth + 2):
        np.maximum.at(height, parent[child], height[child] + 1)
    batch, slot, shapes = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64), []
    for h in range(height.max() + 1):
        ids = np.flatnonzero(height == h)
        ids = ids[np.lexsort((-p[ids], -size[ids]))]
        while len(ids):
            P, M = np.maximum.accumulate(p[ids]), np.maximum.accumulate(m[ids])
            entries = np.arange(1, len(ids) + 1) * (P + M) ** 2
            fits = (entries - np.cumsum(size[ids] ** 2) <= BATCH_PADDING) & (entries <= BATCH_ENTRIES)
            nb = max(1, np.argmin(np.append(fits, False)))
            batch[ids[:nb]], slot[ids[:nb]] = len(shapes), np.arange(nb)
            shapes.append((nb, P[nb - 1], M[nb - 1]))
            ids = ids[nb:]
    nb, P, M = (np.array(x) for x in zip(*shapes))
    N = P + M

    # each (front, DOF)'s row in its padded front, and a border row's in the parent's
    fr = keys // ng
    q = np.arange(len(keys)) - start[fr]
    row = np.where(q < p[fr], q, P[batch[fr]] + q - p[fr])
    dofs = np.full((nb * N).sum(), ng)
    dofs[(np.cumsum(nb * N) - nb * N)[batch[fr]] + slot[fr] * N[batch[fr]] + row] = order[keys % ng]
    border = (q >= p[fr]) & (parent[fr] >= 0)
    fb = fr[border]
    up = np.zeros((nb * M).sum(), dtype=np.int64)
    up[(np.cumsum(nb * M) - nb * M)[batch[fb]] + slot[fb] * M[batch[fb]] + q[border] - p[fb]] = \
        row[np.searchsorted(keys, parent[fb] * ng + keys[border] % ng)]
    cell_rows = row[np.searchsorted(keys, column[:, None] * ng + rank[facets])]

    n_pad = P[batch] - p                                 # each front's padding pivots
    pad = np.repeat(np.arange(n), n_pad)
    d = p[pad] + np.arange(len(pad)) - np.repeat(np.cumsum(n_pad) - n_pad, n_pad)
    eye = slot[pad] * N[batch[pad]] ** 2 + d * (N[batch[pad]] + 1)
    eye = np.split(eye[np.argsort(batch[pad], kind="stable")],
                   np.cumsum(np.bincount(batch[pad], minlength=len(nb)))[:-1])
    dofs = np.split(dofs, np.cumsum(nb * N)[:-1])
    up = [u.reshape(k, -1) for u, k in zip(np.split(up, np.cumsum(nb * M)[:-1]), nb)]
    batches = [_Batch(dofs[i].reshape(nb[i], N[i]), int(P[i]), eye[i], [])
               for i in range(len(nb))]
    for i in np.unique(batch[:ncol]):
        cells = np.flatnonzero(batch[column] == i)
        batches[i].children.append((-1, cells, slot[column[cells]], cell_rows[cells]))
    c = child[np.lexsort((slot[child], batch[child], batch[parent[child]]))]
    t, s = batch[parent[c]], batch[c]
    for g in np.split(np.arange(len(c)), np.flatnonzero(np.diff(t * len(nb) + s)) + 1):
        j, src = int(s[g[0]]), slot[c[g]]
        batches[t[g[0]]].children.append((j, src, slot[parent[c[g]]], up[j][src]))
    last_read = {src[0]: i for i, b in enumerate(batches) for src in b.children}
    return _Fronts(
        batches, last_read, tree, n, int(size.max(initial=0)),
        int((nb * (P ** 2 + 2 * P * M)).sum()),
        float((nb * (2 * P ** 3 + 2 * P ** 2 * M + 2 * P * M ** 2)).sum()),
    )


def _block_index(slots, rows, N):
    """Flat indices into a batch (nb, N, N) of the blocks ``rows`` x
    ``rows`` of the fronts ``slots``."""
    return ((slots * (N * N))[:, None, None] + rows[:, :, None] * N + rows[:, None, :]).ravel()


def _factor(fronts: _Fronts, sources: dict) -> list:
    """The float32 multifrontal factor of the matrix whose cells' S_e, 2^e
    scaled, are ``sources[-1]``.

    Every front is summed from zero by one extend-add over its
    ``children``: a column's from its cells' S_e, the others from their
    children's updates.  Per batch the factor keeps F11^-1, X = F11^-1 F12
    and F21, and puts the update F22 - F21 X in ``sources``; each source is
    deleted after the last batch that reads it, so ``sources`` is empty
    when the factor returns.  A pivot block with a zero pivot or a
    non-finite inverse is a SolverError."""
    parts = []
    for i, b in enumerate(fronts.batches):
        nb, N = b.dofs.shape
        P = b.P
        F = np.zeros(nb * N * N, dtype=np.float32)
        F[b.eye] = 1.0
        for s, src, slots, rows in b.children:
            # in chunks of about EXTEND_ADD_CHUNK entries, which bound the index array
            step = max(1, EXTEND_ADD_CHUNK // rows.shape[1] ** 2)
            for lo in range(0, len(src), step):
                hi = lo + step
                np.add.at(F, _block_index(slots[lo:hi], rows[lo:hi], N),
                          sources[s][src[lo:hi]].ravel())
            if fronts.last_read[s] == i:
                del sources[s]
        F = F.reshape(nb, N, N)
        try:
            inv = _invert(F[:, :P, :P])
        except np.linalg.LinAlgError:
            inv = None
        if inv is None or not np.isfinite(inv).all():
            raise SolverError(f"singular pivot block in a front of {N} rows")
        X = inv @ F[:, :P, P:]
        F21 = F[:, P:, :P].copy()
        if i in fronts.last_read:
            U = F21 @ X
            sources[i] = np.subtract(F[:, P:, P:], U, out=U)
            del U
        del F
        parts.append((inv, X, F21))
    return parts


def _front_solve(fronts: _Fronts, parts: list, w: np.ndarray) -> None:
    """Solve with the factor, in place on w (ng + 1,) float32, whose last
    entry, which the padding rows read, is 0: forward through the batches,
    y = F11^-1 w_piv and w_border -= F21 y, then back, x_piv = y - X x_border."""
    for b, (inv, X, F21) in zip(fronts.batches, parts):
        piv, border = b.dofs[:, :b.P], b.dofs[:, b.P:]
        y = inv @ w[piv][:, :, None]
        w[piv] = y[:, :, 0]
        np.subtract.at(w, border, (F21 @ y)[:, :, 0])
    for b, (inv, X, F21) in zip(reversed(fronts.batches), reversed(parts)):
        piv, border = b.dofs[:, :b.P], b.dofs[:, b.P:]
        w[piv] -= (X @ w[border][:, :, None])[:, :, 0]


def solve(system: LinearSystem, tolerance: float = 1e-10) -> SolveResult:
    """Sparse direct solve by static condensation, with a residual contract.

    ``_condense`` forms the cells' Schur complements S_e, which sum to S =
    A_gg - A_gl B^-1 A_lg on the facet DOFs.  ``_factor`` factors 2^e S in
    float32 over the fronts of ``_front_tree``, in the elimination order of
    ``_facet_order``, summing the float32 2^e S_e into the columns' fronts
    as it sums the updates into their parents'.  Everything else stays in
    float64; only the facet right-hand side of each solve is cast to
    float32, scaled to unit max.  The power of two 2^e is exact and leaves
    the float32 solution unchanged; it puts the S_e's largest entry just
    below 2^``FACTOR_TOP_LOG2``, so that the factor's entries, of S's scale
    and of its inverse's, stay within float32's normal range: at the
    Earth's radius S's entries fall to 1e-25.  The local DOFs are recovered
    cell by cell.  The solution is refined from z = 0 (relative residual 1): each
    step solves for the residual b - A z (``LinearSystem.matvec``) and adds
    the correction, until the relative residual is at most ``tolerance``,
    for at most ``MAX_REFINEMENT_STEPS`` steps after the first solve.

    A level's memory peaks in the factor, where its float32 parts
    (``stats["lu_nnz"]`` entries), the updates not yet read and the batch
    being factored sit on top of what stays alive across it: the cell
    matrices, B^-1 and the fronts' index maps.  The S_e are cast to
    float32 before the factor starts and freed after the last column
    batch, and only after the factor is W = B^-1 E_lg formed, by the
    matmul ``_condense`` used.

    Raises SolverError when a cell block or a pivot block is singular, when
    the factor runs out of memory, when a solve (the first one included)
    cuts the residual less than tenfold, and when the residual misses the
    tolerance after ``MAX_REFINEMENT_STEPS`` steps; the last two name the
    residual history.
    """
    b = system.rhs
    n, n_u = len(b), system.n_u
    f = _n_facet(system)
    facet, local = system.cell_dofs[:, :f], system.cell_dofs[:, f:]
    ng = n - local.size
    fronts = _front_tree(system.u_space, f)
    tree = fronts.tree
    separators = np.diff(tree.bounds)[tree.parent[tree.parent >= 0]]
    stats = {
        "n_global": ng, "n_local_per_cell": local.shape[1], "lu_nnz": fronts.entries,
        "n_fronts": fronts.n_fronts, "largest_front": fronts.largest_front,
        "factor_flops": fronts.flops, "refinement_steps": 0, "factor_scale_log2": 0,
        "separator_tree_depth": tree.depth, "largest_separator": int(separators.max(initial=0)),
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

    S_e, B_inv = _condense(system)
    # 2^e S_e is exact; the factor's F11^-1 is 2^-e times the unscaled one's,
    # F21 2^e times, and X the same
    e = FACTOR_TOP_LOG2 - int(np.frexp(np.abs(S_e).max(initial=0.0))[1])
    stats["factor_scale_log2"] = e
    try:
        sources = {-1: np.ldexp(S_e, e, out=S_e).astype(np.float32)}
        del S_e
        with np.errstate(all="ignore"):     # a singular pivot block is checked
            parts = _factor(fronts, sources)
    except MemoryError as exc:
        raise SolverError(
            f"out of memory factoring the condensed matrix (n={ng}, nnz={fronts.entries})"
        ) from exc
    E = system.cell_matrices
    E_gl, W = E[:, :f, f:], B_inv @ E[:, f:, :f]

    def apply_inverse(rhs):
        y_l = np.einsum("eij,ej->ei", B_inv, rhs[local])
        Ey = np.einsum("eij,ej->ei", E_gl, y_l)
        f_g = rhs[:ng] - np.bincount(facet.ravel(), Ey.ravel(), ng)
        # scaled to unit max so that a small correction stays in float32 range,
        # then by the factor's 2^e; the last entry is the padding rows' zero
        scale = np.abs(f_g).max() or 1.0
        w = np.zeros(ng + 1, dtype=np.float32)
        w[:ng] = np.ldexp(f_g / scale, e)
        with np.errstate(all="ignore"):     # a non-finite solve fails the contract
            _front_solve(fronts, parts, w)
        x_g = w[:ng].astype(float) * scale
        z = np.empty(n)
        z[:ng] = x_g
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
