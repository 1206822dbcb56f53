import dataclasses
import functools
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from shallowfem import assembly, fem, geometry, mesh, mms

from conftest import nested_dissection


def inner_dofs(system):
    """The DOFs that ``apply_inner_bc`` constrains: u . n on the inner sphere."""
    space = system.u_space
    return np.unique(space.hfacet_dofs[space.facets.inner_boundary])


def weak_residual(system, result):
    """Max weak-form defect |a(z; w) - L(w)| over the unconstrained test DOFs."""
    z = np.concatenate([result.u.coeffs, result.p.coeffs])
    r = system.matrix @ z - system.rhs
    r[inner_dofs(system)] = 0.0
    return float(np.abs(r).max())


def build_spaces(m, k):
    facets = mesh.classify_facets(m)
    V1 = fem.build_dof_map(m, facets, fem.make_element("V1", k))
    V2 = fem.build_dof_map(m, facets, fem.make_element("V2", k))
    return V1, V2


@pytest.fixture(scope="module")
def one_cell_mesh():
    verts = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    base = mesh.base_mesh_from_triangles(verts, np.array([[0, 1, 2]]), radius=1.0)
    return mesh.extrude_radial(base, 1, 1.0)


@pytest.fixture(scope="module")
def coarse_system(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1)
    return assembly.assemble(config, V1, V2)


@pytest.fixture(scope="module")
def annulus_r0_l1_module():
    return mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, 1.0)


def test_config_validates_mode():
    with pytest.raises(ValueError):
        assembly.ProblemConfig(mode="spherical")


def test_config_default_quadrature_degree():
    assert assembly.ProblemConfig(k=1).degree == 9
    assert assembly.ProblemConfig(k=2).degree == 12
    assert assembly.ProblemConfig(k=1, quadrature_degree=4).degree == 4


def test_a_quadrature_degree_gets_its_own_tables(annulus_r0_l1_module):
    """``quadrature_degree`` builds its own entry of ``fem.reference_tables``
    beside the default's, and the system reports that degree and its points."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 1)
    fem.reference_tables.cache_clear()
    default = assembly.assemble(assembly.ProblemConfig(k=1), V1, V2)
    assert fem.reference_tables.cache_info().currsize == 1
    system = assembly.assemble(assembly.ProblemConfig(k=1, quadrature_degree=4), V1, V2)
    assert fem.reference_tables.cache_info().currsize == 2
    assert fem.reference_tables(1, 4).rule.degree == 4
    assert (default.stats["quadrature_degree"], default.stats["n_quadrature_points"]) == (9, 95)
    assert (system.stats["quadrature_degree"], system.stats["n_quadrature_points"]) == (4, 27)


def test_coordinate_field_dispatch(annulus_r0_l1_module):
    """Shallow mode assembles on the chart in R^4, deep mode on the annulus."""
    m = annulus_r0_l1_module
    shallow = assembly.coordinate_field(assembly.ProblemConfig(mode="shallow"), m)
    deep = assembly.coordinate_field(assembly.ProblemConfig(mode="deep"), m)
    np.testing.assert_array_equal(shallow, geometry.manifold_coordinates(m))
    np.testing.assert_array_equal(deep, m.cell_node_coords())


def test_one_cell_system_dimension(one_cell_mesh):
    V1, V2 = build_spaces(one_cell_mesh, 1)
    system = assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1), V1, V2)
    assert system.matrix.shape == (9, 9)
    assert system.n_u == 8 and system.n_p == 1


def test_mass_block_spd_without_rotation(one_cell_mesh):
    """Omega = 0 kills the Coriolis block and leaves an SPD mass matrix."""
    V1, V2 = build_spaces(one_cell_mesh, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1, coriolis_enabled=False)
    system = assembly.assemble(config, V1, V2)
    M = system.matrix[:8, :8].toarray()
    np.testing.assert_allclose(M, M.T, atol=1e-14)
    assert np.linalg.eigvalsh(M).min() > 0


def test_disabling_coriolis_equals_zero_omega(one_cell_mesh):
    V1, V2 = build_spaces(one_cell_mesh, 1)
    off = assembly.ProblemConfig(mode="shallow", k=1, coriolis_enabled=False)
    zero = assembly.ProblemConfig(
        mode="shallow", k=1, omega4=lambda x: np.zeros(geometry.point_shape(x))
    )
    A_off = assembly.assemble(off, V1, V2).matrix
    A_zero = assembly.assemble(zero, V1, V2).matrix
    assert abs(A_off - A_zero).max() <= 1e-14


def test_coriolis_block_skew(coarse_system, annulus_r0_l1_module):
    """u' C u = 0 to 1e-12 relative for 100 random velocity vectors."""
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    no_rot = assembly.assemble(
        assembly.ProblemConfig(mode="shallow", k=1, coriolis_enabled=False), V1, V2
    )
    nu = coarse_system.n_u
    C = (coarse_system.matrix[:nu, :nu] - no_rot.matrix[:nu, :nu]).toarray()
    normC = np.linalg.norm(C, 2)
    assert normC > 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        u = rng.standard_normal(nu)
        assert abs(u @ C @ u) <= 1e-12 * (u @ u) * normC


def test_block_antisymmetry(coarse_system):
    nu = coarse_system.n_u
    B_up = coarse_system.matrix[:nu, nu:]
    B_pu = coarse_system.matrix[nu:, :nu]
    assert abs(B_up + B_pu.T).max() <= 1e-12


def test_pressure_block_negative_definite(coarse_system):
    nu = coarse_system.n_u
    Mp = -coarse_system.matrix[nu:, nu:].toarray()
    np.testing.assert_allclose(Mp, Mp.T, atol=1e-14)
    assert np.linalg.eigvalsh(Mp).min() > 0


def test_factorization_counts(annulus_r0_l1_module):
    """Shallow mode factors one Jacobian per cell, deep one per point.

    Both modes integrate the matrix at its exact rule of degree 2k + 1, with
    (k + 1)^3 points, and the right-hand sides at ``default_quadrature_degree``:
    degree 9 with Dunavant's 19 triangle points at k=1, 12 at k=2.
    """
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    shallow = assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1), V1, V2)
    deep = assembly.assemble(assembly.ProblemConfig(mode="deep", k=1), V1, V2)
    nq = shallow.stats["n_quadrature_points"]
    assert shallow.stats["n_jacobian_factorizations"] == m.n_cells
    assert deep.stats["n_jacobian_factorizations"] == m.n_cells * nq

    def rules(stats):
        return (
            stats["quadrature_degree"], stats["n_quadrature_points"],
            stats["matrix_quadrature_degree"], stats["n_matrix_quadrature_points"],
        )

    assert rules(shallow.stats) == (9, 95, 3, 8)
    assert rules(deep.stats) == (9, 95, 3, 8)
    V1, V2 = build_spaces(m, 2)
    for mode, expected in [("shallow", (12, 343, 5, 27)), ("deep", (12, 343, 5, 27))]:
        stats = assembly.assemble(assembly.ProblemConfig(mode=mode, k=2), V1, V2).stats
        assert rules(stats) == expected


def test_assembly_deterministic(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1)
    A1 = assembly.assemble(config, V1, V2).matrix
    A2 = assembly.assemble(config, V1, V2).matrix
    assert (A1 != A2).nnz == 0


def test_mismatched_degree_rejected(annulus_r0_l1_module):
    """A config whose k differs from the elements' would change the quadrature."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 2)
    with pytest.raises(ValueError, match="config.k = 1"):
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1), V1, V2)
    _, V2_1 = build_spaces(annulus_r0_l1_module, 1)
    with pytest.raises(ValueError):
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=2), V1, V2_1)


def test_mismatched_meshes_rejected(one_cell_mesh, annulus_r0_l1_module):
    V1, _ = build_spaces(one_cell_mesh, 1)
    _, V2 = build_spaces(annulus_r0_l1_module, 1)
    with pytest.raises(ValueError):
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1), V1, V2)


def test_inner_bc_dof_count(coarse_system):
    """base(r=0), one layer: one vertical DOF per inner triangle facet."""
    constrained = assembly.apply_inner_bc(coarse_system)
    dofs = inner_dofs(constrained)
    assert len(dofs) == 20
    # constrained rows are identity rows with zero RHS
    A = constrained.matrix
    for d in dofs:
        row = A[d].toarray().ravel()
        assert row[d] == 1.0
        row[d] = 0.0
        assert np.abs(row).max() == 0.0
        assert constrained.rhs[d] == 0.0
    # matching columns cleared
    cols = abs(A[:, dofs])
    assert cols.sum() == len(dofs)


def test_inner_bc_solution_exactly_zero(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1,
        f4=lambda x: np.broadcast_to([1.0, 0.5, -0.3, 0.2], geometry.point_shape(x) + (4,)),
        g=lambda x: x[3],
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert (result.u.coeffs[inner_dofs(system)] == 0.0).all()


def test_solve_zero_rhs(coarse_system):
    system = assembly.apply_inner_bc(coarse_system)
    system.rhs[:] = 0.0
    result = assembly.solve(system)
    assert (result.u.coeffs == 0.0).all() and (result.p.coeffs == 0.0).all()
    assert result.residual == 0.0


def test_solve_residual_contract(coarse_system):
    """b = A z for random z: the solve meets its residual tolerance."""
    system = assembly.apply_inner_bc(coarse_system)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(system.matrix.shape[0])
    system.rhs[:] = system.matrix @ z
    result = assembly.solve(system, tolerance=1e-10)
    assert result.residual <= 1e-10


def test_solve_reports_failure(coarse_system):
    bad = assembly.LinearSystem(
        cell_matrices=np.zeros_like(coarse_system.cell_matrices),
        rhs=np.ones(coarse_system.matrix.shape[0]),
        u_space=coarse_system.u_space,
        p_space=coarse_system.p_space,
        stats={},
    )
    with pytest.raises(assembly.SolverError):
        assembly.solve(bad)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["shallow", "deep"])
def test_condensed_solve_matches_full_spsolve(annulus_r0_l1_module, k, mode):
    """Static condensation reproduces a direct solve of the full matrix."""
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, k)
    config = assembly.ProblemConfig(
        mode=mode, k=k,
        f4=lambda x: geometry.stack_planes((x[1], -x[0], x[3], x[2])),
        g=lambda x: x[0] * x[1],
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    z = np.concatenate([result.u.coeffs, result.p.coeffs])
    ref = spsolve(system.matrix.tocsc(), system.rhs)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)

    stats = result.stats
    assert stats["n_local_per_cell"] == {1: 1, 2: 15}[k]
    n = system.matrix.shape[0]
    assert stats["n_global"] == n - m.n_cells * stats["n_local_per_cell"]
    assert stats["lu_nnz"] > 0 and 0 <= stats["refinement_steps"] <= assembly.MAX_REFINEMENT_STEPS
    assert stats["ordering"] == "column-nested-dissection"


def test_solve_rejects_a_singular_cell_block(annulus_r0_l1_module):
    """Two equal rows in one cell's local block (15 x 15 at k=2): the
    in-place block inversion fails, and that is a SolverError."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 2)
    system = assembly.apply_inner_bc(
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=2), V1, V2))
    system.rhs[:] = 1.0
    r0 = assembly._n_facet(system)
    r1 = r0 + 1
    E = system.cell_matrices.copy()
    E[0, r1] = E[0, r0]
    with pytest.raises(assembly.SolverError, match="inversion failed"):
        assembly.solve(dataclasses.replace(system, cell_matrices=E))


def test_solve_out_of_memory_is_solver_error(coarse_system, monkeypatch):
    system = assembly.apply_inner_bc(coarse_system)
    system.rhs[:] = 1.0

    def no_memory(fronts, sources):
        raise MemoryError

    monkeypatch.setattr(assembly, "_factor", no_memory)
    with pytest.raises(assembly.SolverError, match=r"n=\d+, nnz=\d+"):
        assembly.solve(system)


@pytest.fixture(scope="module")
def r1_system(annulus_r1_l2):
    """k=1 on 160 cells: enough facet DOFs for three levels of dissection."""
    V1, V2 = build_spaces(annulus_r1_l2, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1, g=lambda x: x[0])
    return assembly.apply_inner_bc(assembly.assemble(config, V1, V2))


def cell_local_dofs(system):
    """(n_cells, n_local) global indices of the V1 interior and V2 DOFs."""
    return system.cell_dofs[:, assembly._n_facet(system):]


def n_facet_dofs(system):
    """ng, the number of facet DOFs: all DOFs but the cell-local ones."""
    return len(system.rhs) - cell_local_dofs(system).size


def n_vertical_facet_dofs(system):
    """nv: the vertical-facet ("quad") DOFs are 0 ... nv-1."""
    return system.u_space.vfacet_dofs.size


def facet_inputs(u):
    """(each column's vertical-facet DOFs, its base triangle's centroid), the
    inputs of ``_nested_dissection`` in ``solve``, for the V1 space ``u``."""
    base = u.mesh.base
    quad = [d.entity[0] == "quad" for d in u.element.dofs]
    columns = u.cell_dofs[:, quad].reshape(base.n_triangles, -1)
    return columns, base.directions[base.triangles].mean(axis=1)


def condensed_matrix(system):
    """S, the sum of ``_condense``'s cell Schur complements, as a scipy CSR
    over the facet DOFs 0 ... ng-1."""
    S_e = assembly._condense(system)[0]
    f = S_e.shape[1]
    facet = system.cell_dofs[:, :f]
    rows, cols = np.broadcast_arrays(facet[:, :, None], facet[:, None, :])
    ng = n_facet_dofs(system)
    return sp.coo_matrix((S_e.ravel(), (rows.ravel(), cols.ravel())), shape=(ng, ng)).tocsr()


def front_tree(system):
    return assembly._front_tree(system.u_space, assembly._n_facet(system))


def float32_subnormals(parts):
    """The float32 subnormal entries stored in a factor's parts."""
    tiny = np.finfo(np.float32).tiny
    return sum(int(np.count_nonzero((x != 0) & (np.abs(x) < tiny))) for part in parts for x in part)


@pytest.mark.parametrize("k", [1, 2])
def test_cell_dofs_put_the_facet_dofs_first(annulus_r1_l2, k):
    """The layout ``solve`` slices: a row of ``cell_dofs`` is [V1 facet | V1
    interior | V2], and the facet DOFs are numbered 0 ... ng-1, before every
    cell-local DOF, with the vertical-facet DOFs first."""
    V1, V2 = build_spaces(annulus_r1_l2, k)
    nd = V1.element.ndofs + V2.element.ndofs
    system = assembly.LinearSystem(
        cell_matrices=np.zeros((annulus_r1_l2.n_cells, nd, nd)),
        rhs=np.zeros(V1.n_dofs + V2.n_dofs), u_space=V1, p_space=V2,
    )
    f = assembly._n_facet(system)
    kinds = [d.entity[0] for d in V1.element.dofs]
    assert "interior" not in kinds[:f] and set(kinds[f:]) <= {"interior"}
    assert len(kinds[f:]) == {1: 0, 2: 9}[k]
    np.testing.assert_array_equal(system.cell_dofs[:, :V1.element.ndofs], V1.cell_dofs)
    np.testing.assert_array_equal(system.cell_dofs[:, V1.element.ndofs:], V2.cell_dofs + V1.n_dofs)

    ng = V1.vfacet_dofs.size + V1.hfacet_dofs.size
    np.testing.assert_array_equal(np.unique(V1.cell_dofs[:, :f]), np.arange(ng))
    assert V1.cell_dofs[:, :f].max() < ng <= system.cell_dofs[:, f:].min()
    if k == 2:
        assert ng <= V1.cell_dofs[:, f:].min()

    # the vertical-facet ("quad") DOFs are 0 ... nv-1, distinct in a column
    quad = [d.entity[0] == "quad" for d in V1.element.dofs]
    np.testing.assert_array_equal(np.unique(V1.cell_dofs[:, quad]), np.arange(V1.vfacet_dofs.size))
    columns = V1.cell_dofs[:, quad].reshape(annulus_r1_l2.base.n_triangles, -1)
    assert all(len(np.unique(c)) == len(c) for c in columns)


def test_nested_dissection_is_a_deterministic_permutation(r1_system):
    columns, centroids = facet_inputs(r1_system.u_space)
    order = assembly._nested_dissection(columns, centroids).order
    np.testing.assert_array_equal(np.sort(order), np.arange(n_vertical_facet_dofs(r1_system)))
    np.testing.assert_array_equal(assembly._nested_dissection(columns, centroids).order, order)


def test_facet_order_puts_the_horizontal_facet_dofs_first(r1_system):
    """Every horizontal-facet DOF (nv ... ng-1) precedes every vertical-facet
    DOF, and the vertical ones follow in ``_nested_dissection`` order."""
    order = assembly._facet_order(r1_system.u_space)[0]
    nv, ng = n_vertical_facet_dofs(r1_system), n_facet_dofs(r1_system)
    assert len(order) == ng
    np.testing.assert_array_equal(order[:ng - nv], np.arange(nv, ng))
    vertical = assembly._nested_dissection(*facet_inputs(r1_system.u_space)).order
    np.testing.assert_array_equal(order[ng - nv:], vertical)


def test_nested_dissection_orders_the_top_separator_last(r1_system):
    """The top split of the columns, recomputed: the order is the low block,
    the high block and then exactly the DOFs that columns of both halves
    own, and no column owns a DOF of the low block and one of the high
    block.  The top separator holds only vertical-facet DOFs, last in the
    order ``solve`` factors in."""
    columns, centroids = facet_inputs(r1_system.u_space)
    order = assembly._nested_dissection(columns, centroids).order
    nv = len(order)
    axis = np.ptp(centroids, axis=0).argmax()
    low, high = np.split(np.argsort(centroids[:, axis], kind="stable"), [len(centroids) // 2])
    low_ids, high_ids = (np.unique(columns[c]) for c in (low, high))
    sep = np.intersect1d(low_ids, high_ids)
    assert len(sep)
    np.testing.assert_array_equal(np.sort(order[nv - len(sep):]), sep)
    full = assembly._facet_order(r1_system.u_space)[0]
    np.testing.assert_array_equal(np.sort(full[len(full) - len(sep):]), sep)
    assert sep.max() < nv

    n_low = len(low_ids) - len(sep)
    np.testing.assert_array_equal(np.sort(order[:n_low]), np.setdiff1d(low_ids, sep))
    block = np.full(nv, -1)
    block[order] = np.repeat([0, 1, 2], [n_low, nv - n_low - len(sep), len(sep)])
    owned = block[columns]
    assert not ((owned == 0).any(axis=1) & (owned == 1).any(axis=1)).any()


def test_solve_reports_the_separator_tree(r1_system):
    """``stats`` gives the separator tree's depth, 4 levels below the root
    over k=1 (1,2)'s 80 columns, and its largest separator, here the top
    one, the last node: 48 DOFs."""
    stats = assembly.solve(r1_system).stats
    tree = assembly._facet_order(r1_system.u_space)[1]
    assert stats["separator_tree_depth"] == tree.depth == 4
    assert stats["largest_separator"] == tree.bounds[-1] - tree.bounds[-2] == 48


def test_solve_reports_the_fronts(r1_system, monkeypatch):
    """``stats`` report the front tree, also when the right-hand side is zero
    and nothing is factored: one front per column of prisms and per
    separator-tree node, the rows of the largest, the entries the factor
    stores (padding included) and its flops."""
    stored = []
    factor = assembly._factor

    def spy(fronts, sources):
        parts = factor(fronts, sources)
        stored.append(sum(x.size for part in parts for x in part))
        return parts

    monkeypatch.setattr(assembly, "_factor", spy)
    stats = assembly.solve(r1_system).stats
    fronts = front_tree(r1_system)
    base = r1_system.u_space.mesh.base
    assert stats["n_fronts"] == fronts.n_fronts == base.n_triangles + len(fronts.tree.parent)
    assert stats["largest_front"] == fronts.largest_front > stats["largest_separator"]
    assert stats["lu_nnz"] == fronts.entries == stored[0]
    flops = 0
    for b in fronts.batches:
        (nb, N), P = b.dofs.shape, b.P
        flops += nb * (2 * P ** 3 + 2 * P * P * (N - P) + 2 * P * (N - P) ** 2)
    assert stats["factor_flops"] == flops
    zero = assembly.solve(dataclasses.replace(r1_system, rhs=np.zeros_like(r1_system.rhs)))
    for key in ("n_fronts", "largest_front", "lu_nnz", "factor_flops"):
        assert zero.stats[key] == stats[key]
    assert len(stored) == 1


@pytest.mark.parametrize("k, mode, level", [
    (1, "shallow", (2, 4)), (1, "deep", (3, 1)), (2, "shallow", (1, 2)),
], ids=["k1-2:4", "deep-3:1", "k2-1:2"])
def test_the_batching_moves_only_rounding(k, mode, level, monkeypatch):
    """Batching pads fronts to one shape, which changes how the factor
    rounds, not what it computes: a manufactured level solved in the
    default batches and with every front in a batch of its own, unpadded,
    has the same fronts and refinement steps, and its fields agree to 1e-9
    relative."""
    results, solve = [], assembly.solve

    def recorded(system, tolerance):
        results.append(solve(system, tolerance))
        return results[-1]

    monkeypatch.setattr(assembly, "solve", recorded)
    mms.convergence_study(k, [level], mode=mode)
    monkeypatch.setattr(assembly, "BATCH_ENTRIES", 0)
    mms.convergence_study(k, [level], mode=mode)
    ours, single = results
    assert ours.residual <= 1e-10 and single.residual <= 1e-10
    for key in ("n_fronts", "largest_front", "refinement_steps"):
        assert ours.stats[key] == single.stats[key]
    assert single.stats["lu_nnz"] < ours.stats["lu_nnz"]
    for a, b in ((ours.u, single.u), (ours.p, single.p)):
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-9 * np.abs(b.coeffs).max()


@pytest.mark.parametrize("k, mode, level", [
    (1, "shallow", (2, 4)), (1, "deep", (3, 1)), (2, "shallow", (1, 2)),
], ids=["k1-2:4", "deep-3:1", "k2-1:2"])
def test_the_factor_reads_every_source_and_frees_it(k, mode, level, monkeypatch):
    """One extend-add sums every front from its sources, the cells' S_e
    (-1) and the earlier batches' updates: the column batches' cell
    sources cover every cell exactly once, every batch's update but the
    root's is read by later batches, ``last_read`` gives the last batch
    that reads each source, and the dict ``solve`` passes to ``_factor``
    is empty when the factor returns."""
    seen, factor = [], assembly._factor

    def spy(fronts, sources):
        n_cells = len(sources[-1])
        parts = factor(fronts, sources)
        seen.append((fronts, n_cells, dict(sources)))
        return parts

    monkeypatch.setattr(assembly, "_factor", spy)
    mms.convergence_study(k, [level], mode=mode)
    [(fronts, n_cells, left)] = seen
    assert left == {}
    readers, cells = {}, []
    for i, b in enumerate(fronts.batches):
        for s, src, slots, rows in b.children:
            assert s < i and len(src) == len(slots) == len(rows)
            readers.setdefault(s, []).append(i)
            if s == -1:
                cells.append(src)
    np.testing.assert_array_equal(np.sort(np.concatenate(cells)), np.arange(n_cells))
    assert set(readers) == {-1, *range(len(fronts.batches) - 1)}
    assert fronts.last_read == {s: max(r) for s, r in readers.items()}


DISSECTION_LEVELS = {
    "k1-1:2": (1, 1, 2), "k1-2:4": (1, 2, 4), "k1-2:16": (1, 2, 16), "k1-3:8": (1, 3, 8),
    "deep-3:1": (1, 3, 1), "deep-4:2": (1, 4, 2), "k2-2:4": (2, 2, 4),
    "earth-1:2": (1, 1, 2, 6.371e6, 1e4),
}


@functools.lru_cache(maxsize=None)
def dissection_inputs(k, refinement, layers, a=1.0, thickness=1.0):
    """``facet_inputs`` of a ladder level's V1 space; deep mode dissects the
    same mesh as shallow mode."""
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(refinement, a), layers, thickness)
    return facet_inputs(fem.build_dof_map(m, mesh.classify_facets(m), fem.make_element("V1", k)))


@pytest.mark.parametrize("level", DISSECTION_LEVELS.values(), ids=DISSECTION_LEVELS.keys())
def test_nested_dissection_matches_the_recursive_one(level):
    """The level-synchronous dissection orders the DOFs bit for bit as the
    recursion that splits one box at a time (``conftest.nested_dissection``)."""
    columns, centroids = dissection_inputs(*level)
    expected = nested_dissection(columns, centroids, assembly.ND_LEAF)
    got = assembly._nested_dissection(columns, centroids).order
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("level", DISSECTION_LEVELS.values(), ids=DISSECTION_LEVELS.keys())
def test_separator_tree_invariants(level):
    """The tree's node ranges tile the order, each ascending; nodes are in
    post-order, so children come before their parent and every subtree is a
    run of nodes ending at its root; a leaf holds at most ``ND_LEAF`` DOFs or
    one column, and only DOFs whose owning columns lie in it; and every
    separator DOF is owned by a column of each of its node's two children."""
    columns, centroids = dissection_inputs(*level)
    tree = assembly._nested_dissection(columns, centroids)
    nv, n = len(tree.order), len(tree.parent)
    assert len(tree.bounds) == n + 1 and tree.bounds[0] == 0 and tree.bounds[-1] == nv
    sizes = np.diff(tree.bounds)
    assert (sizes >= 0).all()
    node = np.repeat(np.arange(n), sizes)
    assert (np.diff(tree.order)[node[1:] == node[:-1]] > 0).all()

    assert tree.parent[-1] == -1 and (tree.parent[:-1] > np.arange(n - 1)).all()
    subtree, depth = np.ones(n, dtype=int), np.zeros(n, dtype=int)
    for i in range(n - 1):
        subtree[tree.parent[i]] += subtree[i]
    for i in range(n - 2, -1, -1):
        depth[i] = depth[tree.parent[i]] + 1
    first = np.arange(n) - subtree + 1         # the subtree of i is first[i] ... i
    assert (first[tree.parent[:-1]] <= first[:-1]).all()
    assert tree.depth == depth.max()
    children = np.bincount(tree.parent[:-1], minlength=n)
    assert set(children) <= {0, 2}

    # on the closed sphere every vertical-facet DOF has two owning columns
    flat = columns.ravel()
    assert (np.bincount(flat) == 2).all()
    owners = np.repeat(np.arange(len(columns)), columns.shape[1])[np.argsort(flat, kind="stable")]
    leaf_of = tree.column_leaf[owners.reshape(nv, 2)[tree.order]]   # (nv, 2), in the order
    leaves = children == 0
    assert leaves[tree.column_leaf].all()
    on_leaf = leaves[node]
    assert (leaf_of[on_leaf] == node[on_leaf, None]).all()
    n_columns = np.bincount(tree.column_leaf, minlength=n)
    assert ((sizes <= assembly.ND_LEAF) | (n_columns == 1))[leaves].all()

    high = np.arange(n) - 1                     # an inner node's children: high, then low
    low = high - subtree[high]
    inner = np.flatnonzero(~leaves)
    assert (tree.parent[high[inner]] == inner).all() and (tree.parent[low[inner]] == inner).all()
    sep_node, sep_leaves = node[~on_leaf, None], leaf_of[~on_leaf]
    for child in (low, high):
        inside = (first[child[sep_node]] <= sep_leaves) & (sep_leaves <= child[sep_node])
        assert (inside.sum(axis=1) == 1).all()


@pytest.mark.parametrize("k, mode, level, steps", [
    (2, "shallow", (1, 2), 1),
    (1, "deep", (3, 1), 2),
], ids=["k2-shallow-1:2", "k1-deep-3:1"])
def test_nested_dissection_over_cells_cuts_lu_fill(k, mode, level, steps, monkeypatch):
    """The column dissection keeps the factor small: its fronts store under
    a quarter of what one undissected front of every vertical-facet DOF
    would, and at most twice the fill of SuperLU's sparse LU of S in the
    same order (331,872 and 258,040 here; the fronts store 465,840 and
    442,016, padding included).  The float32 factor needs ``steps``
    refinement steps (SuperLU took 1 at both levels)."""
    systems, solve = [], assembly.solve

    def recorded(system, tolerance):
        systems.append(system)
        return solve(system, tolerance)

    monkeypatch.setattr(assembly, "solve", recorded)
    (row,) = mms.convergence_study(k, [level], mode=mode).rows
    stored = row.solve_stats["lu_nnz"]
    assert row.solve_stats["refinement_steps"] == steps
    (system,) = systems
    from scipy.sparse.linalg import splu

    order = assembly._facet_order(system.u_space)[0]
    S = condensed_matrix(system)[order][:, order].tocsc()
    S.eliminate_zeros()
    fill = splu(S.astype(np.float32), permc_spec="NATURAL", diag_pivot_thresh=0.01).nnz
    assert 0 < stored <= 2 * fill
    monkeypatch.setattr(assembly, "ND_LEAF", n_vertical_facet_dofs(system))
    undissected = front_tree(system)
    assert undissected.tree.depth == 0 and 4 * stored < undissected.entries


def test_earth_shell_keeps_the_unit_radius_factor(monkeypatch):
    """At the Earth's radius, a = 6.371e6 with H = 1e4, the manufactured
    rotation rate is 1/2 as at a = 1.  The fronts depend only on the
    mesh's topology, so each level stores the factor's entries exactly as
    the a = 1 level does, and the first solve meets the contract.

    The S_e's largest entry is the inner boundary's identity 1, so
    ``solve`` scales by 2^(FACTOR_TOP_LOG2 - 1).  The factor of the
    unscaled S_e stores 624 and 10,032 float32 subnormals, most of them in
    F21, whose arithmetic is slow; the scaled one stores none."""
    factored = []
    factor = assembly._factor

    def spy(fronts, sources):
        factored.append((fronts, {i: S.copy() for i, S in sources.items()}))
        parts = factor(fronts, sources)
        factored[-1] += (float32_subnormals(parts),)
        return parts

    monkeypatch.setattr(assembly, "_factor", spy)
    table = mms.convergence_study(1, [(1, 2), (2, 4)], a=6.371e6, thickness=1e4)
    unit = mms.convergence_study(1, [(1, 2), (2, 4)])
    assert [r.solve_stats["lu_nnz"] for r in table.rows] == \
        [r.solve_stats["lu_nnz"] for r in unit.rows]
    assert [r.solve_stats["refinement_steps"] for r in table.rows] == [0, 0]
    for row, (fronts, sources, scaled) in zip(table.rows, factored):
        e = row.solve_stats["factor_scale_log2"]
        assert e == assembly.FACTOR_TOP_LOG2 - 1
        with np.errstate(all="ignore"):
            unscaled = float32_subnormals(
                factor(fronts, {i: np.ldexp(S, -e) for i, S in sources.items()}))
        assert unscaled > 0 and 20 * scaled <= unscaled


def test_factor_scaling_is_exact(r1_system, monkeypatch):
    """At a = 1 the float32 factor's scaling by 2^e is exact: the S_e's
    largest entry lies in [2^(FACTOR_TOP_LOG2 - 1), 2^FACTOR_TOP_LOG2), and
    the factor of the scaled S_e is that of the unscaled ones bit for bit, F11^-1 2^-e times, X the same and F21 2^e times, but for the
    padding pivots' identity, which is not scaled."""
    captured = []
    factor = assembly._factor

    def spy(fronts, sources):
        captured.append((fronts, {i: S.copy() for i, S in sources.items()}))
        captured.append(factor(fronts, sources))
        return captured[-1]

    monkeypatch.setattr(assembly, "_factor", spy)
    e = assembly.solve(r1_system).stats["factor_scale_log2"]
    (fronts, sources), parts = captured
    S_e = assembly._condense(r1_system)[0]
    assert np.frexp(np.abs(S_e).max())[1] + e == assembly.FACTOR_TOP_LOG2
    reference = factor(fronts, {i: np.ldexp(S, -e) for i, S in sources.items()})
    ng = n_facet_dofs(r1_system)
    padded = 0
    for b, got, ref in zip(fronts.batches, parts, reference):
        pivot = b.dofs[:, :b.P] < ng
        real = pivot[:, :, None] & pivot[:, None, :]
        padded += np.count_nonzero(~pivot)
        np.testing.assert_array_equal(got[0][real], np.ldexp(ref[0][real], -e))
        np.testing.assert_array_equal(got[0][~real], ref[0][~real])
        np.testing.assert_array_equal(got[1], ref[1])
        np.testing.assert_array_equal(got[2], np.ldexp(ref[2], e))
    assert padded > 0


@pytest.mark.parametrize("level", [(1, 1), (1, 2), (3, 8), (4, 2)], ids=str)
def test_column_order_does_not_depend_on_the_radius(level):
    """The facet order ``solve`` factors in is the a = 1 order at every
    radius.  Centroids of the scaled vertices broke the icosahedral mesh's
    exact coordinate ties differently at some radii: (1,1) at a = 1e7
    ordered 178 positions differently and filled 10,256 against 9,928 with
    no row swapped, and deep (4,2) differed at 7 of these 8 radii."""
    def order(a):
        m = mesh.extrude_radial(mesh.build_icosahedral_sphere(level[0], a), level[1], 1.0)
        V1 = fem.build_dof_map(m, mesh.classify_facets(m), fem.make_element("V1", 1))
        return assembly._facet_order(V1)[0]

    ref = order(1.0)
    for a in (0.3, 2.0, 1e5, 1e6, 6.371e6, 1e7, 3e7, 1e9):
        np.testing.assert_array_equal(order(a), ref, err_msg=f"a = {a}")


def test_strong_rotation_swaps_rows_and_meets_the_contract():
    """ProblemConfig's default rotation x3 / 2 is a rate of a / 2: at a = 1000
    with the Earth's aspect ratio the Coriolis block dwarfs the mass block,
    so SuperLU swapped rows (689) and more than doubled the fill of k=1
    (1,4) at a = 1 (146,890).  The fronts pivot only inside their pivot
    blocks' base blocks, which the factor does not report; refinement still
    meets the residual contract."""
    a, H = 1000.0, 1000.0 / 637
    V1, V2 = build_spaces(mesh.extrude_radial(mesh.build_icosahedral_sphere(1, a), 4, H), 1)
    case, ops = mms.ManufacturedCase(a=a, H=H), mms.ShallowOperators(a=a, H=H)
    config = assembly.ProblemConfig(k=1, f4=case.derived_f4(ops), g=case.derived_g(ops))
    result = assembly.solve(assembly.apply_inner_bc(assembly.assemble(config, V1, V2)))
    assert result.residual <= 1e-10


def test_condensed_pattern_within_cell_graph(r1_system):
    """S couples two facet DOFs only if they share a cell, and the front
    that eliminates the earlier of the two, in the order of
    ``_facet_order``, holds the later one, where the factor adds their
    coupling."""
    S = condensed_matrix(r1_system).tocoo()
    nz = (S.data != 0.0) & (S.row != S.col)
    i, j = S.row[nz], S.col[nz]
    ng = n_facet_dofs(r1_system)
    assert nz.sum() > ng
    cell_facets = r1_system.u_space.cell_dofs[:, :assembly._n_facet(r1_system)]
    nc, f = cell_facets.shape
    E = sp.csr_matrix((np.ones(nc * f), (cell_facets.ravel(), np.repeat(np.arange(nc), f))),
                      shape=(ng, nc))
    graph = (E @ E.T).tocsr()
    assert (np.asarray(graph[i, j]).ravel() > 0).all()

    order = assembly._facet_order(r1_system.u_space)[0]
    rank = np.empty(ng, dtype=np.int64)
    rank[order] = np.arange(ng)
    fronts, owner, holds = front_tree(r1_system), np.empty(ng, dtype=np.int64), []
    for k, b in enumerate(fronts.batches):
        front = k * 2 ** 20 + np.arange(len(b.dofs))
        rows = np.broadcast_to(front[:, None], b.dofs.shape)
        real = b.dofs < ng
        owner[b.dofs[:, :b.P][real[:, :b.P]]] = rows[:, :b.P][real[:, :b.P]]
        holds.append(rows[real] * ng + b.dofs[real])
    first, later = np.where(rank[i] < rank[j], i, j), np.where(rank[i] < rank[j], j, i)
    assert np.isin(owner[first] * ng + later, np.concatenate(holds)).all()


def test_refinement_residuals_fall_to_the_tolerance(r1_system):
    """The float32 factor's residuals, measured in float64 on the full matrix,
    fall strictly at every step and stop at the first one within tolerance."""
    result = assembly.solve(r1_system)
    stats = result.stats
    res = stats["residuals"]
    assert stats["factor_dtype"] == "float32"
    assert len(res) == stats["refinement_steps"] + 1 >= 2
    assert all(b < a for a, b in zip(res, res[1:]))
    assert res[-1] == result.residual <= 1e-10 < res[-2]


@pytest.mark.parametrize("scale", [1e-40, 1e40])
def test_refinement_at_any_right_hand_side_scale(r1_system, scale):
    """The float32 solves see each correction scaled to unit max, so a
    right-hand side far from 1 neither underflows nor overflows them."""
    reference = assembly.solve(r1_system)
    result = assembly.solve(dataclasses.replace(r1_system, rhs=scale * r1_system.rhs))
    assert result.residual <= 1e-10
    np.testing.assert_allclose(result.p.coeffs, scale * reference.p.coeffs, rtol=1e-8)


def test_solve_is_deterministic(r1_system):
    first, second = assembly.solve(r1_system), assembly.solve(r1_system)
    for a, b in ((first.u, second.u), (first.p, second.p)):
        assert a.coeffs.tobytes() == b.coeffs.tobytes()
    assert first.stats == second.stats


def test_stalled_refinement_is_solver_error(r1_system, monkeypatch):
    """A factor of a perturbed S cuts the residual threefold a step: the
    loop raises with the residual history and never refactors in float64."""
    dtypes = []
    factor = assembly._factor

    def perturbed(fronts, sources):
        dtypes.append({S.dtype for S in sources.values()})
        return factor(fronts, {i: np.float32(1.5) * S for i, S in sources.items()})

    monkeypatch.setattr(assembly, "_factor", perturbed)
    with pytest.raises(assembly.SolverError, match=r"residuals \d\.\d{3}e"):
        assembly.solve(r1_system)
    assert dtypes == [{np.dtype(np.float32)}]


def test_refinement_is_capped(r1_system, monkeypatch):
    monkeypatch.setattr(assembly, "MAX_REFINEMENT_STEPS", 0)
    with pytest.raises(assembly.SolverError, match="after 0 refinement steps"):
        assembly.solve(r1_system)


def test_near_singular_condensed_matrix_is_solver_error(r1_system):
    """In a cell that alone owns a facet DOF i, the row of the pressure DOF
    j becomes row i plus 1e-14 on its diagonal, with an inconsistent
    right-hand side.  The local block stays invertible, so S is near
    singular, and threshold pivoting must not return a number that misses
    the residual contract."""
    f = assembly._n_facet(r1_system)
    dofs = r1_system.cell_dofs
    owners = np.bincount(dofs[:, :f].ravel())[dofs[:, :f]]
    free = ~np.isin(dofs[:, :f], inner_dofs(r1_system))
    c, i = np.argwhere((owners == 1) & free)[0]
    j = dofs.shape[1] - 1
    E = r1_system.cell_matrices.copy()
    E[c, j] = E[c, i]
    E[c, j, j] += 1e-14 * abs(E[c, i, i])
    rhs = np.ones(len(r1_system.rhs))
    rhs[dofs[c, j]] = 2.0
    system = dataclasses.replace(r1_system, cell_matrices=E, rhs=rhs)
    A = system.matrix
    row_i, row_j = A[dofs[c, i]].toarray(), A[dofs[c, j]].toarray()
    row_j[0, dofs[c, j]] -= 1e-14 * abs(E[c, i, i])
    np.testing.assert_array_equal(row_i, row_j)
    with pytest.raises(assembly.SolverError, match="exceeds tolerance"):
        assembly.solve(system)


def test_weak_residual_of_solution(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1,
        f4=lambda x: geometry.stack_planes((x[1], -x[0], x[3], x[2])),
        g=lambda x: x[0] * x[1],
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert weak_residual(system, result) <= 1e-9


def test_weak_residual_detects_perturbation(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1, g=lambda x: np.ones(geometry.point_shape(x))
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    free = np.setdiff1d(np.arange(system.n_u), inner_dofs(system))
    result.u.coeffs[free[0]] += 1.0
    assert weak_residual(system, result) > 1e-3


def test_weak_residual_sign_flip_invariant(annulus_r0_l1_module):
    """Negating test functions (rows) leaves the defect measure unchanged."""
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1, g=lambda x: x[3])
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    result.u.coeffs[-1] += 0.01
    r0 = weak_residual(system, result)
    signs = np.ones(system.matrix.shape[0])
    signs[::2] = -1.0
    flipped = assembly.LinearSystem(
        cell_matrices=signs[system.cell_dofs][:, :, None] * system.cell_matrices,
        rhs=signs * system.rhs,
        u_space=system.u_space,
        p_space=system.p_space,
        stats=system.stats,
    )
    assert abs(weak_residual(flipped, result) - r0) <= 1e-14


def test_deep_mode_assembles_and_solves(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="deep", k=1, f4=lambda x: geometry.stack_planes((x[3], x[2], -x[1], x[0]))
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert result.residual <= 1e-10
    assert np.isfinite(result.u.coeffs).all()


def cell_local_blocks(system):
    """(n_cells, n_local, n_local) blocks of the cell-local DOFs of the matrix."""
    local = cell_local_dofs(system)
    nc, nl = local.shape
    rows = np.repeat(local, nl, axis=1).ravel()
    cols = np.tile(local, (1, nl)).ravel()
    return np.asarray(system.matrix[rows, cols]).reshape(nc, nl, nl)


@pytest.mark.parametrize("k", [1, 2])
def test_shallow_cell_matrix_does_not_depend_on_the_layer(icosa_r1, k):
    """The shallow metric does not depend on height, on the discrete operator.

    The cell-local blocks (V1 interior moments and V2 DOFs, all of sign +1)
    of a column's four layers agree in shallow mode and differ in deep mode.
    """
    m = mesh.extrude_radial(icosa_r1, 4, 1.0)
    V1, V2 = build_spaces(m, k)
    interior = [i for i, d in enumerate(V1.element.dofs) if d.entity[0] == "interior"]
    assert (V1.cell_signs[:, interior] == 1).all() and (V2.cell_signs == 1).all()
    spread = {}
    for mode in ("shallow", "deep"):
        system = assembly.assemble(assembly.ProblemConfig(mode=mode, k=k), V1, V2)
        blocks = cell_local_blocks(system).reshape(m.base.n_triangles, m.n_layers, -1)
        spread[mode] = np.abs(blocks - blocks[:, :1]).max() / np.abs(blocks).max()
    assert spread["shallow"] <= 1e-14
    assert spread["deep"] > 1e-2


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["shallow", "deep"])
def test_rotation_is_read_at_the_chart_nodes(annulus_r0_l1_module, k, mode):
    """Assembly reads omega4 only at the chart's nodes: a rotation that
    differs from the traditional one off the nodes alone, by a multiple of
    |x|^2 - a^2, gives the same cell matrices, which the rotation moves."""
    V1, V2 = build_spaces(annulus_r0_l1_module, k)
    a = annulus_r0_l1_module.base.radius

    def omega4(x):
        x = geometry.coordinate_planes(x)
        return 0.5 * x[2] + 3.0 * (x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - a * a)

    E = [assembly.assemble(assembly.ProblemConfig(mode=mode, k=k, omega4=om), V1, V2).cell_matrices
         for om in (assembly.traditional_omega, omega4)]
    assert np.abs(E[1] - E[0]).max() <= 1e-14 * np.abs(E[0]).max()
    off = assembly.assemble(assembly.ProblemConfig(mode=mode, k=k, coriolis_enabled=False), V1, V2)
    assert np.abs(off.cell_matrices - E[0]).max() > 1e-2 * np.abs(E[0]).max()


def test_a_rotation_given_as_a_vector_is_rejected(annulus_r0_l1_module):
    """``omega4`` gives the scalar omega_4: a provider that still returns
    the vector (0, 0, 0, omega_4), (..., 4), does not broadcast to the chart's
    nodes, so assembly raises before the forcing is read and yields no
    number, naming ``omega4``, the nodes' shape and the shape it got."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 1)

    def omega4(x):
        return geometry.stack_planes((0.0, 0.0, 0.0, assembly.traditional_omega(x)))

    def f4(x):
        pytest.fail("the forcing was read before the rotation")

    with pytest.raises(ValueError, match=r"omega4 .*scalar.*\(20, 6\).*\(20, 6, 4\)"):
        assembly.assemble(assembly.ProblemConfig(k=1, omega4=omega4, f4=f4), V1, V2)


@pytest.mark.parametrize("mode", ["shallow", "deep"])
def test_a_base_triangle_wound_inward_is_rejected(icosa_r0, mode):
    """``base_mesh_from_triangles`` does not check winding; a cell on a base
    triangle wound inward is inverted on the chart as in the annulus, and
    assembly names it instead of assembling it with the wrong flux sign."""
    triangles = icosa_r0.triangles.copy()
    triangles[3] = triangles[3][::-1]
    base = mesh.base_mesh_from_triangles(icosa_r0.vertices, triangles)
    V1, V2 = build_spaces(mesh.extrude_radial(base, 1, 1.0), 1)
    with pytest.raises(geometry.DegenerateMapError, match="cell is inverted"):
        assembly.assemble(assembly.ProblemConfig(mode=mode, k=1), V1, V2)


def per_point_velocity_block(config, V1, matrix_degree=None):
    """A_uu (a CSR) and b_u by the per-point physical-basis formula in R^3.

    With L = J phi at every quadrature point, Om3 = J pinv4 (omega_4 i4) and
    F3 = J pinv4 f4: A_uu = sum_q w/det L.(L + 2 Om3 x L) and
    b_u = sum_q w L.F3, scattered with the DOF signs.  A_uu is integrated
    at ``matrix_degree``, by default the matrix rule 2k + 1 of ``assemble``,
    and b_u at ``config.degree``.  Shallow mode uses the hedgehog mesh, so
    its match with ``assemble`` on the chart is the paper's equivalence.
    """
    m = V1.mesh
    if config.mode == "shallow":
        coords = geometry.hedgehog_coordinates(m)
    else:
        coords = assembly.coordinate_field(config, m)
    x4 = geometry.manifold_coordinates(m)
    cells = np.arange(m.n_cells)
    J4 = geometry.jacobian4(x4, cells, np.array([[1 / 3, 1 / 3, 0.5]]))
    pinv4, _ = geometry.pseudo_inverse_pseudo_det(J4)

    def at(degree):
        """Weights, J, push = J pinv4, the manifold points and L at a rule."""
        rule = fem.quadrature_prism(degree)
        J = geometry.jacobian(coords, cells, rule.points)
        x4q = np.einsum("qv,evi->eqi", geometry.nodal_basis(rule.points), x4)
        L = np.einsum("eqcd,qid->eqic", J.J, fem.tabulate(V1.element, rule.points).values)
        return rule.weights, J, np.matmul(J.J, pinv4), geometry.coordinate_planes(x4q), L

    w, J, push, x, L = at(matrix_degree or fem.exact_matrix_degree(config.k))
    R = L
    if config.coriolis_enabled:
        omega = geometry.stack_planes((0.0, 0.0, 0.0, config.omega4(x)))
        Om3 = np.matmul(push, omega[..., None])[..., 0]
        R = L + np.cross(2.0 * Om3[:, :, None, :], L)
    A = np.einsum("q,eq,eqic,eqjc->eij", w, 1.0 / J.det, L, R)
    w, _, push, x, L = at(config.degree)
    F3 = np.matmul(push, config.f4(x)[..., None])[..., 0]
    b = np.einsum("q,eqic,eqc->ei", w, L, F3)

    sg, gd = V1.cell_signs, V1.cell_dofs
    nd = V1.element.ndofs
    A = A * sg[:, :, None] * sg[:, None, :]
    A = sp.coo_matrix(
        (A.ravel(), (np.repeat(gd, nd, axis=1).ravel(), np.tile(gd, (1, nd)).ravel())),
        shape=(V1.n_dofs, V1.n_dofs),
    ).tocsr()
    rhs = np.zeros(V1.n_dofs)
    np.add.at(rhs, gd.ravel(), (b * sg).ravel())
    return A, rhs


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["shallow", "deep"])
@pytest.mark.parametrize("coriolis", [True, False])
def test_velocity_block_matches_per_point_formula(annulus_r0_l1_module, k, mode, coriolis):
    """The reference-tensor contraction equals the per-point formula; in
    shallow mode the chart's GEMM equals the hedgehog's per-point formula.
    The rotation is vertical and in P1 x P1 on the chart, so its nodal
    interpolant is exact and the formula's general cross product checks
    the one rotation plane."""
    V1, V2 = build_spaces(annulus_r0_l1_module, k)
    config = assembly.ProblemConfig(
        mode=mode, k=k, coriolis_enabled=coriolis,
        omega4=lambda x: 0.5 * x[2] - 0.2 * x[0] * x[3] + 0.1 * x[1],
        f4=lambda x: geometry.stack_planes((x[1], -x[0], x[3], x[2])),
    )
    system = assembly.assemble(config, V1, V2)
    A_ref, b_ref = per_point_velocity_block(config, V1)
    nu = system.n_u
    A = system.matrix[:nu, :nu]
    assert abs(A - A_ref).max() <= 1e-13 * abs(A_ref).max()
    b = system.rhs[:nu]
    assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


@pytest.mark.parametrize("k, bounds", [
    (1, {(0, 1): 7.5e-3, (1, 2): 2.8e-3, (2, 4): 8.5e-4}),
    (2, {(0, 1): 5.1e-3, (1, 2): 2.5e-3}),
], ids=["k1", "k2"])
def test_deep_matrix_rule_gap_falls_with_refinement(k, bounds):
    """The deep matrix at its rule 2k + 1 against the per-point formula at
    the right-hand-side rule, ``default_quadrature_degree(k)``.

    det J varies only across the layer and G / det is rational only in
    zeta, with parameter s - 1 = dr / r, so the rules differ by a
    quadrature error that falls as the layers thin.  Measured relative
    max-entry gaps: 7.40e-3, 2.77e-3, 8.40e-4 at k=1 (0,1), (1,2), (2,4)
    and 5.02e-3, 2.44e-3 at k=2 (0,1), (1,2).
    """
    gaps = []
    for (refinement, layers), bound in bounds.items():
        m = mesh.extrude_radial(mesh.build_icosahedral_sphere(refinement, 1.0), layers, 1.0)
        V1, V2 = build_spaces(m, k)
        config = assembly.ProblemConfig(mode="deep", k=k)
        system = assembly.assemble(config, V1, V2)
        A_ref, _ = per_point_velocity_block(config, V1, fem.default_quadrature_degree(k))
        A = system.matrix[:system.n_u, :system.n_u]
        gaps.append(abs(A - A_ref).max() / abs(A_ref).max())
        assert gaps[-1] <= bound
    assert all(fine < coarse for coarse, fine in zip(gaps, gaps[1:]))


def four_block_system(config, V1, V2):
    """The block system with each block scattered on its own.

    A_uu, D, -D^T and -M_p go through four index triplets, b_u and b_p
    through two ``add.at`` calls; the per-chunk kernels are those of
    ``assemble`` but for the rotation, which is the general one here: A_uu
    is the G / det planes and the three planes of 2 omega_hat = 2 pinv4
    (omega_4 i4) against [T_sym; T_anti] with one antisymmetric tensor per
    component, where ``assemble`` keeps the one plane 2 omega_4 / dh; the
    vector is interpolated from the cell's nodes, and
    b_u is G pinv4 f4 against Tb.  The matrix blocks use
    the exact rule of degree 2k + 1 and the right-hand sides
    ``config.degree``, in both modes.  Both point sets are mapped in one
    pass.
    """
    x4 = geometry.manifold_coordinates(V1.mesh)
    rule = fem.quadrature_prism(config.degree)
    mrule = fem.quadrature_prism(2 * config.k + 1)
    nq, nm = len(rule.weights), len(mrule.weights)
    tab1, tab1m = fem.tabulate(V1.element, rule.points), fem.tabulate(V1.element, mrule.points)
    psi, psim = (fem.tabulate(V2.element, r.points).values for r in (rule, mrule))
    nd1, nd2 = V1.element.ndofs, V2.element.ndofs
    n_u = V1.n_dofs
    n = n_u + V2.n_dofs
    wm = mrule.weights
    T = np.einsum("q,qic,qjd->cdqij", wm, tab1m.values, tab1m.values)
    T_sym = [T[c, d] + T[d, c] if c != d else T[c, c] for c, d in geometry.METRIC_PAIRS]
    T_anti = [T[2, 1] - T[1, 2], T[0, 2] - T[2, 0], T[1, 0] - T[0, 1]]
    T_uu = np.concatenate(T_sym + T_anti).reshape(9 * nm, nd1 * nd1)
    n_planes = 9 if config.coriolis_enabled else 6
    Tb = (rule.weights[:, None, None] * tab1.values).transpose(2, 0, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psim, psim).reshape(nm, nd2 * nd2)
    D_ref = np.einsum("q,qa,qd->ad", wm, psim, tab1m.divergences)
    w, wm = rule.tensor_weights, mrule.tensor_weights
    omega_basis = geometry.nodal_basis(mrule.points)
    omega_nodes = geometry.stack_planes(
        (0.0, 0.0, 0.0, config.omega4(geometry.coordinate_planes(x4))))

    rows, cols, data = [], [], []
    rhs = np.zeros(n)
    for cells, (q, m) in geometry.quadrature_chunks(x4, config.mode, rule, mrule):
        ch = len(cells)
        K = np.empty((ch, n_planes) + m.shape[1:])
        for i, g in enumerate(m.G):
            np.divide(g, m.det, out=K[:, i])
        if config.coriolis_enabled:
            om4 = (omega_basis @ omega_nodes[cells]).reshape(m.shape + (4,))
            for i, o in enumerate(m.pull(om4)):
                np.multiply(2.0, o, out=K[:, 6 + i])
        A_uu = (K.reshape(ch, -1) @ T_uu[:n_planes * nm]).reshape(ch, nd1, nd1)
        fhat = np.empty((ch, 3) + q.shape[1:])
        for i, v in enumerate(q.lower(q.pull(config.f4(q.x)))):
            fhat[:, i] = v
        b_u = fhat.reshape(ch, 3 * nq) @ Tb
        M_p = np.broadcast_to(wm * m.det, m.shape).reshape(ch, nm) @ Tp
        b_p = np.broadcast_to(w * q.det * config.g(q.x), q.shape).reshape(ch, nq) @ psi

        gd1, sg1 = V1.cell_dofs[cells], V1.cell_signs[cells]
        gd2 = V2.cell_dofs[cells] + n_u
        A_uu *= sg1[:, :, None] * sg1[:, None, :]
        rows.append(np.repeat(gd1, nd1, axis=1).ravel())
        cols.append(np.tile(gd1, (1, nd1)).ravel())
        data.append(A_uu.ravel())
        Ds = sg1[:, None, :] * D_ref[None, :, :]
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
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return A, rhs


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["shallow", "deep"])
def test_mixed_cell_scatter_matches_four_blocks(annulus_r1_l2, k, mode):
    """One mixed cell matrix per chunk gives bit for bit the four-block CSR."""
    V1, V2 = build_spaces(annulus_r1_l2, k)
    config = assembly.ProblemConfig(
        mode=mode, k=k,
        f4=lambda x: geometry.stack_planes((x[1], -x[0], x[3], x[2])),
        g=lambda x: x[0] * x[3],
    )
    system = assembly.assemble(config, V1, V2)
    A_ref, rhs_ref = four_block_system(config, V1, V2)
    A_ref.eliminate_zeros()     # the oracle stores no zeros
    assert_same_csr(system.matrix, A_ref)
    assert system.rhs.tobytes() == rhs_ref.tobytes()

    # the inner boundary condition as the global-matrix assembly imposed it
    constrained = assembly.apply_inner_bc(system)
    dofs = inner_dofs(constrained)
    keep = np.ones(len(rhs_ref))
    keep[dofs] = 0.0
    P = sp.diags(keep)
    ident = sp.coo_matrix((np.ones(len(dofs)), (dofs, dofs)), shape=A_ref.shape)
    assert_same_csr(constrained.matrix, (P @ A_ref @ P + ident).tocsr())
    assert constrained.rhs.tobytes() == (rhs_ref * keep).tobytes()


def assert_same_csr(A, A_ref):
    np.testing.assert_array_equal(A.indptr, A_ref.indptr)
    np.testing.assert_array_equal(A.indices, A_ref.indices)
    assert A.data.tobytes() == A_ref.data.tobytes()


@pytest.fixture(scope="module", params=[
    (k, mode) for k in (1, 2) for mode in ("shallow", "deep")], ids=lambda p: f"k{p[0]}-{p[1]}")
def cell_system(request, annulus_r1_l2):
    k, mode = request.param
    V1, V2 = build_spaces(annulus_r1_l2, k)
    config = assembly.ProblemConfig(mode=mode, k=k, g=lambda x: x[0] * x[3])
    return assembly.assemble(config, V1, V2)


@pytest.fixture(scope="module")
def bc_system(cell_system):
    return assembly.apply_inner_bc(cell_system)


def test_inner_bc_leaves_its_input_unchanged(cell_system):
    """``apply_inner_bc`` writes into a copy, so the module-scoped systems
    that several tests constrain stay as assembled.  Each constrained DOF
    lies in exactly one cell, so the 1 put on its diagonal there is the
    global diagonal."""
    E, rhs = cell_system.cell_matrices.tobytes(), cell_system.rhs.tobytes()
    assembly.apply_inner_bc(cell_system)
    assert cell_system.cell_matrices.tobytes() == E
    assert cell_system.rhs.tobytes() == rhs
    owners = np.bincount(cell_system.cell_dofs.ravel())
    np.testing.assert_array_equal(owners[inner_dofs(cell_system)], 1)


def test_cell_matvec_matches_the_oracle_matrix(cell_system, bc_system):
    """The refinement's residual operator, from the cell matrices, equals the
    product with the global CSR, with and without the inner boundary
    condition."""
    rng = np.random.default_rng(7)
    for system in (bc_system, cell_system):
        for _ in range(3):
            z = rng.standard_normal(len(system.rhs))
            ref = system.matrix @ z
            assert np.abs(system.matvec(z) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_cell_condensation_matches_the_sparse_one(bc_system):
    """S summed from the cell Schur complements equals A_gg - A_gl B^-1 A_lg
    of the oracle matrix over the facet DOFs 0 ... ng-1."""
    A = bc_system.matrix
    facets = np.arange(n_facet_dofs(bc_system))
    local = cell_local_dofs(bc_system).ravel()
    B_inv = np.linalg.inv(cell_local_blocks(bc_system))
    A_gl = A[facets][:, local]
    W = sp.block_diag(list(B_inv)) @ A[local][:, facets]
    S_ref = (A[facets][:, facets] - A_gl @ W).toarray()
    S = condensed_matrix(bc_system).toarray()
    assert np.abs(S - S_ref).max() <= 1e-13 * np.abs(S_ref).max()


def test_cell_dofs_is_built_once_per_system(coarse_system):
    """``cell_dofs`` is built once per system, so ``matvec`` does not rebuild
    it at every refinement step, and the system that ``apply_inner_bc``
    returns through ``dataclasses.replace`` holds its own copy."""
    first = coarse_system.cell_dofs
    assert coarse_system.cell_dofs is first
    constrained = assembly.apply_inner_bc(coarse_system)
    assert constrained.cell_dofs is constrained.cell_dofs
    assert not np.shares_memory(constrained.cell_dofs, first)
    np.testing.assert_array_equal(constrained.cell_dofs, first)


@pytest.mark.parametrize("n", [1, 5, 16, 17, 40])
def test_invert_matches_numpy(n):
    """The block-elimination inverse of a stack of float32 blocks agrees
    with ``np.linalg.inv`` in float64 to float32 accuracy, at orders below,
    at and above ``INVERT_BASE``."""
    rng = np.random.default_rng(n)
    A = rng.standard_normal((3, n, n)) + 2 * n * np.eye(n)
    got = assembly._invert(A.astype(np.float32))
    assert got.dtype == np.float32
    ref = np.linalg.inv(A)
    assert np.abs(got - ref).max() <= 1e-5 * np.abs(ref).max()


def test_singular_pivot_block_is_solver_error(r1_system):
    """A facet DOF whose row and column are zero in every cell makes S, and
    the pivot block of the front that eliminates it, singular: a
    SolverError, not a number."""
    f = assembly._n_facet(r1_system)
    dofs = r1_system.cell_dofs
    d = np.setdiff1d(dofs[:, :f], inner_dofs(r1_system))[0]
    cells, pos = np.nonzero(dofs == d)
    E = r1_system.cell_matrices.copy()
    E[cells, pos, :] = 0.0
    E[cells, :, pos] = 0.0
    system = dataclasses.replace(r1_system, cell_matrices=E, rhs=np.ones(len(r1_system.rhs)))
    with pytest.raises(assembly.SolverError, match="singular pivot block"):
        assembly.solve(system)


def test_solve_never_builds_the_global_matrix(r1_system, monkeypatch):
    expected = assembly.solve(r1_system)

    def no_matrix(system):
        raise AssertionError("solve read LinearSystem.matrix")

    monkeypatch.setattr(assembly.LinearSystem, "matrix", property(no_matrix))
    result = assembly.solve(r1_system)
    assert result.residual <= 1e-10
    assert result.p.coeffs.tobytes() == expected.p.coeffs.tobytes()


def nbytes(obj):
    """Bytes of the numpy arrays in nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(x) for x in obj)
    return 0


def test_the_factor_holds_only_b_inv_s_and_the_index_arrays(monkeypatch):
    """k=2 (1,2): of what ``solve`` allocates, only B^-1, S as the cells'
    float32 S_e (360 KiB here, against 633 KiB of summed column fronts)
    and the index arrays (the front tree's maps and ``cell_dofs``, which
    the facet and local DOFs view) are alive when ``_factor`` is called,
    with 64 KiB for small objects; the float64 S_e (720 KiB) and W = B^-1
    E_lg (450 KiB) are not.  The factor frees the float32 S_e before the first
    triangular solve."""
    V1, V2 = build_spaces(mesh.extrude_radial(mesh.build_icosahedral_sphere(1, 1.0), 2, 1.0), 2)
    system = assembly.apply_inner_bc(
        assembly.assemble(assembly.ProblemConfig(k=2, g=lambda x: x[0]), V1, V2))
    seen = {}
    factor, front_solve = assembly._factor, assembly._front_solve

    def spy(fronts, sources):
        seen["traced"] = tracemalloc.get_traced_memory()[0]
        seen["index"] = nbytes(fronts)
        seen["refs"] = [weakref.ref(S) for S in sources.values()]
        return factor(fronts, sources)

    def solve_spy(fronts, parts, w):
        seen.setdefault("alive", [ref() is not None for ref in seen["refs"]])
        return front_solve(fronts, parts, w)

    monkeypatch.setattr(assembly, "_factor", spy)
    monkeypatch.setattr(assembly, "_front_solve", solve_spy)
    tracemalloc.start()
    try:
        result = assembly.solve(system)
    finally:
        tracemalloc.stop()
    assert result.residual <= 1e-10

    nc, nd = system.cell_matrices.shape[:2]
    f = assembly._n_facet(system)
    b_inv, cells = nc * (nd - f) ** 2 * 8, nc * f * f * 4
    assert seen["traced"] <= b_inv + cells + seen["index"] + nc * nd * 8 + 64 * 1024
    assert seen["alive"] and not any(seen["alive"])


def test_mismatched_cell_matrices_rejected(coarse_system):
    E = coarse_system.cell_matrices
    with pytest.raises(ValueError, match=r"\(20, 8, 9\).*\(20, 9, 9\)"):
        dataclasses.replace(coarse_system, cell_matrices=E[:, 1:])
    with pytest.raises(ValueError, match=r"\(19, 9, 9\).*\(20, 9, 9\)"):
        dataclasses.replace(coarse_system, cell_matrices=E[1:])


def test_mismatched_rhs_rejected(coarse_system):
    """A right-hand side three entries short fails at the system, not as an
    IndexError inside ``solve``."""
    n = len(coarse_system.rhs)
    with pytest.raises(ValueError, match=rf"\({n - 3},\).*\({n},\)"):
        dataclasses.replace(coarse_system, rhs=coarse_system.rhs[:-3])
