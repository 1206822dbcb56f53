import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from shallowfem import assembly, fem, geometry, mesh, mms


def weak_residual(system, result):
    """Max weak-form defect |a(z; w) - L(w)| over non-essential test DOFs."""
    z = np.concatenate([result.u.coeffs, result.p.coeffs])
    r = system.matrix @ z - system.rhs
    if len(system.essential):
        r[system.essential] = 0.0
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
    assert assembly.ProblemConfig(k=1).degree == 10
    assert assembly.ProblemConfig(k=2).degree == 12
    assert assembly.ProblemConfig(k=1, quadrature_degree=4).degree == 4


def test_coordinate_field_dispatch(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    shallow = assembly.coordinate_field(assembly.ProblemConfig(mode="shallow"), m)
    deep = assembly.coordinate_field(assembly.ProblemConfig(mode="deep"), m)
    assert shallow.column_axes is not None
    assert deep.column_axes is None


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
        mode="shallow", k=1, omega4=lambda x4: np.zeros(x4.shape)
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

    The shallow matrix uses the exact rule of degree 2k + 1, with (k + 1)^3
    points; the deep matrix uses the right-hand-side rule.
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

    assert rules(shallow.stats) == (10, 216, 3, 8)
    assert rules(deep.stats) == (10, 216, 10, 216)
    V1, V2 = build_spaces(m, 2)
    for mode, expected in [("shallow", (12, 343, 5, 27)), ("deep", (12, 343, 12, 343))]:
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
    assert len(constrained.essential) == 20
    # essential rows are identity rows with zero RHS
    A = constrained.matrix
    for d in constrained.essential:
        row = A[d].toarray().ravel()
        assert row[d] == 1.0
        row[d] = 0.0
        assert np.abs(row).max() == 0.0
        assert constrained.rhs[d] == 0.0
    # matching columns cleared
    cols = abs(A[:, constrained.essential])
    assert cols.sum() == len(constrained.essential)


def test_inner_bc_solution_exactly_zero(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1,
        f4=lambda x4: np.broadcast_to([1.0, 0.5, -0.3, 0.2], x4.shape),
        g=lambda x4: x4[..., 3],
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert (result.u.coeffs[system.essential] == 0.0).all()


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
    singular = sp.csr_matrix(coarse_system.matrix.shape)
    bad = assembly.LinearSystem(
        matrix=singular,
        rhs=np.ones(coarse_system.matrix.shape[0]),
        essential=np.empty(0, dtype=np.int64),
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
        f4=lambda x4: np.stack([x4[..., 1], -x4[..., 0], x4[..., 3], x4[..., 2]], axis=-1),
        g=lambda x4: x4[..., 0] * x4[..., 1],
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
    assert stats["ordering"] == "nested-dissection"


def test_solve_rejects_cross_cell_pressure_coupling(coarse_system):
    system = assembly.apply_inner_bc(coarse_system)
    system.rhs[:] = 1.0
    nu = system.n_u
    A = system.matrix.tolil()
    A[nu, nu + 1] = A[nu + 1, nu] = 0.5     # V2 DOFs of cells 0 and 1
    with pytest.raises(assembly.SolverError, match="different cells"):
        assembly.solve(dataclasses.replace(system, matrix=A.tocsr()))


def test_solve_rejects_a_singular_cell_block(annulus_r0_l1_module):
    """Two equal rows in one cell's local block (15 x 15 at k=2): the
    in-place block inversion fails, and that is a SolverError."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 2)
    system = assembly.apply_inner_bc(
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=2), V1, V2))
    system.rhs[:] = 1.0
    r0, r1 = assembly._cell_local_dofs(system)[0, :2]
    A = system.matrix.tolil()
    A[r1, :] = A[r0, :]
    with pytest.raises(assembly.SolverError, match="inversion failed"):
        assembly.solve(dataclasses.replace(system, matrix=A.tocsr()))


def test_solve_out_of_memory_is_solver_error(coarse_system, monkeypatch):
    system = assembly.apply_inner_bc(coarse_system)
    system.rhs[:] = 1.0

    def no_memory(matrix, **kwargs):
        raise MemoryError

    monkeypatch.setattr(assembly, "splu", no_memory)
    with pytest.raises(assembly.SolverError, match=r"n=\d+, nnz=\d+"):
        assembly.solve(system)


@pytest.fixture(scope="module")
def r1_system(annulus_r1_l2):
    """k=1 on 160 cells: enough facet DOFs for three levels of dissection."""
    V1, V2 = build_spaces(annulus_r1_l2, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1, g=lambda x4: x4[..., 0])
    return assembly.apply_inner_bc(assembly.assemble(config, V1, V2))


def facet_inputs(system):
    """(cell_dofs, cell centroids, sorted facet DOFs) as ``solve`` sees them."""
    u = system.u_space
    glob = np.setdiff1d(np.arange(system.matrix.shape[0]), assembly._cell_local_dofs(system))
    return u.cell_dofs, u.mesh.cell_node_coords().mean(axis=1), glob


def test_nested_dissection_is_a_deterministic_permutation(r1_system):
    cell_dofs, centroids, glob = facet_inputs(r1_system)
    order = assembly._nested_dissection(cell_dofs, centroids, glob)
    np.testing.assert_array_equal(np.sort(order), glob)
    np.testing.assert_array_equal(assembly._nested_dissection(cell_dofs, centroids, glob), order)


def test_nested_dissection_orders_the_top_separator_last(r1_system):
    """The top split of the cells, recomputed: the order is the low block, the
    high block and then exactly the facet DOFs that cells of both halves own,
    and no cell owns a DOF of the low block and one of the high block."""
    cell_dofs, centroids, glob = facet_inputs(r1_system)
    order = assembly._nested_dissection(cell_dofs, centroids, glob)
    axis = np.ptp(centroids, axis=0).argmax()
    low, high = np.split(np.argsort(centroids[:, axis], kind="stable"), [len(centroids) // 2])
    facet = np.isin(cell_dofs, glob)
    low_ids, high_ids = (np.unique(cell_dofs[c][facet[c]]) for c in (low, high))
    sep = np.intersect1d(low_ids, high_ids)
    assert len(sep)
    np.testing.assert_array_equal(np.sort(order[len(glob) - len(sep):]), sep)

    n_low = len(low_ids) - len(sep)
    np.testing.assert_array_equal(np.sort(order[:n_low]), np.setdiff1d(low_ids, sep))
    block = np.full(cell_dofs.max() + 1, -1)
    block[order] = np.repeat([0, 1, 2], [n_low, len(glob) - n_low - len(sep), len(sep)])
    owned = block[cell_dofs]
    assert not ((owned == 0).any(axis=1) & (owned == 1).any(axis=1)).any()


@pytest.mark.parametrize("k, mode, level, parent_fill", [
    (2, "shallow", (1, 2), 463_527),
    (1, "deep", (3, 1), 459_820),
], ids=["k2-shallow-1:2", "k1-deep-3:1"])
def test_nested_dissection_over_cells_cuts_lu_fill(k, mode, level, parent_fill):
    """SuperLU fill of the manufactured ladder's condensed matrix stays below
    that of the earlier order, which split the facet DOFs at the median of
    their mean cell centroids."""
    (row,) = mms.convergence_study(k, [level], mode=mode).rows
    assert 0 < row.solve_stats["lu_nnz"] < parent_fill


def test_condensed_pattern_within_cell_graph(r1_system, monkeypatch):
    """S couples two facet DOFs only if they share a cell, in the ordered
    indexing that SuperLU is told to keep."""
    captured = {}

    def spy(matrix, **kwargs):
        captured.update(kwargs, matrix=matrix)
        return splu(matrix, **kwargs)

    monkeypatch.setattr(assembly, "splu", spy)
    assert assembly.solve(r1_system).residual <= 1e-10
    assert captured["permc_spec"] == "NATURAL"

    cell_dofs, centroids, glob = facet_inputs(r1_system)
    order = assembly._nested_dissection(cell_dofs, centroids, glob)
    index = np.full(cell_dofs.max() + 1, -1)
    index[order] = np.arange(len(order))
    cell_ids = index[cell_dofs]
    owner, slot = np.nonzero(cell_ids >= 0)
    E = sp.csr_matrix(
        (np.ones(len(owner)), (cell_ids[owner, slot], owner)), shape=(len(glob), len(cell_dofs))
    )
    graph = (E @ E.T).tocsr()
    S = captured["matrix"].tocoo()
    nz = S.data != 0.0
    assert nz.sum() > len(glob)
    assert (np.asarray(graph[S.row[nz], S.col[nz]]).ravel() > 0).all()


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

    def perturbed(matrix, **kwargs):
        dtypes.append(matrix.dtype)
        return splu(1.5 * matrix, **kwargs)

    monkeypatch.setattr(assembly, "splu", perturbed)
    with pytest.raises(assembly.SolverError, match=r"residuals \d\.\d{3}e"):
        assembly.solve(r1_system)
    assert dtypes == [np.float32]


def test_refinement_is_capped(r1_system, monkeypatch):
    monkeypatch.setattr(assembly, "MAX_REFINEMENT_STEPS", 0)
    with pytest.raises(assembly.SolverError, match="after 0 refinement steps"):
        assembly.solve(r1_system)


def test_near_singular_condensed_matrix_is_solver_error(r1_system):
    """Facet row j becomes row i plus 1e-14 on its diagonal, with an
    inconsistent right-hand side: threshold pivoting must not return a
    number that misses the residual contract."""
    _, _, glob = facet_inputs(r1_system)
    i, j = np.setdiff1d(glob, r1_system.essential)[[0, -1]]
    A = r1_system.matrix.tolil()
    A[j, :] = A[i, :]
    A[j, j] += 1e-14 * abs(A[i, i])
    rhs = np.ones(A.shape[0])
    rhs[j] = 2.0
    with pytest.raises(assembly.SolverError):
        assembly.solve(dataclasses.replace(r1_system, matrix=A.tocsr(), rhs=rhs))


def test_weak_residual_of_solution(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1,
        f4=lambda x4: np.stack([x4[..., 1], -x4[..., 0], x4[..., 3], x4[..., 2]], axis=-1),
        g=lambda x4: x4[..., 0] * x4[..., 1],
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert weak_residual(system, result) <= 1e-9


def test_weak_residual_detects_perturbation(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="shallow", k=1, g=lambda x4: np.ones(x4.shape[:-1])
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    free = np.setdiff1d(np.arange(system.n_u), system.essential)
    result.u.coeffs[free[0]] += 1.0
    assert weak_residual(system, result) > 1e-3


def test_weak_residual_sign_flip_invariant(annulus_r0_l1_module):
    """Negating test functions (rows) leaves the defect measure unchanged."""
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(mode="shallow", k=1, g=lambda x4: x4[..., 3])
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    result.u.coeffs[-1] += 0.01
    r0 = weak_residual(system, result)
    signs = np.ones(system.matrix.shape[0])
    signs[::2] = -1.0
    flipped = assembly.LinearSystem(
        matrix=sp.diags(signs) @ system.matrix,
        rhs=signs * system.rhs,
        essential=system.essential,
        u_space=system.u_space,
        p_space=system.p_space,
        stats=system.stats,
    )
    assert abs(weak_residual(flipped, result) - r0) <= 1e-14


def test_deep_mode_assembles_and_solves(annulus_r0_l1_module):
    m = annulus_r0_l1_module
    V1, V2 = build_spaces(m, 1)
    config = assembly.ProblemConfig(
        mode="deep", k=1, f4=lambda x4: np.stack(
            [x4[..., 3], x4[..., 2], -x4[..., 1], x4[..., 0]], axis=-1
        )
    )
    system = assembly.apply_inner_bc(assembly.assemble(config, V1, V2))
    result = assembly.solve(system)
    assert result.residual <= 1e-10
    assert np.isfinite(result.u.coeffs).all()


def cell_local_blocks(system):
    """(n_cells, n_local, n_local) blocks of the cell-local DOFs of the matrix."""
    local = assembly._cell_local_dofs(system)
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


def test_shallow_mode_rejects_a_rotation_that_is_not_affine(annulus_r0_l1_module):
    """The exact shallow matrix rule needs an affine omega4; deep mode takes any."""
    V1, V2 = build_spaces(annulus_r0_l1_module, 1)

    def omega4(x4):
        out = np.zeros(x4.shape)
        out[..., 3] = x4[..., 2] ** 2
        return out

    with pytest.raises(ValueError, match="nodal interpolant"):
        assembly.assemble(assembly.ProblemConfig(mode="shallow", k=1, omega4=omega4), V1, V2)
    deep = assembly.assemble(assembly.ProblemConfig(mode="deep", k=1, omega4=omega4), V1, V2)
    assert np.isfinite(deep.matrix.data).all()


def per_point_velocity_block(config, V1):
    """A_uu and b_u by the per-point physical-basis formula.

    With L = J phi at every quadrature point, Om3 = J pinv4 omega4 and
    F3 = J pinv4 f4: A_uu = sum_q w/det L.(L + 2 Om3 x L) and
    b_u = sum_q w L.F3, scattered with the DOF signs.
    """
    m = V1.mesh
    coords = assembly.coordinate_field(config, m)
    x4 = geometry.manifold_coordinates(m)
    rule = fem.quadrature_prism(config.degree)
    pts, w = rule.points, rule.weights
    cells = np.arange(m.n_cells)
    J = geometry.jacobian(coords, cells, pts)
    J4 = geometry.jacobian4(x4, cells, np.array([[1 / 3, 1 / 3, 0.5]]))
    pinv4, _ = geometry.pseudo_inverse_pseudo_det(J4)
    push = np.matmul(J.J, pinv4)
    x4q = np.einsum("qv,evi->eqi", geometry.nodal_basis(pts), x4)

    L = np.einsum("eqcd,qid->eqic", J.J, fem.tabulate(V1.element, pts).values)
    R = L
    if config.coriolis_enabled:
        Om3 = np.matmul(push, config.omega4(x4q)[..., None])[..., 0]
        R = L + np.cross(2.0 * Om3[:, :, None, :], L)
    A = np.einsum("q,eq,eqic,eqjc->eij", w, 1.0 / J.det, L, R)
    F3 = np.matmul(push, config.f4(x4q)[..., None])[..., 0]
    b = np.einsum("q,eqic,eqc->ei", w, L, F3)

    sg, gd = V1.cell_signs, V1.cell_dofs
    nd = V1.element.ndofs
    A = A * sg[:, :, None] * sg[:, None, :]
    A = sp.coo_matrix(
        (A.ravel(), (np.repeat(gd, nd, axis=1).ravel(), np.tile(gd, (1, nd)).ravel())),
        shape=(V1.n_dofs, V1.n_dofs),
    ).toarray()
    rhs = np.zeros(V1.n_dofs)
    np.add.at(rhs, gd.ravel(), (b * sg).ravel())
    return A, rhs


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("mode", ["shallow", "deep"])
@pytest.mark.parametrize("coriolis", [True, False])
def test_velocity_block_matches_per_point_formula(annulus_r0_l1_module, k, mode, coriolis):
    """The reference-tensor contraction equals the per-point formula."""
    V1, V2 = build_spaces(annulus_r0_l1_module, k)
    config = assembly.ProblemConfig(
        mode=mode, k=k, coriolis_enabled=coriolis,
        omega4=lambda x4: np.stack(
            [0.3 * x4[..., 1], -0.2 * x4[..., 3], 0.1 * x4[..., 0], 0.5 * x4[..., 2]], axis=-1
        ),
        f4=lambda x4: np.stack([x4[..., 1], -x4[..., 0], x4[..., 3], x4[..., 2]], axis=-1),
    )
    system = assembly.assemble(config, V1, V2)
    A_ref, b_ref = per_point_velocity_block(config, V1)
    nu = system.n_u
    A = system.matrix[:nu, :nu].toarray()
    assert np.abs(A - A_ref).max() <= 1e-13 * np.abs(A_ref).max()
    b = system.rhs[:nu]
    assert np.abs(b - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def four_block_system(config, V1, V2):
    """The block system with each block scattered on its own.

    A_uu, D, -D^T and -M_p go through four index triplets, b_u and b_p
    through two ``add.at`` calls; the per-chunk kernels are those of
    ``assemble``.  The matrix blocks use the exact rule of degree 2k + 1 in
    shallow mode and ``config.degree`` in deep mode; the right-hand sides
    use ``config.degree``.  Both point sets are mapped in one pass.
    """
    coords = assembly.coordinate_field(config, V1.mesh)
    x4 = geometry.manifold_coordinates(V1.mesh)
    rule = fem.quadrature_prism(config.degree)
    shallow = config.mode == "shallow"
    mrule = fem.quadrature_prism(2 * config.k + 1) if shallow else rule
    w, wm = rule.weights, mrule.weights
    nq, nm = len(w), len(wm)
    pts = np.vstack([rule.points, mrule.points]) if shallow else rule.points
    mq = slice(nq, None) if shallow else slice(None)
    tab1, tab2 = fem.tabulate(V1.element, pts), fem.tabulate(V2.element, pts)
    nd1, nd2 = V1.element.ndofs, V2.element.ndofs
    n_u = V1.n_dofs
    n = n_u + V2.n_dofs
    phi, psi = tab1.values[:nq], tab2.values[:nq]
    phim, psim = tab1.values[mq], tab2.values[mq]
    T = np.einsum("q,qic,qjd->qcdij", wm, phim, phim).reshape(9 * nm, nd1 * nd1)
    Tb = (w[:, None, None] * phi).transpose(0, 2, 1).reshape(3 * nq, nd1)
    Tp = np.einsum("qa,qb->qab", psim, psim).reshape(nm, nd2 * nd2)
    D_ref = np.einsum("q,qa,qd->ad", wm, psim, tab1.divergences[mq])

    rows, cols, data = [], [], []
    rhs = np.zeros(n)
    for cells, J, pinv4T, x4all in geometry.quadrature_chunks(coords, x4, pts):
        ch = len(cells)
        x4q, x4m = x4all[:, :nq], x4all[:, mq]
        JtJ = np.einsum("...ia,...ib->...ab", J.J, J.J)
        K = np.empty((ch, nm, 3, 3))
        np.divide(JtJ, J.det[..., None, None], out=K)
        if config.coriolis_enabled:
            om = 2.0 * (config.omega4(x4m) @ pinv4T)
            K[..., 0, 1] -= om[..., 2]
            K[..., 1, 0] += om[..., 2]
            K[..., 0, 2] += om[..., 1]
            K[..., 2, 0] -= om[..., 1]
            K[..., 1, 2] -= om[..., 0]
            K[..., 2, 1] += om[..., 0]
        A_uu = (K.reshape(ch, 9 * nm) @ T).reshape(ch, nd1, nd1)
        b_u = geometry.matvec3(JtJ, config.f4(x4q) @ pinv4T).reshape(ch, 3 * nq) @ Tb
        M_p = (wm * J.det) @ Tp
        b_p = (w * J.det * config.g(x4q)) @ psi

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
        f4=lambda x4: np.stack([x4[..., 1], -x4[..., 0], x4[..., 3], x4[..., 2]], axis=-1),
        g=lambda x4: x4[..., 0] * x4[..., 3],
    )
    system = assembly.assemble(config, V1, V2)
    A_ref, rhs_ref = four_block_system(config, V1, V2)
    A = system.matrix
    np.testing.assert_array_equal(A.indptr, A_ref.indptr)
    np.testing.assert_array_equal(A.indices, A_ref.indices)
    assert A.data.tobytes() == A_ref.data.tobytes()
    assert system.rhs.tobytes() == rhs_ref.tobytes()
