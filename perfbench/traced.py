"""Traced walk of one convergence ladder, stage by stage.

``walk`` repeats what ``mms.convergence_study`` does, calling the same public
functions of ``mesh``, ``fem``, ``geometry``, ``assembly`` and ``mms`` in the
same order, with a span around each call.  Its per-level rows must equal the
rows of an untraced ``convergence_study`` call bit for bit.

Two probes re-issue calls that ``assembly.assemble`` makes internally, with
the same inputs and the same chunking, so that assembly time can be split:

  * ``probe.geometry``: the coordinate fields, ``geometry.jacobian`` at the
    points the mode factors (the centroid for shallow, every quadrature point
    for deep), ``jacobian4`` and ``pseudo_inverse_pseudo_det`` at centroids;
  * ``probe.coeff_eval``: ``config.f4``, ``config.g`` and ``config.omega4``
    at the assembly's quadrature points.

Probes are extra work of the traced run only; their spans carry
``probe: True`` and are left out of the walk's own time.

Memory per stage is the process's ``ru_maxrss`` high-water mark read after
the stage (``tracemalloc`` does not see SuperLU's factors).
"""

import math
import resource
import time
from contextlib import contextmanager

import numpy as np

from shallowfem import assembly, fem, geometry, mesh, mms

# Failures a ladder level may raise; anything else is a harness bug.
LEVEL_ERRORS = (
    assembly.SolverError, MemoryError, geometry.DegenerateMapError, ValueError,
)

CENTROID = np.array([[1.0 / 3.0, 1.0 / 3.0, 0.5]])


def maxrss_mb() -> float:
    """High-water resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans (name, start, end, parent, level) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name, level, probe=False):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            yield sid
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({
                "id": sid, "name": name, "parent": parent, "level": level,
                "start": start, "end": end, "probe": probe, "error": error,
            })

    def count(self, name, level, value):
        self.counts.append({"name": name, "level": level, "value": value})

    def total(self, name, probe=False):
        """Summed duration of the spans with this name."""
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["probe"] == probe
        )

    def counts_named(self, name):
        return [c["value"] for c in self.counts if c["name"] == name]


def _chunks(n_cells, nq, nd1):
    """The cell chunks ``assembly.assemble`` iterates over."""
    chunk = max(1, int(3e6 / (nq * nd1)))
    for start in range(0, n_cells, chunk):
        yield np.arange(start, min(start + chunk, n_cells))


def probe_geometry(config, u_space):
    """Geometry calls of ``assemble``; returns the factorization count."""
    m = u_space.mesh
    coords = assembly.coordinate_field(config, m)
    x4 = geometry.manifold_coordinates(m)
    pts = fem.quadrature_prism(config.degree).points
    points = CENTROID if config.mode == "shallow" else pts
    n_fact = 0
    for cells in _chunks(m.n_cells, len(pts), u_space.element.ndofs):
        n_fact += geometry.jacobian(coords, cells, points).n_factorizations
        geometry.pseudo_inverse_pseudo_det(geometry.jacobian4(x4, cells, CENTROID))
    return n_fact


def probe_coefficients(config, u_space):
    """Coefficient evaluations of ``assemble``; returns their seconds.

    Only the provider calls are timed, not the mapping of quadrature points.
    """
    m = u_space.mesh
    x4 = geometry.manifold_coordinates(m)
    pts = fem.quadrature_prism(config.degree).points
    nbasis = geometry.nodal_basis(pts)
    seconds = 0.0
    for cells in _chunks(m.n_cells, len(pts), u_space.element.ndofs):
        x4q = np.einsum("qv,evi->eqi", nbasis, x4[cells])
        t0 = time.perf_counter()
        config.f4(x4q)
        config.g(x4q)
        if config.coriolis_enabled:
            config.omega4(x4q)
        seconds += time.perf_counter() - t0
    return seconds


def _level(tr, lv, config, case, k, refinement, layers, tolerance, quadrature_degree):
    """One ladder level, as in ``convergence_study``; returns the row fields."""
    a, thickness = case.a, case.H
    with tr.span("mesh.build", lv):
        base = mesh.build_icosahedral_sphere(refinement, radius=a)
        m = mesh.extrude_radial(base, layers, thickness)
        facets = mesh.classify_facets(m)
    tr.count("mesh.n_cells", lv, m.n_cells)

    with tr.span("fem.elements", lv):
        e1 = fem.make_element("V1", k)
        e2 = fem.make_element("V2", k)
    with tr.span("fem.dofmap", lv):
        u_space = fem.build_dof_map(m, facets, e1)
        p_space = fem.build_dof_map(m, facets, e2)
    tr.count("fem.n_dofs", lv, u_space.n_dofs + p_space.n_dofs)

    with tr.span("assembly.assemble", lv):
        system = assembly.assemble(config, u_space, p_space)
    tr.count("assembly.rss_after_assemble_mb", lv, maxrss_mb())
    tr.count("assembly.n_quadrature_points", lv, system.stats["n_quadrature_points"])
    tr.count("geometry.n_factorizations", lv, system.stats["n_jacobian_factorizations"])

    with tr.span("probe.geometry", lv, probe=True):
        probe_fact = probe_geometry(config, u_space)
    tr.count("probe.geometry.n_factorizations", lv, probe_fact)
    with tr.span("probe.coeff_eval", lv, probe=True):
        tr.count("probe.coeff_eval_s", lv, probe_coefficients(config, u_space))

    with tr.span("assembly.bc", lv):
        system = assembly.apply_inner_bc(system)
    tr.count("assembly.nnz", lv, int(system.matrix.nnz))
    with tr.span("assembly.solve", lv):
        result = assembly.solve(system, tolerance)
    tr.count("assembly.rss_after_solve_mb", lv, maxrss_mb())
    tr.count("assembly.solve_residual", lv, result.residual)

    with tr.span("geometry.coordinate_field", lv):
        coords = assembly.coordinate_field(config, m)
    with tr.span("mms.l2_errors", lv):
        err_u, err_p = mms.l2_errors(result.u, result.p, case, coords, quadrature_degree)
    with tr.span("geometry.cell_diameters", lv):
        h = float(geometry.cell_diameters(coords).max())
    return {
        "refinement": refinement, "layers": layers, "ncells": m.n_cells,
        "ndofs": u_space.n_dofs + p_space.n_dofs, "h_mesh": h,
        "err_p": err_p, "err_u": err_u, "residual": result.residual,
        "probe_factorizations_match": probe_fact == system.stats["n_jacobian_factorizations"],
    }


def walk(tr, k, levels, mode, tolerance, seed):
    """Traced ladder.  Returns one entry per level: a row dict or an error.

    Radius, thickness, quadrature degree and forcing points are the defaults
    of ``convergence_study``, which the untraced ladder uses too.  A failing
    level is recorded and the walk goes on with the next one, which then has
    no rate (its predecessor gave no error to compare).
    """
    a, thickness, quadrature_degree = 1.0, 1.0, None
    with tr.span("ladder", None):
        ops = mms.ShallowOperators(a=a, H=thickness)
        case = mms.ManufacturedCase(a=a, H=thickness)
        with tr.span("mms.forcing_report", None):
            mms.derive_forcing(case, mms.sample_manifold_points(a, thickness, 100, seed), ops)
        config = assembly.ProblemConfig(
            mode=mode, k=k, omega4=case.omega4, f4=case.derived_f4(ops),
            g=case.derived_g(ops), solver_tolerance=tolerance,
            quadrature_degree=quadrature_degree,
        )
        out = []
        prev = None
        for lv, (refinement, layers) in enumerate(levels, start=1):
            try:
                with tr.span("ladder.level", lv):
                    row = _level(tr, lv, config, case, k, refinement, layers,
                                 tolerance, quadrature_degree)
            except LEVEL_ERRORS as exc:
                out.append({"level": lv, "error": f"{type(exc).__name__}: {exc}"})
                prev = None
                continue
            row["level"] = lv
            row["rate_p"] = row["rate_u"] = None
            if prev is not None:
                row["rate_p"] = math.log2(prev[0] / row["err_p"])
                row["rate_u"] = math.log2(prev[1] / row["err_u"])
            prev = (row["err_p"], row["err_u"])
            out.append(row)
    return out
