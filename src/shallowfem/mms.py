"""Manufactured-solution machinery and independent differential operators.

The discretisation is verified against the exact solution of the mixed
system on S^2(a) x [0, H].  The operators here are deliberately independent
of the finite element code: derivatives come from central finite differences
in the frame (e_lambda, e_phi, i4) of ``geometry.TangentFrame``, orthonormal
on S^2(a) x [0, H] but with |e_phi| = |x| / a at a chordal point,

    grad f = (1/(a cos phi) d_lambda f) e_lambda + (1/a d_phi f) e_phi
             + (d_x4 f) i4,
    div u  = 1/(a cos phi) [d_lambda u_lambda + d_phi (cos phi u_phi)]
             + d_x4 u4,

with a second gradient implementation (tangential projection of the
Euclidean R^4 gradient) used for cross-validation.  The frame components
and their recombination (``TangentFrame.components`` / ``vector``), the unit
normal l = (x / |x|, 0) and the projection P = I - l l^T (``unit_normal``,
``project_tangent``) come from geometry's one tangent-space kernel.

The printed exact velocity is not tangent to the manifold: its normal
component is (3 - a^2) x1 x2 x3 (x4^2 - 1)(x4^2 - 4) / a.  The case therefore
uses its tangential projection, in closed form, and re-derives the forcing
(F, g) through the oracles; discrepancies against the printed forcing are
reported, never patched silently.  The providers and ``derive_forcing``
raise ValueError when the operators' radius is not the case's.

The solver's providers (``ManufacturedCase.derived_f4`` / ``derived_g``)
evaluate grad p and div u in closed form, at the same manifold points and in
the same frames as the finite-difference stencils, so they are finite at the
poles and cost no perturbed evaluations.  ``derive_forcing`` and the tests
keep building (F, g) from the finite-difference oracles as the independent
check of those closed forms.

The providers and the exact fields run at the quadrature points of every
level, so they work on coordinate planes (see geometry's tangent-space
section): one call builds one tangent frame and one longitude, computes
with the plane kernels and writes its (..., 4) result once.  The solver
calls them with the solver-point map's planes, x1, x2, x3 per triangle
point, (cells, 1, nt), and h per interval point, (cells, nz, 1), with the
triangle axis innermost: the exact velocity is (q U1, q U2, q U3,
v U4), with U a function of the horizontal position and q, v of h, and
p = x1 x2 x3 q, so every bracket of the horizontal position runs once per
triangle point and meets q or v in one product at the end.  The
providers, the exact fields and ``TangentFrame.at`` take (..., 4) arrays
through the same entry, as the oracles and the benchmark's probe pass.

``l2_errors`` reads the chunk's metric: with d = vhat / det - pinv4 u_exact
the squared velocity error at a point is det d . G d, in both modes.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import assembly as _assembly
from . import geometry
from .fem import build_dof_map, make_element, reference_tables
from .mesh import build_icosahedral_sphere, classify_facets, extrude_radial

__all__ = [
    "ShallowOperators",
    "ManufacturedCase",
    "ForcingReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "sample_manifold_points",
    "derive_forcing",
    "l2_errors",
    "convergence_study",
]


# ---------------------------------------------------------------------------
# Frame-based differential operators
# ---------------------------------------------------------------------------

# Step of every central difference, in frame coordinates and in R^4.
FD_STEP = 1e-6


@dataclass(frozen=True)
class ShallowOperators:
    """Finite-difference gradient/divergence/cross on S^2(a) x [0, H]."""

    a: float = 1.0
    H: float = 1.0

    def angles(self, x4):
        """(longitude, latitude, height) of manifold points."""
        x4 = np.asarray(x4, dtype=float)
        lam = np.arctan2(x4[..., 1], x4[..., 0])
        phi = np.arcsin(np.clip(x4[..., 2] / self.a, -1.0, 1.0))
        return lam, phi, x4[..., 3]

    def point(self, lam, phi, h):
        """Manifold point from (longitude, latitude, height)."""
        lam, phi, h = np.broadcast_arrays(lam, phi, h)
        out = np.empty(lam.shape + (4,))
        out[..., 0] = self.a * np.cos(phi) * np.cos(lam)
        out[..., 1] = self.a * np.cos(phi) * np.sin(lam)
        out[..., 2] = self.a * np.sin(phi)
        out[..., 3] = h
        return out

    def _central(self, f, coords, axis):
        """Central difference of f(lam, phi, h) along frame coordinate ``axis``."""
        up, down = list(coords), list(coords)
        up[axis] = up[axis] + FD_STEP
        down[axis] = down[axis] - FD_STEP
        return (f(*up) - f(*down)) / (2 * FD_STEP)

    def oracle_grad(self, f, x4):
        """Tangential gradient by central differences in frame coordinates."""
        coords = self.angles(x4)
        d = np.stack([self._central(lambda *c: f(self.point(*c)), coords, i) for i in range(3)], -1)
        d[..., 0] /= self.a * np.cos(coords[1])
        d[..., 1] /= self.a
        return geometry.TangentFrame.at(x4, self.a).vector(d)

    def _frame_component(self, u, which, lam, phi, h):
        """u_lambda, cos(phi) u_phi, or u_4 at the given frame coordinates."""
        x = self.point(lam, phi, h)
        c = geometry.TangentFrame.at(x, self.a).components(u(x))
        return np.cos(phi) * c[..., 1] if which == 1 else c[..., which]

    def oracle_div(self, u, x4):
        """Tangential divergence by central differences in frame coordinates."""
        coords = self.angles(x4)
        dl, dp, d4 = (
            self._central(partial(self._frame_component, u, i), coords, i) for i in range(3)
        )
        return (dl + dp) / (self.a * np.cos(coords[1])) + d4

    def grad_projected(self, f, x4):
        """Independent gradient: project the Euclidean R^4 gradient tangentially."""
        x4 = np.asarray(x4, dtype=float)
        g = np.empty(x4.shape)
        for i in range(4):
            e = np.zeros(4)
            e[i] = FD_STEP
            g[..., i] = (f(x4 + e) - f(x4 - e)) / (2 * FD_STEP)
        return geometry.project_tangent(g, x4)

    def tangent_cross(self, v, w, x4):
        """Cross product of tangent vectors via frame components.

        Raises ValueError when an input has a normal component beyond 1e-10
        relative to its magnitude.
        """
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        l = geometry.unit_normal(x4)
        for name, vec in (("first", v), ("second", w)):
            nrm = np.abs(np.sum(vec * l, axis=-1))
            scale = np.maximum(1.0, np.linalg.norm(vec, axis=-1))
            if np.any(nrm > 1e-10 * scale):
                raise ValueError(
                    f"{name} argument is not tangent: |v.l| up to {nrm.max():.3e}"
                )
        fr = geometry.TangentFrame.at(x4, self.a)
        return fr.vector(np.cross(fr.components(v), fr.components(w)))


def _oracle_latitude(x, a):
    """(sin phi, cos phi) of the oracles' point, as planes.

    The finite-difference oracles evaluate at ``ops.point(*ops.angles(x4))``:
    the longitude of x4 (``geometry.longitude``, with the tangent frame's
    polar fallback) and the latitude arcsin(x3 / a); x holds the coordinate
    planes of x4.
    """
    s_phi = np.clip(x[2] / a, -1.0, 1.0)
    return s_phi, np.sqrt(1.0 - s_phi * s_phi)


# ---------------------------------------------------------------------------
# The manufactured case
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, rotation field, and printed forcing of the test case.

    A DegenerateMapError (a ValueError) rejects sizes on which the fields
    leave the float64 range: |x|^2 must not underflow, and the printed
    velocity, degree 4 in x times degree 4 in h, is squared by the norms.
    """

    a: float = 1.0
    H: float = 1.0

    def __post_init__(self):
        outer = abs(self.a) + abs(self.H)
        if not (self.a * self.a >= np.finfo(float).tiny
                and outer < np.finfo(float).max ** (1 / 16)):
            raise geometry.DegenerateMapError(
                f"the manufactured fields leave the float64 range on the annulus "
                f"of radii {self.a!r} to {self.a + self.H!r}"
            )

    def _q(self, h):
        return (h ** 2 - 1.0) * (h ** 2 - 4.0)

    # The exact fields take manifold points as coordinate planes or as a
    # (..., 4) array (see ``geometry.coordinate_planes``).
    def p_exact(self, x4):
        x = geometry.coordinate_planes(x4)
        return x[0] * x[1] * x[2] * self._q(x[3])

    def u_printed(self, x4):
        x1, x2, x3, h = geometry.coordinate_planes(x4)
        q = self._q(h)
        return geometry.stack_planes((
            x2 * x3 * (1.0 - x1 ** 2) * q,
            x1 * x3 * (1.0 - x2 ** 2) * q,
            x1 * x2 * (1.0 - x3 ** 2) * q,
            2.0 * x1 * x2 * x3 * h * (2.0 * h ** 2 - 5.0),
        ))

    def _v(self, h):
        return 2.0 * h * (2.0 * h * h - 5.0)

    def _u_horizontal(self, x):
        """U with u_exact = (q U1, q U2, q U3, v U4), v = 2h (2h^2 - 5): the
        factors of the horizontal position alone.

        P u_printed in closed form, with no cancellation at a large radius:
        u_printed . x = x1 x2 x3 q (3 - |x|^2), so (P u)_i = q x_j x_k (1 - 3 x_i^2 / |x|^2).
        """
        x1, x2, x3 = x[:3]
        s = 3.0 / (x1 * x1 + x2 * x2 + x3 * x3)
        return (
            x2 * x3 * (1.0 - s * x1 * x1),
            x1 * x3 * (1.0 - s * x2 * x2),
            x1 * x2 * (1.0 - s * x3 * x3),
            x1 * x2 * x3,
        )

    def u_exact(self, x4):
        """Tangentially projected printed velocity (the solution actually used)."""
        x = geometry.coordinate_planes(x4)
        U, q, v = self._u_horizontal(x), self._q(x[3]), self._v(x[3])
        return geometry.stack_planes((U[0] * q, U[1] * q, U[2] * q, U[3] * v))

    def u_dot_l_analytic(self, x4):
        """Closed form of the printed velocity's normal component on S^2(a)."""
        x4, a = np.asarray(x4, dtype=float), self.a
        return (3.0 - a * a) * x4[..., 0] * x4[..., 1] * x4[..., 2] * self._q(x4[..., 3]) / a

    def omega4(self, x4):
        """omega_4 = x3 / (2a) of the traditional rotation omega_4 i4: Omega
        sin phi with Omega = 1/2 at any radius, so the Coriolis block stays
        the mass block's size; ``traditional_omega`` at a = 1."""
        return _assembly.traditional_omega(x4) / self.a

    def g_printed(self, x4):
        return self.p_exact(x4)

    def F_printed(self, x4):
        x4 = np.asarray(x4, dtype=float)
        x1, x2, x3 = (x4[..., i] for i in range(3))
        q = self._q(x4[..., 3])
        z = np.zeros(x4.shape[:-1])
        return x3[..., None] * np.stack(
            [
                (x2 ** 2 - x3 ** 2) * x1 * q,
                (x3 ** 2 - x1 ** 2) * x2 * q,
                (x1 ** 2 - x2 ** 2) * x3 * q,
                z,
            ],
            axis=-1,
        )

    # Providers for solves: the forcing that makes the projected solution
    # exact.  grad p and div u are closed forms (derived with sympy) of what
    # the oracles differentiate: p and u_exact at y = ops.point(*ops.angles(x4)),
    # with grad p recombined on the frame at x4 as in oracle_grad.
    def derived_f4(self, ops: ShallowOperators):
        _check_radius(self, ops)

        def f4(x4):
            x = geometry.coordinate_planes(x4)
            fr = geometry.TangentFrame.at(x, ops.a)
            c_l, s_l = fr.cos_l, fr.sin_l
            s_p, c_p = _oracle_latitude(x, ops.a)
            a = ops.a
            # u_exact = (q U_1..3, v U_4); every bracket below depends on the
            # horizontal position alone, and meets q or v once, at the end
            U = self._u_horizontal(x)
            # frame components of u and Omega, as in tangent_cross; Omega is
            # along i4, so its e_lambda and e_phi components vanish
            u_l, u_p = fr.dot(U)
            o_4 = self.omega4(x4)
            # frame components of grad p at y plus those of 2 Omega x u, over
            # q horizontally and over v vertically
            f_l = a * a * c_p * s_p * (c_l * c_l - s_l * s_l) - 2.0 * (o_4 * u_p)
            f_p = a * a * (1.0 - 3.0 * s_p * s_p) * s_l * c_l * c_p + 2.0 * (o_4 * u_l)
            f_4 = a ** 3 * s_l * c_l * s_p * c_p * c_p
            # u + 2 Omega x u + grad p, written once
            F = fr.combine((f_l, f_p, f_4), U)
            q, v = self._q(x[3]), self._v(x[3])
            return geometry.stack_planes((F[0] * q, F[1] * q, F[2] * q, F[3] * v))

        return f4

    def derived_g(self, ops: ShallowOperators):
        _check_radius(self, ops)

        def g(x4):
            x = geometry.coordinate_planes(x4)
            _, _, c_l, s_l = geometry.longitude(x[0], x[1], ops.a)
            s_p, c_p = _oracle_latitude(x, ops.a)
            a, h = ops.a, x[3]
            h2 = h * h
            # div u_exact(y) = 2 y1 y2 y3 (6a^2h^2 - 5a^2 - 6h^4 + 30h^2 - 24) / a^2
            div = (
                2.0 * a * c_p * c_p * s_p * c_l * s_l
                * (6.0 * a * a * h2 - 5.0 * a * a - 6.0 * h2 * h2 + 30.0 * h2 - 24.0)
            )
            return div - self.p_exact(x)

        return g


def _check_radius(case: ManufacturedCase, ops: ShallowOperators):
    """Raise ValueError unless the operators and the case share one radius."""
    if ops.a != case.a:
        raise ValueError(f"operators use radius a = {ops.a}, the case a = {case.a}")


DEFAULT_SEED = 20260817


def sample_manifold_points(a=1.0, H=1.0, n=100, seed=DEFAULT_SEED):
    """Deterministic pseudo-random points, latitudes capped away from poles."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-math.pi, math.pi, n)
    phi = np.arcsin(rng.uniform(-0.98, 0.98, n))
    h = rng.uniform(0.02 * H, 0.98 * H, n)
    return ShallowOperators(a=a, H=H).point(lam, phi, h)


# ---------------------------------------------------------------------------
# Forcing verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForcingReport:
    """Printed-vs-derived forcing comparison at a set of manifold points."""

    n_points: int
    max_u_normal: float             # |u_printed . l|, measured
    max_u_normal_analytic_gap: float  # measured vs closed-form formula
    tangency_after_projection: float
    f_discrepancy: float            # max |F_derived - F_printed|
    g_discrepancy: float            # max |g_derived - g_printed|
    F_derived: np.ndarray
    g_derived: np.ndarray

    def summary_lines(self):
        return [
            f"points sampled:                  {self.n_points}",
            f"max |u_printed . l|:             {self.max_u_normal:.12e}",
            f"  gap vs analytic (3-a^2)*x1*x2*x3*(x4^2-1)(x4^2-4)/a: {self.max_u_normal_analytic_gap:.3e}",
            f"max |u_projected . l|:           {self.tangency_after_projection:.3e}",
            f"max |F_derived - F_printed|:     {self.f_discrepancy:.12e}",
            f"max |g_derived - g_printed|:     {self.g_discrepancy:.12e}",
        ]


def derive_forcing(case: ManufacturedCase, points, ops: ShallowOperators = None) -> ForcingReport:
    """Derive (F, g) from the oracle and compare with the printed forcing."""
    if ops is None:
        ops = ShallowOperators(a=case.a, H=case.H)
    _check_radius(case, ops)
    x4 = np.asarray(points, dtype=float)

    u_p = case.u_printed(x4)
    l = geometry.unit_normal(x4)
    u_dot_l = np.sum(u_p * l, axis=-1)
    gap = np.abs(u_dot_l - case.u_dot_l_analytic(x4)).max()

    u_t = case.u_exact(x4)
    tang = np.abs(np.sum(u_t * l, axis=-1)).max()

    # Built from the FD oracles, not from the providers: this is the
    # independent derivation that the providers' closed forms are tested
    # against, with the general cross product of the rotation omega_4 i4.
    omega = geometry.stack_planes((0.0, 0.0, 0.0, case.omega4(x4)))
    F_d = (
        u_t
        + 2.0 * ops.tangent_cross(omega, u_t, x4)
        + ops.oracle_grad(case.p_exact, x4)
    )
    g_d = ops.oracle_div(case.u_exact, x4) - case.p_exact(x4)

    return ForcingReport(
        n_points=len(x4),
        max_u_normal=float(np.abs(u_dot_l).max()),
        max_u_normal_analytic_gap=float(gap),
        tangency_after_projection=float(tang),
        f_discrepancy=float(np.abs(F_d - case.F_printed(x4)).max()),
        g_discrepancy=float(np.abs(g_d - case.g_printed(x4)).max()),
        F_derived=F_d,
        g_derived=g_d,
    )


# ---------------------------------------------------------------------------
# Error norms and the convergence study
# ---------------------------------------------------------------------------

def l2_errors(u_h, p_h, case: ManufacturedCase, coords, degree=None):
    """L^2 errors in the mode of the coordinate field ``coords``
    (``assembly.coordinate_field``): the chart is shallow, the annulus deep.

    The exact velocity is evaluated on the manifold, tangent-projected,
    pulled back through pinv4 and compared with the discrete field's
    reference components at the points of ``fem.default_quadrature_degree(k)``
    (95 a cell at k=1, 343 at k=2; rule and bases from
    ``fem.reference_tables``, shared with assembly), in the metric G of the
    solver-point map: |u_h - u_exact|^2 = d . G d with d = vhat / det -
    pinv4 u_exact.  Returns (err_u, err_p).  ``degree`` stays only for the
    benchmark's traced walk, which passes None.
    """
    space_u, space_p = u_h.space, p_h.space
    x4 = geometry.manifold_coordinates(space_u.mesh)
    mode = "shallow" if coords.shape[-1] == 4 else "deep"
    tables = reference_tables(space_u.element.k, degree)
    rule = tables.rule
    nq = len(rule.weights)
    w = rule.tensor_weights
    phi = tables.v1.values.transpose(1, 2, 0).reshape(-1, 3 * nq)
    psiT = tables.v2.values.T                                   # (nd2, nq)

    err_u2 = 0.0
    err_p2 = 0.0
    for cells, (m,) in geometry.quadrature_chunks(x4, mode, rule):
        ch = len(cells)
        shape = m.shape
        wdet = w * m.det

        # u_h - u_exact = J d with d = vhat / det - pinv4 u_exact, so
        # |u_h - u_exact|^2 = d . G d at every point
        chat = u_h.coeffs[space_u.cell_dofs[cells]] * space_u.cell_signs[cells]
        vhat = (chat @ phi).reshape((ch, 3) + shape[1:])
        d = tuple(vhat[:, i] / m.det - u for i, u in enumerate(m.pull(case.u_exact(m.x))))
        Gd = m.lower(d)
        p_hv = (p_h.coeffs[space_p.cell_dofs[cells]] @ psiT).reshape(shape)

        err_u2 += float((wdet * (d[0] * Gd[0] + d[1] * Gd[1] + d[2] * Gd[2])).sum())
        err_p2 += float((wdet * (p_hv - case.p_exact(m.x)) ** 2).sum())
    return math.sqrt(err_u2), math.sqrt(err_p2)


@dataclass(frozen=True)
class ConvergenceRow:
    level: int
    refinement: int
    layers: int
    ncells: int
    ndofs: int
    h_mesh: float
    err_p: float
    err_u: float
    rate_p: float = None
    rate_u: float = None
    residual: float = None
    solve_stats: dict = field(default=None, compare=False)


@dataclass(frozen=True)
class ConvergenceTable:
    k: int
    mode: str
    rows: tuple
    forcing_report: ForcingReport

    @property
    def final_rates(self):
        last = self.rows[-1]
        return last.rate_p, last.rate_u


def _check_levels(levels):
    """The ladder ``levels`` as a list of (refinement, n_layers) int pairs.

    Raises ValueError, naming the pair, unless each is two integers with
    refinement >= 0 and n_layers >= 1, or if there is none.
    """
    checked = []
    for pair in levels:
        try:
            refinement, layers = (operator.index(n) for n in pair)
        except (TypeError, ValueError):
            raise ValueError(f"level {pair!r} is not two integers "
                             f"(refinement, n_layers)") from None
        if refinement < 0 or layers < 1:
            raise ValueError(f"level {pair!r}: need refinement >= 0 and n_layers >= 1")
        checked.append((refinement, layers))
    if not checked:
        raise ValueError("levels must hold at least one (refinement, n_layers) pair")
    return checked


def convergence_study(
    k,
    levels,
    mode="shallow",
    a=1.0,
    thickness=1.0,
    tolerance=1e-10,
    seed=DEFAULT_SEED,
) -> ConvergenceTable:
    """Solve the manufactured problem on a ladder of meshes and report rates.

    ``levels`` is a list of (refinement, n_layers) pairs, each halving the
    mesh size of the previous one.  The forcing is the derived (F, g) in
    closed form; the oracle-built printed-vs-derived report at the default
    ``sample_manifold_points`` is attached to the table.  Raises ValueError
    before any sampling for an empty ``levels`` or a pair that is not two
    integers with refinement >= 0 and n_layers >= 1, a radius ``a``,
    ``thickness`` or ``tolerance`` that is not a finite number > 0, sizes
    that ``ManufacturedCase`` rejects, or a ``mode`` or ``k`` that
    ``ProblemConfig`` or ``fem.make_element`` rejects.
    """
    levels = _check_levels(levels)
    for name, value in (("radius a", a), ("thickness", thickness), ("tolerance", tolerance)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    case = ManufacturedCase(a=a, H=thickness)
    ops = ShallowOperators(a=a, H=thickness)
    config = _assembly.ProblemConfig(
        mode=mode,
        k=k,
        omega4=case.omega4,
        f4=case.derived_f4(ops),
        g=case.derived_g(ops),
        solver_tolerance=tolerance,
    )
    elements = make_element("V1", k), make_element("V2", k)
    report = derive_forcing(case, sample_manifold_points(a, thickness, seed=seed), ops)

    rows = []
    prev = None
    for i, (refinement, layers) in enumerate(levels, start=1):
        base = build_icosahedral_sphere(refinement, radius=a)
        mesh = extrude_radial(base, layers, thickness)
        facets = classify_facets(mesh)
        u_space, p_space = (build_dof_map(mesh, facets, e) for e in elements)

        system = _assembly.assemble(config, u_space, p_space)
        system = _assembly.apply_inner_bc(system)
        result = _assembly.solve(system, tolerance)

        coords = _assembly.coordinate_field(config, mesh)
        err_u, err_p = l2_errors(result.u, result.p, case, coords)
        h = float(geometry.cell_diameters(coords).max())

        rate_p = rate_u = None
        if prev is not None:
            rate_p = math.log2(prev[0] / err_p)
            rate_u = math.log2(prev[1] / err_u)
        rows.append(
            ConvergenceRow(
                level=i, refinement=refinement, layers=layers,
                ncells=mesh.n_cells, ndofs=u_space.n_dofs + p_space.n_dofs,
                h_mesh=h, err_p=err_p, err_u=err_u,
                rate_p=rate_p, rate_u=rate_u, residual=result.residual,
                solve_stats=result.stats,
            )
        )
        prev = (err_p, err_u)
    return ConvergenceTable(k=k, mode=mode, rows=tuple(rows), forcing_report=report)
