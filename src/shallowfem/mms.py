"""Manufactured-solution machinery and independent differential operators.

The discretisation is verified against the exact solution of the mixed
system on S^2(a) x [0, H].  The operators here are deliberately independent
of the finite element code: derivatives come from central finite differences
in the orthonormal frame (e_lambda, e_phi, i4) of ``geometry.tangent_frame``,

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
projects u onto the tangent space and re-derives the forcing (F, g) through
the oracles; discrepancies against the printed forcing are reported, never
patched silently.  The providers and ``derive_forcing`` raise ValueError
when the operators' radius is not the case's.

The solver's providers (``ManufacturedCase.derived_f4`` / ``derived_g``)
evaluate grad p and div u in closed form, at the same manifold points and in
the same frames as the finite-difference stencils, so they are finite at the
poles and cost no perturbed evaluations.  ``derive_forcing`` and the tests
keep building (F, g) from the finite-difference oracles as the independent
check of those closed forms.

The providers and the exact fields run once per quadrature point of every
level, so they work on coordinate planes (see geometry's tangent-space
section): one call copies the points (..., 4) into the contiguous planes
x1, x2, x3, h, builds one tangent frame and one longitude, computes every
intermediate as a (...)-shaped plane with the plane kernels
(``TangentFrame.at`` / ``dot`` / ``combine``, ``tangent_planes``) and writes
its (..., 4) result once.  On (..., 4) arrays the same formulas spent most
of their time striding over the last axis and building np.stack,
np.linalg.norm and einsum temporaries.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import assembly as _assembly
from . import geometry
from .fem import build_dof_map, default_quadrature_degree, make_element, quadrature_prism, tabulate
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
        return geometry.tangent_frame(x4, self.a).vector(d)

    def _frame_component(self, u, which, lam, phi, h):
        """u_lambda, cos(phi) u_phi, or u_4 at the given frame coordinates."""
        x = self.point(lam, phi, h)
        c = geometry.tangent_frame(x, self.a).components(u(x))
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
        fr = geometry.tangent_frame(x4, self.a)
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

    def _p(self, x):
        return x[0] * x[1] * x[2] * self._q(x[3])

    def p_exact(self, x4):
        return self._p(geometry.coordinate_planes(x4))

    def _u_printed(self, x):
        x1, x2, x3, h = x
        q = self._q(h)
        return (
            x2 * x3 * (1.0 - x1 ** 2) * q,
            x1 * x3 * (1.0 - x2 ** 2) * q,
            x1 * x2 * (1.0 - x3 ** 2) * q,
            2.0 * x1 * x2 * x3 * h * (2.0 * h ** 2 - 5.0),
        )

    def u_printed(self, x4):
        return geometry.stack_planes(self._u_printed(geometry.coordinate_planes(x4)))

    def u_exact(self, x4):
        """Tangentially projected printed velocity (the solution actually used)."""
        x = geometry.coordinate_planes(x4)
        return geometry.stack_planes(geometry.tangent_planes(self._u_printed(x), x))

    def u_dot_l_analytic(self, x4):
        """Closed form of the printed velocity's normal component on S^2(a)."""
        x4, a = np.asarray(x4, dtype=float), self.a
        return (3.0 - a * a) * x4[..., 0] * x4[..., 1] * x4[..., 2] * self._q(x4[..., 3]) / a

    omega4 = staticmethod(_assembly.traditional_omega)

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
            u = geometry.tangent_planes(self._u_printed(x), x)
            c_l, s_l = fr.cos_l, fr.sin_l
            s_p, c_p = _oracle_latitude(x, ops.a)
            a, h, q = ops.a, x[3], self._q(x[3])
            # frame components of u and Omega, as in tangent_cross; Omega is
            # along i4, so its e_lambda and e_phi components vanish
            u_l, u_p = fr.dot(u)
            o_4 = self.omega4(x4)[..., 3]
            # frame components of grad p at y, plus those of 2 Omega x u
            f_l = a * a * q * c_p * s_p * (c_l * c_l - s_l * s_l)
            f_l -= 2.0 * (o_4 * u_p)
            f_p = a * a * q * (1.0 - 3.0 * s_p * s_p) * s_l * c_l * c_p
            f_p += 2.0 * (o_4 * u_l)
            f_4 = 2.0 * a ** 3 * h * (2.0 * h * h - 5.0) * s_l * c_l * s_p * c_p * c_p
            # u + 2 Omega x u + grad p, written once
            return geometry.stack_planes(fr.combine((f_l, f_p, f_4), u))

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
            return div - self._p(x)

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
    points: np.ndarray
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
    # independent derivation that the providers' closed forms are tested against.
    F_d = (
        u_t
        + 2.0 * ops.tangent_cross(case.omega4(x4), u_t, x4)
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
        points=x4,
        F_derived=F_d,
        g_derived=g_d,
    )


# ---------------------------------------------------------------------------
# Error norms and the convergence study
# ---------------------------------------------------------------------------

def l2_errors(u_h, p_h, case: ManufacturedCase, coords, degree=None):
    """L^2 errors in the active coordinate field's measure.

    The exact velocity is evaluated on the manifold, tangent-projected,
    pushed forward through chi_e, and compared against the Piola-evaluated
    discrete field at the 2k + 8 points.  Returns (err_u, err_p).  ``degree``
    stays only for the benchmark's traced walk, which passes None.
    """
    space_u, space_p = u_h.space, p_h.space
    x4 = geometry.manifold_coordinates(space_u.mesh)
    k = space_u.element.k
    rule = quadrature_prism(degree if degree is not None else default_quadrature_degree(k))
    pts, w = rule.points, rule.weights
    nq = len(w)
    tab1 = tabulate(space_u.element, pts)
    tab2 = tabulate(space_p.element, pts)
    phi = tab1.values.transpose(1, 0, 2).reshape(-1, nq * 3)    # (nd1, (q, c))
    psiT = tab2.values.T                                        # (nd2, nq)

    err_u2 = 0.0
    err_p2 = 0.0
    for cells, J, pinv4T, x4q in geometry.quadrature_chunks(coords, x4, pts):
        ch = len(cells)
        det = np.broadcast_to(J.det, (ch, nq))
        p_ex = case.p_exact(x4q)

        # u_h - u_exact = J (vhat / det - pinv4 u_exact) at every point
        chat = u_h.coeffs[space_u.cell_dofs[cells]] * space_u.cell_signs[cells]
        vhat = (chat @ phi).reshape(ch, nq, 3)
        diff = geometry.matvec3(J.J, vhat / det[..., None] - case.u_exact(x4q) @ pinv4T)
        p_hv = p_h.coeffs[space_p.cell_dofs[cells]] @ psiT

        err_u2 += float(np.einsum("q,eq,eq->", w, det, (diff ** 2).sum(-1)))
        err_p2 += float(np.einsum("q,eq,eq->", w, det, (p_hv - p_ex) ** 2))
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
    ``sample_manifold_points`` is attached to the table.  An empty
    ``levels``, a radius ``a`` or ``thickness`` that is not a finite number
    > 0, or sizes that ``ManufacturedCase`` rejects, raise ValueError before
    any sampling.
    """
    levels = list(levels)
    if not levels:
        raise ValueError("levels must hold at least one (refinement, n_layers) pair")
    for name, value in (("radius a", a), ("thickness", thickness)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    case = ManufacturedCase(a=a, H=thickness)
    ops = ShallowOperators(a=a, H=thickness)
    report = derive_forcing(case, sample_manifold_points(a, thickness, seed=seed), ops)

    config = _assembly.ProblemConfig(
        mode=mode,
        k=k,
        omega4=case.omega4,
        f4=case.derived_f4(ops),
        g=case.derived_g(ops),
        solver_tolerance=tolerance,
    )

    rows = []
    prev = None
    for i, (refinement, layers) in enumerate(levels, start=1):
        base = build_icosahedral_sphere(refinement, radius=a)
        mesh = extrude_radial(base, layers, thickness)
        facets = classify_facets(mesh)
        u_space = build_dof_map(mesh, facets, make_element("V1", k))
        p_space = build_dof_map(mesh, facets, make_element("V2", k))

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
