"""Check the manufactured forcing terms against a finite-difference oracle.

The manufactured pressure is p = x1 x2 x3 (x4^2 - 1)(x4^2 - 4) on the unit
sphere shell of thickness 1.  The published velocity that goes with it is not
tangent to the shell: its normal component is
(3 - a^2) x1 x2 x3 (x4^2-1)(x4^2-4)/a, 2 x1 x2 x3 (x4^2-1)(x4^2-4) at a = 1,
which this script evaluates two ways (numerically and from that closed form)
before projecting it out.

The momentum forcing F and mass forcing g are then re-derived by applying the
continuous operators, implemented with frame-based finite differences, to the
projected velocity.  The derived F differs from the published one by exactly
u + grad p, i.e. the published F covers only the rotation term; the derived g
has no comparably crisp relationship to the published one.  Both gaps are
printed rather than patched over, and the convergence study consumes the
derived pair.

    python3 demos/verify_forcing.py
"""

import numpy as np

from shallowfem import mms

case = mms.ManufacturedCase(a=1.0, H=1.0)
ops = mms.ShallowOperators(a=1.0, H=1.0)
pts = mms.sample_manifold_points(1.0, 1.0, n=200, seed=mms.DEFAULT_SEED)

report = mms.derive_forcing(case, pts, ops)
for line in report.summary_lines():
    print(line)

# The whole F gap is the u + grad p part of the operator:
u = case.u_exact(pts)
grad_p = ops.oracle_grad(case.p_exact, pts)
gap = report.F_derived - case.F_printed(pts) - (u + grad_p)
print()
print(f"|F_derived - F_printed - (u + grad p)| = {np.abs(gap).max():.3e}")

# and the printed F alone is the pure rotation term, 2 omega_4 i4 x u:
omega = np.zeros_like(pts)
omega[:, 3] = case.omega4(pts)
cor = 2.0 * ops.tangent_cross(omega, u, pts)
print(f"|F_printed - 2 Omega x u|              = {np.abs(case.F_printed(pts) - cor).max():.3e}")
