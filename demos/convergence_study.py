"""Run the manufactured-solution convergence study and print the rate table.

Solves the mixed velocity-pressure system on a ladder of meshes, each level
doubling the horizontal refinement and the layer count, and reports L2 errors
against the manufactured solution.  Lowest-order elements converge at first
order in both fields; quadratic elements reach second order in pressure while
the velocity sits between first and second because the mesh only approximates
the annulus piecewise linearly.

    python3 demos/convergence_study.py          # quick k=1 ladder, 0.5-0.6 s on 2 vCPUs
    python3 demos/convergence_study.py full     # the production ladders

The CSV written to the working directory, convergence_k{k}.csv, matches the
`shallowfem convergence` command's output format.
"""

import sys
from pathlib import Path

from shallowfem import cli, mms

full = len(sys.argv) > 1 and sys.argv[1] == "full"

ladders = {
    1: [(1, 2), (2, 4), (3, 8)] if full else [(0, 1), (1, 2), (2, 4)],
    2: [(0, 1), (1, 2), (2, 4)],
}

for k, levels in ladders.items():
    if k == 2 and not full:
        break
    print(f"--- k = {k}, levels {levels}")
    table = mms.convergence_study(k=k, levels=levels)
    lines = cli._csv_lines(table)
    print("\n".join(lines))
    rate_p, rate_u = table.final_rates
    print(f"final rates: p {rate_p:.3f}, u {rate_u:.3f}")
    worst = max(row.residual for row in table.rows)
    print(f"worst solve residual: {worst:.2e}")
    out = Path(f"convergence_k{k}.csv")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    print()
