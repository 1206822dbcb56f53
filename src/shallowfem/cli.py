"""Command-line front end.

Three subcommands:

  export-mesh     write the annulus and hedgehog meshes as legacy ASCII
                  unstructured-grid files (wedge cells, type 13)
  verify-forcing  compare printed and oracle-derived forcing at seeded
                  pseudo-random manifold points; text plus JSON output
  convergence     run the manufactured-solution study and emit a CSV table
                  (optionally failing, with --check, when the observed rates
                  leave the expected windows, and writing, with --stats-json,
                  each level's solver stats)

All commands are deterministic for fixed flags, so reruns produce
byte-identical files.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import mms
from .assembly import SolverError
from .geometry import hedgehog_coordinates
from .mesh import build_icosahedral_sphere, extrude_radial

__all__ = ["main"]

VTK_WEDGE = 13


def _write_vtk(path: Path, points: np.ndarray, cells: np.ndarray, title: str):
    """Legacy ASCII unstructured grid with wedge connectivity."""
    lines = [
        "# vtk DataFile Version 2.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    for x, y, z in points:
        lines.append(f"{x:.17g} {y:.17g} {z:.17g}")
    lines.append(f"CELLS {len(cells)} {len(cells) * 7}")
    for c in cells:
        lines.append("6 " + " ".join(str(int(v)) for v in c))
    lines.append(f"CELL_TYPES {len(cells)}")
    lines.extend([str(VTK_WEDGE)] * len(cells))
    path.write_text("\n".join(lines) + "\n")


def _build_mesh(args):
    base = build_icosahedral_sphere(args.refinement, radius=args.inner_radius)
    return extrude_radial(base, args.layers, args.thickness)


def cmd_export_mesh(args) -> int:
    mesh = _build_mesh(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    annulus_path = out / "annulus.vtk"
    _write_vtk(annulus_path, mesh.vertex_coords, mesh.cell_vertices, "spherical annulus mesh")

    points = hedgehog_coordinates(mesh).reshape(-1, 3)
    cells = np.arange(len(points)).reshape(-1, 6)
    hedgehog_path = out / "hedgehog.vtk"
    _write_vtk(hedgehog_path, points, cells, "hedgehog mesh (per-column extrusion)")

    print(f"wrote {annulus_path} ({len(mesh.vertex_coords)} points, {mesh.n_cells} cells)")
    print(f"wrote {hedgehog_path} ({len(points)} points, {mesh.n_cells} cells)")
    return 0


def _check_outputs(*paths):
    """Raise ValueError unless the given output paths (None is skipped) name
    distinct files in existing, writable directories; commands check them
    before they compute, which can take minutes.  An empty path names no
    file (``Path("")`` is the working directory)."""
    given = [p for p in paths if p is not None]
    paths = [Path(p) for p in given]
    for p, path in zip(given, paths):
        writable = path.parent.is_dir() and os.access(path.parent, os.W_OK)
        if p == "" or path.is_dir() or not writable:
            raise ValueError(
                f"cannot write {p or repr(p)}: not a file in an existing, writable directory")
    if len({path.resolve() for path in paths}) < len(paths):
        raise ValueError(f"output paths {', '.join(map(str, paths))} must name distinct files")


def cmd_verify_forcing(args) -> int:
    _check_outputs(args.out)
    case = mms.ManufacturedCase(a=args.inner_radius, H=args.thickness)
    pts = mms.sample_manifold_points(args.inner_radius, args.thickness, args.points, args.seed)
    report = mms.derive_forcing(case, pts)

    text = "\n".join(report.summary_lines()) + "\n"
    sys.stdout.write(text)
    if args.out:
        payload = {
            "n_points": report.n_points,
            "seed": args.seed,
            "max_u_normal": report.max_u_normal,
            "max_u_normal_analytic_gap": report.max_u_normal_analytic_gap,
            "tangency_after_projection": report.tangency_after_projection,
            "f_discrepancy": report.f_discrepancy,
            "g_discrepancy": report.g_discrepancy,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return 0


CSV_HEADER = "level,refinement,layers,ncells,ndofs,h_mesh,err_p,err_u,rate_p,rate_u"

RATE_WINDOWS = {
    # final-level windows: (p_low, p_high, u_low, u_high)
    1: (0.8, 1.3, 0.8, 1.3),
    2: (1.7, float("inf"), 1.0, 2.0),
}


def _csv_lines(table: mms.ConvergenceTable):
    lines = [CSV_HEADER]
    for r in table.rows:
        rate_p = "" if r.rate_p is None else f"{r.rate_p:.17g}"
        rate_u = "" if r.rate_u is None else f"{r.rate_u:.17g}"
        lines.append(
            f"{r.level},{r.refinement},{r.layers},{r.ncells},{r.ndofs},"
            f"{r.h_mesh:.17g},{r.err_p:.17g},{r.err_u:.17g},{rate_p},{rate_u}"
        )
    return lines


def _parse_levels(spec: str):
    """``"r:L,r:L,..."`` to [(refinement, layers), ...]; ArgumentTypeError,
    with the reason, if a part is not integers or the study's own check of
    the pairs rejects it."""
    levels = []
    for part in spec.split(","):
        try:
            levels.append(tuple(int(n) for n in part.split(":")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"level {part!r}: need integers refinement:n_layers") from None
    try:
        return mms._check_levels(levels)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_int(text: str) -> int:
    """argparse type for integers >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"need an integer >= 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for integers >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for finite numbers > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"need a finite number > 0, got {text!r}")
    return value


def _rate(value) -> str:
    """A final rate for the summary line; a single level has none."""
    return "n/a" if value is None else f"{value:.3f}"


def cmd_convergence(args) -> int:
    _check_outputs(args.csv, args.forcing_report, args.stats_json)
    table = mms.convergence_study(
        k=args.k,
        levels=args.levels,
        mode=args.mode,
        a=args.inner_radius,
        thickness=args.thickness,
        tolerance=args.tolerance,
        seed=args.seed,
    )

    csv_text = "\n".join(_csv_lines(table)) + "\n"
    Path(args.csv).write_text(csv_text)
    print(csv_text, end="")

    report_path = Path(args.forcing_report)
    report_path.write_text("\n".join(table.forcing_report.summary_lines()) + "\n")
    if args.stats_json:
        stats = [dict(r.solve_stats, level=r.level, residual=r.residual) for r in table.rows]
        Path(args.stats_json).write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.stats_json}")

    rate_p, rate_u = table.final_rates
    worst_res = max(r.residual for r in table.rows)
    print(f"final rates: p {_rate(rate_p)}, u {_rate(rate_u)}; max solve residual {worst_res:.2e}")
    print(f"wrote {args.csv} and {report_path}")

    if args.check:
        lo_p, hi_p, lo_u, hi_u = RATE_WINDOWS[args.k]
        ok = lo_p <= rate_p <= hi_p and lo_u <= rate_u <= hi_u
        if not ok:
            print(
                f"rate check FAILED: expected p in [{lo_p}, {hi_p}], u in [{lo_u}, {hi_u}]",
                file=sys.stderr,
            )
            return 1
        print("rate check passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shallowfem",
        description="Mixed finite elements for the shallow atmosphere approximation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--inner-radius", type=_positive_float, default=1.0)
        p.add_argument("--thickness", type=_positive_float, default=1.0)

    p = sub.add_parser("export-mesh", help="write annulus + hedgehog mesh files")
    common(p)
    p.add_argument("--refinement", type=_nonnegative_int, default=0)
    p.add_argument("--layers", type=_positive_int, default=1)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_export_mesh)

    p = sub.add_parser("verify-forcing", help="printed vs derived forcing report")
    common(p)
    p.add_argument("--points", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=mms.DEFAULT_SEED)
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_verify_forcing)

    p = conv = sub.add_parser("convergence", help="manufactured-solution convergence study")
    common(p)
    p.add_argument("--k", type=int, default=1, choices=(1, 2))
    p.add_argument("--levels", type=_parse_levels, default="1:2,2:4,3:8",
                   help="refinement:layers pairs")
    p.add_argument("--mode", default="shallow", choices=("shallow", "deep"))
    p.add_argument("--tolerance", type=_positive_float, default=1e-10)
    p.add_argument("--seed", type=_nonnegative_int, default=mms.DEFAULT_SEED)
    p.add_argument("--csv", default="convergence.csv")
    p.add_argument("--forcing-report", default="forcing_report.txt")
    p.add_argument("--stats-json", default=None,
                   help="optional JSON output: solver stats and residual per level")
    p.add_argument("--check", action="store_true", help="exit nonzero outside rate windows")
    p.set_defaults(func=cmd_convergence)

    args = parser.parse_args(argv)
    if args.command == "convergence" and args.check and len(args.levels) < 2:
        conv.error("--check needs at least two levels to compute a rate")
    if args.command == "convergence" and args.check and args.mode == "deep":
        conv.error("--check needs --mode shallow: the rate windows are the shallow ones, "
                   "and deep errors measure the shallow-to-deep gap")
    try:
        return args.func(args)
    except (SolverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except MemoryError:
        print("error: out of memory; try coarser --levels or fewer --points", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
