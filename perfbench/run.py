"""Convergence-ladder benchmark for shallowfem.

A run is one fresh process that calls ``mms.convergence_study`` over a
workload's ladder (the call ``shallowfem convergence`` makes), closed loop:
the next ladder starts when the previous one has returned, until
``--seconds`` have passed, and always at least once.

    python3 perfbench/run.py --workload k2-acceptance --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1     # every workload, one table

``--trace 0`` reports the end-to-end metrics: ``ladder_s`` (median wall
seconds of the ladder calls), ``peak_rss_mb`` (``ru_maxrss`` at the end) and
``setup_s`` (median over fresh child processes of the time from process start
until the ladder can be called: numpy, scipy and shallowfem imports plus the
V1/V2 ``make_element`` calls).  ``--trace 1`` instead walks the ladder stage
by stage with spans (see ``traced.py``), checks that its rows equal an
untraced ``convergence_study`` call bit for bit, and reports per-layer
metrics: seconds summed over the ladder, counts and memory at the finest
level.  The walk runs first in its fresh process, so ``ru_maxrss`` after
each stage is that ladder's own; tracing overhead is the walk's time without
its probes minus the untraced ladder's.  Per-level values, every span and
the run metadata (nproc, Python/numpy/scipy versions, BLAS threads, load
average at start and end, seed, git commit or source digest) go to
``perfbench/out/``.  The seed reaches the program only as
``convergence_study(seed=...)``, which moves the forcing report's sample
points.

One ladder level is one operation.  It fails if it raises, if its solve
residual exceeds the tolerance, if an error is not finite, and on the
shallow acceptance ladders also if the final rates leave
``cli.RATE_WINDOWS[k]`` or a level's error is worse than the value recorded
at commit 71da9f2 by more than ``ERR_BOUND``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` next to this directory; without it the run exits
with code 2 and prints no result.
"""

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One-sided accuracy gate: a level's error may exceed the value recorded at
# commit 71da9f2 by at most this share.
ERR_BOUND = 0.05
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    levels: tuple
    mode: str
    why: str
    # (err_p, err_u) per level recorded at commit 71da9f2.  Given for the
    # shallow acceptance ladders, which are also held to cli.RATE_WINDOWS[k];
    # None on ladders whose errors measure no accuracy.
    ref_errors: tuple = None
    tolerance: float = 1e-10


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "k1-acceptance", 1, ((1, 2), (2, 4), (3, 8)), "shallow",
            "default CLI ladder; splu of the tall (3,8) system dominates time "
            "and peak memory (about 85 s a ladder on 2 cores, so BENCHMARK.json "
            "leaves it to --all)",
            ref_errors=(
                (0.4136093199741255, 0.981151314154479),
                (0.2302754107704433, 0.505456989659875),
                (0.11798329513527428, 0.2540789173235942),
            ),
        ),
        Workload(
            "k2-acceptance", 2, ((0, 1), (1, 2), (2, 4)), "shallow",
            "high-order 33-DOF V1 ladder; splu about half, local quadrature "
            "kernels most of assembly, forcing evaluation small",
            ref_errors=(
                (0.2205823333887655, 0.7159803512448549),
                (0.06655998576250283, 0.48780284827830606),
                (0.01906483874754949, 0.15416085331065846),
            ),
        ),
        Workload(
            "deep-wide", 1, ((3, 1), (4, 2)), "deep",
            "as many cells as (3,8) in two layers: small LU fill, one Jacobian "
            "per quadrature point; assembly, forcing and errors dominate",
        ),
    )
}

END_TO_END_UNITS = {"ladder_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# name -> (unit, source, how): "span" sums the spans named by source over
# the ladder, "probe" the probe spans; "sum", "max" and "finest" (the last
# level's value) combine the per-level counts named by source; "row" takes
# the finest row's field; "derived" is computed in per_layer_metrics.
PER_LAYER = {
    "mesh.build_s": ("s", "mesh.build", "span"),
    "mesh.n_cells": ("count", "mesh.n_cells", "finest"),
    "fem.elements_s": ("s", "fem.elements", "span"),
    "fem.dofmap_s": ("s", "fem.dofmap", "span"),
    "fem.n_dofs": ("count", "fem.n_dofs", "finest"),
    "geometry.probe_s": ("s", "probe.geometry", "probe"),
    "geometry.n_factorizations": ("count", "geometry.n_factorizations", "sum"),
    "geometry.cell_diameters_s": ("s", "geometry.cell_diameters", "span"),
    "mms.coeff_eval_probe_s": ("s", "probe.coeff_eval_s", "sum"),
    "assembly.assemble_s": ("s", "assembly.assemble", "span"),
    "assembly.nnz": ("count", "assembly.nnz", "finest"),
    "assembly.n_quadrature_points": ("count", "assembly.n_quadrature_points", "finest"),
    "assembly.kernel_rest_s": ("s", None, "derived"),
    "assembly.bc_s": ("s", "assembly.bc", "span"),
    "assembly.solve_s": ("s", "assembly.solve", "span"),
    "assembly.solve_residual": ("relative", "assembly.solve_residual", "max"),
    "assembly.rss_after_assemble_mb": ("MiB", "assembly.rss_after_assemble_mb", "finest"),
    "assembly.rss_after_solve_mb": ("MiB", "assembly.rss_after_solve_mb", "finest"),
    "mms.l2_errors_s": ("s", "mms.l2_errors", "span"),
    "mms.forcing_report_s": ("s", "mms.forcing_report", "span"),
    "mms.err_p": ("L2", "err_p", "row"),
    "mms.err_u": ("L2", "err_u", "row"),
    "mms.rate_p": ("log2", "rate_p", "row"),
    "mms.rate_u": ("log2", "rate_u", "row"),
    "trace.walk_s": ("s", None, "derived"),
    "trace.ladder_s": ("s", None, "derived"),
    "trace.overhead_s": ("s", None, "derived"),
    "trace.row_mismatches": ("count", None, "derived"),
}

ROW_FIELDS = ("ncells", "ndofs", "h_mesh", "err_p", "err_u", "rate_p", "rate_u", "residual")

SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy, scipy.sparse.linalg
from shallowfem import fem
fem.make_element("V1", int(sys.argv[2]))
fem.make_element("V2", int(sys.argv[2]))
print(repr(time.perf_counter()))
"""


def load_package():
    """Import shallowfem from ``src/`` next to the benchmark, or exit 2."""
    init = SRC / "shallowfem" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no package source at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import shallowfem

    if Path(shallowfem.__file__).resolve() != init:
        print(f"perfbench: imported {shallowfem.__file__}, expected {init}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Run metadata
# ---------------------------------------------------------------------------

def blas_threads():
    """Thread count of each OpenBLAS loaded in this process, where readable."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({
                line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            })
    except OSError:
        return None
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def src_digest():
    """SHA-256 over the package sources, to identify the code in a checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "shallowfem").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_metadata(seed):
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


# ---------------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------------

def check_rows(wl, rows):
    """Gate each level's row; returns one operation record per row."""
    from shallowfem.cli import RATE_WINDOWS

    ops = []
    for row in rows:
        i = row["level"] - 1
        reasons = []
        res = row["residual"]
        if res is None or not math.isfinite(res) or res > wl.tolerance:
            reasons.append(f"residual {res} exceeds {wl.tolerance:g}")
        for key in ("err_p", "err_u"):
            if not math.isfinite(row[key]):
                reasons.append(f"{key} not finite")
        if wl.ref_errors is not None:
            for key, ref in zip(("err_p", "err_u"), wl.ref_errors[i]):
                if row[key] > ref * (1.0 + ERR_BOUND):
                    reasons.append(f"{key} {row[key]:.6e} worse than reference {ref:.6e}")
        if wl.ref_errors is not None and i == len(wl.levels) - 1:
            window = RATE_WINDOWS[wl.k]
            rp, ru = row["rate_p"], row["rate_u"]
            if rp is None or not (window[0] <= rp <= window[1] and window[2] <= ru <= window[3]):
                reasons.append(f"final rates p {rp}, u {ru} outside {window}")
        ops.append({"level": row["level"], "ok": not reasons, "reasons": reasons})
    return ops


def _failed_levels(wl, exc):
    """convergence_study returns no rows when a level raises: all levels fail."""
    why = f"ladder raised {type(exc).__name__}: {exc}"
    return [{"level": i + 1, "ok": False, "reasons": [why]} for i in range(len(wl.levels))]


def _ladder(wl, seed):
    """One untraced ``convergence_study`` call: (seconds, rows or None, ops)."""
    from shallowfem import mms
    from traced import LEVEL_ERRORS

    t0 = time.perf_counter()
    try:
        table = mms.convergence_study(
            k=wl.k, levels=list(wl.levels), mode=wl.mode,
            tolerance=wl.tolerance, seed=seed,
        )
    except LEVEL_ERRORS as exc:
        return time.perf_counter() - t0, None, _failed_levels(wl, exc)
    seconds = time.perf_counter() - t0
    rows = [dataclasses.asdict(r) for r in table.rows]
    return seconds, rows, check_rows(wl, rows)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure_setup(k, repeats):
    """Seconds from spawning a fresh interpreter until the ladder can be called.

    The child prints ``time.perf_counter()`` when ready; on Linux both clocks
    are CLOCK_MONOTONIC, shared by all processes.
    """
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(k)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def run_untraced(wl, seed, seconds, setup_repeats=SETUP_REPEATS):
    """End-to-end run: set-up samples, then closed-loop ladders."""
    from traced import maxrss_mb

    setup = measure_setup(wl.k, setup_repeats)
    ladders, ops, rows = [], [], None
    start = time.perf_counter()
    while True:
        t, rows_i, ops_i = _ladder(wl, seed)
        ladders.append(t)
        ops.extend(ops_i)
        rows = rows_i if rows_i is not None else rows
        if time.perf_counter() - start >= seconds:
            break
    failed = sum(not op["ok"] for op in ops)
    metrics = {
        "ladder_s": statistics.median(ladders),
        "peak_rss_mb": maxrss_mb(),
        "setup_s": statistics.median(setup),
    }
    return {
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in metrics.items()},
        "detail": {"setup_samples_s": setup, "ladder_samples_s": ladders,
                   "operations": ops, "rows": rows},
    }


def compare_rows(traced_rows, ref_rows):
    """Field-by-field differences between traced and untraced rows."""
    if ref_rows is None:
        return [{"level": r["level"], "field": "rows", "traced": "present", "untraced": "raised"}
                for r in traced_rows if "error" not in r]
    diffs = []
    by_level = {r["level"]: r for r in traced_rows}
    for ref in ref_rows:
        row = by_level.get(ref["level"])
        if row is None or "error" in row:
            diffs.append({"level": ref["level"], "field": "rows",
                          "traced": row and row.get("error"), "untraced": "present"})
            continue
        for f in ROW_FIELDS:
            if row[f] != ref[f]:
                diffs.append({"level": ref["level"], "field": f,
                              "traced": row[f], "untraced": ref[f]})
    return diffs


def per_layer_metrics(tr, rows, walk_s, ladder_s, mismatches):
    """Per-layer values from spans, counts and the traced rows.

    A value the ladder never reached (a failed level) reads 0.
    """
    ok_rows = [r for r in rows if "error" not in r]
    finest = ok_rows[-1] if ok_rows else {}
    combine = {"finest": lambda v: v[-1], "sum": sum, "max": max}
    values = {}
    for name, (_, src, how) in PER_LAYER.items():
        if how in ("span", "probe"):
            values[name] = tr.total(src, probe=how == "probe")
        elif how in combine:
            vals = tr.counts_named(src)
            values[name] = combine[how](vals) if vals else 0
        elif how == "row":
            values[name] = finest.get(src) or 0.0
    values["assembly.kernel_rest_s"] = (
        values["assembly.assemble_s"] - values["mms.coeff_eval_probe_s"]
        - values["geometry.probe_s"]
    )
    values["trace.walk_s"] = walk_s
    values["trace.ladder_s"] = ladder_s
    values["trace.overhead_s"] = walk_s - ladder_s
    values["trace.row_mismatches"] = mismatches
    return {n: {"value": values[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}


def run_traced(wl, seed):
    """Traced walk first (so ``ru_maxrss`` per stage is this ladder's own),
    then one untraced ladder whose rows the walk must reproduce exactly."""
    import traced

    tr = traced.Tracer()
    rows = traced.walk(tr, wl.k, list(wl.levels), wl.mode, wl.tolerance, seed)
    probes = sum(s["end"] - s["start"] for s in tr.spans if s["probe"])
    walk_s = tr.total("ladder") - probes

    ladder_s, ref_rows, _ = _ladder(wl, seed)
    diffs = compare_rows(rows, ref_rows)
    ops = []
    for r in rows:
        if "error" in r:
            ops.append({"level": r["level"], "ok": False, "reasons": [r["error"]]})
            continue
        ops.extend(check_rows(wl, [r]))
        if not r["probe_factorizations_match"]:
            diffs.append({"level": r["level"], "field": "probe.geometry.n_factorizations"})
    failed = sum(not op["ok"] for op in ops)
    return {
        "correct": failed == 0 and not diffs, "attempted": len(ops), "failed": failed,
        "metrics": per_layer_metrics(tr, rows, walk_s, ladder_s, len(diffs)),
        "detail": {"operations": ops, "rows": rows, "untraced_rows": ref_rows,
                   "row_mismatches": diffs, "spans": tr.spans, "counts": tr.counts},
    }


def run(wl, seed, seconds, trace, setup_repeats=SETUP_REPEATS):
    meta = run_metadata(seed)
    meta["loadavg_start"] = os.getloadavg()
    if trace:
        result = run_traced(wl, seed)
    else:
        result = run_untraced(wl, seed, seconds, setup_repeats)
    meta["loadavg_end"] = os.getloadavg()
    result["detail"]["meta"] = meta
    return result


def _print_result(wl, seed, trace, result):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(
        {"workload": dataclasses.asdict(wl), **result}, indent=1, default=str) + "\n")
    meta = result["detail"]["meta"]
    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  "
          f"nproc {meta['nproc']}  blas threads {meta['blas_threads']}  "
          f"load {meta['loadavg_start'][0]:.2f} -> {meta['loadavg_end'][0]:.2f}")
    for op in result["detail"]["operations"]:
        if not op["ok"]:
            print(f"  level {op['level']} FAILED: {'; '.join(op['reasons'])}")
    for d in result["detail"].get("row_mismatches", []):
        print(f"  traced/untraced mismatch: {d}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"wrote {path}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(seed, seconds):
    """Every workload in its own fresh process, with tracing off; one table."""
    table = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            table[name] = None
            continue
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':16s} {'ok':>5s} {'failed':>6s} "
          + " ".join(f"{n + ' [' + u + ']':>18s}" for n, u in END_TO_END_UNITS.items()))
    for name, res in table.items():
        if res is None:
            print(f"{name:16s} {'ERROR':>5s}")
            continue
        vals = " ".join(f"{res['metrics'][n]['value']:>18.4f}" for n in END_TO_END_UNITS)
        print(f"{name:16s} {str(res['correct']):>5s} {res['failed']:>3d}/{res['attempted']:<2d} {vals}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"all-seed{seed}.json"
    path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(r is not None and r["correct"] for r in table.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, trace 0")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    load_package()
    sys.path.insert(0, str(HERE))
    if args.all:
        return run_all(args.seed, args.seconds)
    wl = WORKLOADS[args.workload]
    _print_result(wl, args.seed, args.trace, run(wl, args.seed, args.seconds, args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
