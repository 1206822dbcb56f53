"""Smoke test of the benchmark on a tiny ladder (k=1, levels 0:1,1:2).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

TINY = run.Workload("tiny", 1, ((0, 1), (1, 2)), "shallow", "smoke")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def package():
    run.load_package()
    sys.path.insert(0, str(run.HERE))


def _expected(group):
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(trace, group):
    res = run.run(TINY, seed=3, seconds=0, trace=trace, setup_repeats=1)
    assert res["correct"], res["detail"]["operations"]
    assert (res["attempted"], res["failed"]) == (2, 0)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == _expected(group)
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def test_traced_rows_match_untraced():
    res = run.run(TINY, seed=3, seconds=0, trace=1)
    assert res["detail"]["row_mismatches"] == []
    assert res["metrics"]["trace.row_mismatches"]["value"] == 0
    for traced, untraced in zip(res["detail"]["rows"], res["detail"]["untraced_rows"]):
        for f in run.ROW_FIELDS:
            assert traced[f] == untraced[f]


@pytest.mark.parametrize("trace", [0, 1])
def test_unattainable_tolerance_counts_failures(trace):
    wl = run.Workload("tiny-strict", 1, TINY.levels, "shallow", "smoke", tolerance=1e-30)
    res = run.run(wl, seed=3, seconds=0, trace=trace, setup_repeats=1)
    assert not res["correct"]
    assert (res["attempted"], res["failed"]) == (2, 2)
    assert all("SolverError" in op["reasons"][0] for op in res["detail"]["operations"])


def test_gates_reject_worse_errors_and_rates():
    wl = run.WORKLOADS["k2-acceptance"]
    rows = [
        {"level": i + 1, "residual": 1e-15, "err_p": p, "err_u": u,
         "rate_p": None, "rate_u": None}
        for i, (p, u) in enumerate(wl.ref_errors)
    ]
    rows[-1].update(rate_p=1.8, rate_u=1.66)
    assert all(op["ok"] for op in run.check_rows(wl, rows))

    better = [dict(r, err_p=r["err_p"] / 2) for r in rows]
    assert all(op["ok"] for op in run.check_rows(wl, better))

    worse = [dict(r) for r in rows]
    worse[1]["err_u"] *= 1.0 + 2 * run.ERR_BOUND
    worse[2].update(rate_p=1.0, residual=float("nan"))
    ops = run.check_rows(wl, worse)
    assert [op["ok"] for op in ops] == [True, False, False]
    assert len(ops[2]["reasons"]) == 2


def test_exits_nonzero_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in ("run.py", "traced.py"):
        (bench / f).write_text((run.HERE / f).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep-wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
