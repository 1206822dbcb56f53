"""The quick demos run as scripts: exit 0 and print their closing line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from shallowfem import cli

REPO = Path(__file__).resolve().parents[1]


def run_demo(name, cwd):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(REPO / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_export_meshes_demo(tmp_path):
    lines = run_demo("export_meshes.py", tmp_path)
    assert lines[-1] == "(the gap scales linearly with height above the inner sphere)"
    assert sorted(p.name for p in (tmp_path / "mesh_out").iterdir()) == [
        "annulus.vtk", "hedgehog.vtk",
    ]


def test_verify_forcing_demo(tmp_path):
    label, value = run_demo("verify_forcing.py", tmp_path)[-1].split("=")
    assert label.strip() == "|F_printed - 2 Omega x u|"
    assert float(value) < 1e-12


def test_convergence_study_demo(tmp_path):
    """The quick k=1 ladder converges at first order and meets the residual contract."""
    lines = run_demo("convergence_study.py", tmp_path)
    csv = (tmp_path / "convergence_k1.csv").read_text().splitlines()
    assert csv[0] == cli.CSV_HEADER and len(csv) == 4
    last = dict(zip(csv[0].split(","), csv[-1].split(",")))
    lo_p, hi_p, lo_u, hi_u = cli.RATE_WINDOWS[1]
    assert lo_p <= float(last["rate_p"]) <= hi_p
    assert lo_u <= float(last["rate_u"]) <= hi_u
    worst = [line for line in lines if line.startswith("worst solve residual:")]
    assert len(worst) == 1 and float(worst[0].split(":")[1]) <= 1e-10
