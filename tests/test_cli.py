import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shallowfem import cli, geometry, mesh


def run(argv):
    return cli.main(argv)


def read_vtk_points(path) -> np.ndarray:
    """Parse the POINTS block back out of an exported file (round-trip checks)."""
    lines = Path(path).read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("POINTS"):
            n = int(line.split()[1])
            return np.array([list(map(float, lines[i + 1 + j].split())) for j in range(n)])
    raise ValueError(f"no POINTS block in {path}")


# ---------------------------------------------------------------------------
# export-mesh
# ---------------------------------------------------------------------------

@pytest.fixture()
def exported(tmp_path):
    code = run(["export-mesh", "--refinement", "0", "--layers", "1",
                "--out-dir", str(tmp_path)])
    assert code == 0
    return tmp_path


def test_export_mesh_writes_both_files(exported):
    assert (exported / "annulus.vtk").exists()
    assert (exported / "hedgehog.vtk").exists()


def test_export_mesh_annulus_contents(exported):
    text = (exported / "annulus.vtk").read_text()
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert "POINTS 24 double" in text
    assert "CELLS 20 140" in text
    assert text.count("\n13") == 20

    pts = read_vtk_points(exported / "annulus.vtk")
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, 1.0)
    np.testing.assert_allclose(pts, m.vertex_coords, atol=1e-12)


def test_export_mesh_hedgehog_contents(exported):
    pts = read_vtk_points(exported / "hedgehog.vtk")
    assert pts.shape == (120, 3)
    wedges = pts.reshape(20, 6, 3)
    # bottom triangles sit on the inner sphere; the spiky tops do not reach
    # the outer sphere except where a vertex aligns with its column axis
    np.testing.assert_allclose(np.linalg.norm(wedges[:, :3], axis=2), 1.0, atol=1e-12)
    top_r = np.linalg.norm(wedges[:, 3:], axis=2)
    assert (top_r <= 2.0 + 1e-12).all()
    assert top_r.min() < 2.0 - 1e-3


def test_export_mesh_hedgehog_duplicates_shared_vertices(exported):
    """Columns carry private copies of shared vertices, displaced apart."""
    pts = read_vtk_points(exported / "hedgehog.vtk")
    m = mesh.extrude_radial(mesh.build_icosahedral_sphere(0, 1.0), 1, 1.0)
    wedges = pts.reshape(20, 6, 3)
    tops = m.cell_vertices[:, 3:]
    v = tops.ravel()[0]
    copies = wedges[:, 3:][tops == v]
    assert len(copies) == 5
    spread = np.linalg.norm(copies - copies.mean(axis=0), axis=1).max()
    assert spread > 1e-2


def test_export_mesh_rerun_byte_identical(exported, tmp_path):
    first = (exported / "annulus.vtk").read_bytes(), (exported / "hedgehog.vtk").read_bytes()
    out2 = tmp_path / "again"
    run(["export-mesh", "--refinement", "0", "--layers", "1", "--out-dir", str(out2)])
    assert (out2 / "annulus.vtk").read_bytes() == first[0]
    assert (out2 / "hedgehog.vtk").read_bytes() == first[1]


def test_export_mesh_at_a_large_radius(tmp_path):
    """The hedgehog field reads the chart, base vertices times layer
    heights, so the annulus radii's rounding of about 1e-16 a meets no
    radius test (an absolute 1e-9 once rejected a = 1e8)."""
    code = run(["export-mesh", "--inner-radius", "1e8", "--thickness", "1e4",
                "--refinement", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "annulus.vtk").exists() and (tmp_path / "hedgehog.vtk").exists()


@pytest.mark.parametrize("a", [1e-150, 1e150])
def test_export_mesh_at_extreme_radii(a, tmp_path):
    """The hedgehog normals are taken on the unit sphere, so a radius whose
    square fits float64 but whose cube does not still exports, with every
    hedgehog node between a and a + H = 2a."""
    assert run(["export-mesh", "--inner-radius", str(a), "--thickness", str(a),
                "--out-dir", str(tmp_path)]) == 0
    r = np.linalg.norm(read_vtk_points(tmp_path / "hedgehog.vtk") / a, axis=1)
    assert r.min() >= 1.0 - 1e-12 and r.max() <= 2.0 + 1e-12


def test_read_vtk_points_rejects_other_files(tmp_path):
    bad = tmp_path / "not_a_grid.vtk"
    bad.write_text("hello\n")
    with pytest.raises(ValueError):
        read_vtk_points(bad)


# ---------------------------------------------------------------------------
# verify-forcing
# ---------------------------------------------------------------------------

def test_verify_forcing_stdout_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify-forcing", "--points", "64", "--seed", "11",
                "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "u_printed . l" in text
    assert "F_derived - F_printed" in text

    payload = json.loads(out.read_text())
    assert payload["n_points"] == 64
    assert payload["seed"] == 11
    assert payload["max_u_normal"] > 1.0
    assert payload["max_u_normal_analytic_gap"] <= 1e-10
    assert payload["tangency_after_projection"] <= 1e-12
    assert payload["f_discrepancy"] > 1.0
    assert payload["g_discrepancy"] > 1.0


def test_verify_forcing_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify-forcing", "--points", "32", "--out", str(a)])
    run(["verify-forcing", "--points", "32", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_forcing_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    """A MemoryError while sampling is the one error line that convergence prints."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.mms, "sample_manifold_points", no_memory)
    monkeypatch.setattr(cli.mms, "convergence_study", no_memory)
    assert run(["verify-forcing", "--out", str(tmp_path / "r.json")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert out == "" and not (tmp_path / "r.json").exists()
    assert run(["convergence", "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")]) == 1
    assert capsys.readouterr().err == err


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("conv")
    csv = tmp / "table.csv"
    rep = tmp / "forcing.txt"
    code = run(["convergence", "--k", "1", "--levels", "0:1,1:2",
                "--csv", str(csv), "--forcing-report", str(rep)])
    return code, csv, rep


def test_convergence_exit_code(tiny_run):
    assert tiny_run[0] == 0


def test_convergence_csv_schema(tiny_run):
    _, csv, _ = tiny_run
    lines = csv.read_text().splitlines()
    assert lines[0] == "level,refinement,layers,ncells,ndofs,h_mesh,err_p,err_u,rate_p,rate_u"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "0" and first[2] == "1"
    assert first[3] == "20"
    assert first[8] == "" and first[9] == ""
    second = lines[2].split(",")
    assert second[3] == "160"
    assert second[8] != "" and second[9] != ""
    float(second[8]), float(second[9])


def test_convergence_forcing_report_persisted(tiny_run):
    _, _, rep = tiny_run
    text = rep.read_text()
    assert "g_derived - g_printed" in text
    assert text.endswith("\n")


def test_convergence_rerun_byte_identical(tiny_run, tmp_path):
    _, csv, _ = tiny_run
    csv2 = tmp_path / "table2.csv"
    run(["convergence", "--k", "1", "--levels", "0:1,1:2",
         "--csv", str(csv2), "--forcing-report", str(tmp_path / "f.txt")])
    assert csv2.read_bytes() == csv.read_bytes()


def test_convergence_is_byte_identical_across_processes(tmp_path):
    """Two fresh interpreters with one BLAS thread write the same CSV,
    stats JSON and forcing report, byte for byte, at k=2."""
    written = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        run_dir.mkdir()
        files = [run_dir / "t.csv", run_dir / "s.json", run_dir / "f.txt"]
        argv = ["convergence", "--k", "2", "--levels", "0:1,1:2", "--csv", str(files[0]),
                "--stats-json", str(files[1]), "--forcing-report", str(files[2])]
        probe = f"import sys\nfrom shallowfem import cli\nsys.exit(cli.main({argv!r}))"
        subprocess.run([sys.executable, "-c", probe],
                       check=True, capture_output=True, cwd=Path(cli.__file__).parents[1],
                       env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        written.append([f.read_bytes() for f in files])
    assert written[0] == written[1]


def test_convergence_stats_json(tiny_run, tmp_path):
    """--stats-json adds one solver record per level and changes no result."""
    _, csv, _ = tiny_run
    csv2, stats = tmp_path / "table2.csv", tmp_path / "stats.json"
    code = run(["convergence", "--k", "1", "--levels", "0:1,1:2",
                "--csv", str(csv2), "--forcing-report", str(tmp_path / "f.txt"),
                "--stats-json", str(stats)])
    assert code == 0
    assert csv2.read_bytes() == csv.read_bytes()
    records = json.loads(stats.read_text())
    rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
    assert [r["level"] for r in records] == [1, 2]
    for r, row in zip(records, rows):
        assert set(r) == {"level", "n_global", "n_local_per_cell", "lu_nnz",
                          "n_fronts", "largest_front", "factor_flops",
                          "refinement_steps", "factor_scale_log2", "residual",
                          "ordering", "factor_dtype", "residuals",
                          "separator_tree_depth", "largest_separator"}
        ncells, ndofs = int(row[3]), int(row[4])
        assert r["n_local_per_cell"] == 1 and r["n_global"] == ndofs - ncells
        assert r["lu_nnz"] > 0 and r["residual"] <= 1e-10
        assert r["factor_dtype"] == "float32" and r["residuals"][-1] == r["residual"]


def test_convergence_check_fails_outside_window(tmp_path, capsys):
    """Pre-asymptotic rates on the two coarsest meshes miss the k=1 window."""
    code = run(["convergence", "--k", "1", "--levels", "0:1,1:2", "--check",
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 1
    assert "rate check FAILED" in capsys.readouterr().err


def test_convergence_check_passes_inside_window(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.RATE_WINDOWS, 1, (-10.0, 10.0, -10.0, 10.0))
    code = run(["convergence", "--k", "1", "--levels", "0:1,1:2", "--check",
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 0
    assert "rate check passed" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_parse_levels():
    assert cli._parse_levels("1:2,2:4,3:8") == [(1, 2), (2, 4), (3, 8)]
    assert cli._parse_levels("0:1") == [(0, 1)]
    with pytest.raises(argparse.ArgumentTypeError):
        cli._parse_levels("1-2")


LEVELS_REASONS = {
    "1-2": "level '1-2': need integers refinement:n_layers",
    "a:1": "level 'a:1': need integers refinement:n_layers",
    "1:2:3": "level (1, 2, 3) is not two integers",
    "": "level '': need integers refinement:n_layers",
    "1:0": "level (1, 0): need refinement >= 0 and n_layers >= 1",
    "-1:2": "level (-1, 2): need refinement >= 0 and n_layers >= 1",
}


@pytest.mark.parametrize("spec", list(LEVELS_REASONS))
def test_malformed_levels_is_usage_error(spec, capsys):
    """A bad ``--levels`` is a usage error that gives its reason, not the
    name of the function that parsed it."""
    with pytest.raises(SystemExit) as exc:
        run(["convergence", f"--levels={spec}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --levels: {LEVELS_REASONS[spec]}" in err
    assert "_parse_levels" not in err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        run(["frobnicate"])


def test_k_choices_enforced():
    with pytest.raises(SystemExit):
        run(["convergence", "--k", "3"])


def test_convergence_solver_error_is_one_line(tmp_path, capsys):
    """An unmet tolerance exits 1 with an error line, not a traceback."""
    code = run(["convergence", "--k", "1", "--levels", "0:1", "--tolerance", "1e-30",
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solve residual") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


def test_convergence_degenerate_map_is_one_line(tmp_path, capsys, monkeypatch):
    def degenerate(**kwargs):
        raise geometry.DegenerateMapError("4x3 Jacobian is rank deficient")

    monkeypatch.setattr(cli.mms, "convergence_study", degenerate)
    code = run(["convergence", "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 1
    assert capsys.readouterr().err == "error: 4x3 Jacobian is rank deficient\n"


@pytest.mark.parametrize("flags, message", [
    (["--inner-radius", "1e-200"], "float64 range"),
    (["--inner-radius", "1e200"], "float64 range"),
    (["--thickness", "1e200"], "float64 range"),
    (["--thickness", "1e12"], "4x3 Jacobian is rank deficient at cell 0: s_min/s_max = "),
    (["--mode", "deep", "--thickness", "1e12"],
     "4x3 Jacobian is rank deficient at cell 0: s_min/s_max = 7.435e-13 <= 1e-12 "
     "(|dh| = 1.000e+12, base triangle singular values 1.288e+00 and 7.435e-01)"),
    (["--thickness", "1e-13"],
     "4x3 Jacobian is rank deficient at cell 0: s_min/s_max = 7.765e-14 <= 1e-12 "
     "(|dh| = 1.000e-13, base triangle singular values 1.288e+00 and 7.435e-01)"),
    (["--thickness", "1e-300"], "thickness 1e-300 is too thin for float64 at radius 1.0"),
    (["--mode", "deep", "--thickness", "1e-300"],
     "thickness 1e-300 is too thin for float64 at radius 1.0"),
], ids=["tiny-radius", "huge-radius", "huge-thickness", "thick-1e12", "deep-thick-1e12",
        "thin-1e-13", "tiny-thickness", "deep-tiny-thickness"])
def test_convergence_degenerate_geometry_is_one_line(tmp_path, capsys, flags, message):
    """Extreme but parser-valid sizes exit 1 with one error line: no traceback
    and no RuntimeWarning, which the suite turns into an error.  A column too thick or too thin for the chart's rank
    test is named, in both modes, with its aspect ratio s_min/s_max, its
    |dh| and its base triangle's singular values; a shell whose layer radii
    float64 cannot tell apart is named with its thickness, in both modes."""
    code = run(["convergence", "--levels", "0:1,1:1", *flags,
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "1e5"],
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "1e6"],
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "1e7"],
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "1e9"],
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "6.371e6", "--thickness", "1e4"],
    ["verify-forcing", "--inner-radius", "1e5"],
], ids=["convergence-1e5", "convergence-1e6", "convergence-1e7", "convergence-1e9",
        "convergence-earth", "verify-1e5"])
def test_large_radius_runs(argv, tmp_path):
    """The closed-form tangential velocity stays tangent at a large radius,
    so the manufactured case runs there, the Earth's radius and a 10 km
    shell included: every file is written.  The manufactured rotation rate
    is 1/2 at any radius, so the Coriolis block stays the mass block's size
    and every solve lands far below the 1e-10 contract, at 1e-14."""
    if argv[0] == "convergence":
        files = [tmp_path / "t.csv", tmp_path / "f.txt", tmp_path / "s.json"]
        outputs = ["--csv", files[0], "--forcing-report", files[1], "--stats-json", files[2]]
    else:
        files = [tmp_path / "r.json"]
        outputs = ["--out", files[0]]
    assert run(argv + [str(x) for x in outputs]) == 0
    assert all(x.stat().st_size > 0 for x in files)
    if argv[0] == "convergence":
        residuals = [r["residual"] for r in json.loads(files[2].read_text())]
        assert len(residuals) == 2 and max(residuals) <= 1e-14
    else:
        # |u_exact| is of order a^2 = 1e10 here
        assert json.loads(files[0].read_text())["tangency_after_projection"] <= 1e-12 * 1e10


@pytest.mark.parametrize("argv", [
    ["convergence", "--levels", "0:1,1:1", "--inner-radius", "1e100"],
    ["convergence", "--levels", "0:1,1:1", "--thickness", "1e100"],
    ["verify-forcing", "--inner-radius", "1e100"],
    ["export-mesh", "--thickness", "1e300"],
    ["export-mesh", "--inner-radius", "1e-300"],
    ["export-mesh", "--inner-radius", "1e-160"],
], ids=["convergence-1e100", "convergence-thick-1e100", "verify-1e100",
        "export-thick-1e300", "export-1e-300", "export-1e-160"])
def test_large_sizes_are_one_line(argv, tmp_path, capsys):
    """Sizes of 1e100, an outer radius whose square overflows and a radius
    whose square is below the smallest normal float64 leave the float64
    range: one error line, with no traceback and no RuntimeWarning (the
    suite makes warnings errors), and no file is written.  A solve that
    misses its contract is covered by
    ``test_convergence_solver_error_is_one_line``."""
    outputs = {"convergence": ["--csv", str(tmp_path / "t.csv"),
                               "--forcing-report", str(tmp_path / "f.txt")],
               "verify-forcing": ["--out", str(tmp_path / "r.json")],
               "export-mesh": ["--out-dir", str(tmp_path)]}[argv[0]]
    assert run(argv + outputs) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_convergence_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch):
    """A MemoryError anywhere in the ladder (here: assembly) is one error line."""
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.mms._assembly, "assemble", no_memory)
    code = run(["convergence", "--k", "1", "--levels", "0:1",
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv", [
    ["convergence", "--k", "1", "--levels", "0:1", "--csv", "{missing}/t.csv",
     "--forcing-report", "{tmp}/f.txt"],
    ["verify-forcing", "--points", "5", "--out", "{missing}/r.json"],
    ["verify-forcing", "--points", "5", "--out", "{tmp}/out"],
    ["convergence", "--k", "1", "--levels", "0:1", "--csv", "",
     "--forcing-report", "{tmp}/f.txt"],
    ["verify-forcing", "--points", "5", "--out", ""],
], ids=["convergence-csv", "verify-forcing-out", "verify-forcing-out-directory",
        "convergence-csv-empty", "verify-forcing-out-empty"])
def test_unwritable_output_is_one_line(argv, tmp_path, capsys, monkeypatch):
    """An output path in a directory that does not exist, one that is a
    directory, or an empty one exits 1 with one error line naming it, not
    an OSError traceback, before the command prints anything or writes a
    file."""
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "no" / "such" / "dir"
    (tmp_path / "out").mkdir()
    bad = (missing if any("{missing}" in a for a in argv)
           else "cannot write '':" if "" in argv else tmp_path / "out")
    assert run([a.format(missing=missing, tmp=tmp_path) for a in argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert str(bad) in err
    assert out == ""
    assert sorted(x.name for x in tmp_path.iterdir()) == ["out"]


@pytest.mark.parametrize("flag", ["--csv", "--forcing-report", "--stats-json"])
@pytest.mark.parametrize("where", ["missing", "directory", "empty"])
def test_unwritable_convergence_output_fails_before_the_ladder(
        flag, where, tmp_path, capsys, monkeypatch):
    """An output path in a directory that does not exist, one that is a
    directory, or an empty one is one error line naming it, before any
    level is solved, and no file is created."""
    def no_ladder(*args, **kwargs):
        raise AssertionError("the ladder ran before the output paths were checked")

    monkeypatch.setattr(cli.mms, "convergence_study", no_ladder)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    bad = {"missing": tmp_path / "no" / "such" / "dir" / "t.csv",
           "directory": tmp_path / "out", "empty": ""}[where]
    outputs = {"--csv": tmp_path / "t.csv", "--forcing-report": tmp_path / "f.txt",
               "--stats-json": tmp_path / "s.json", flag: bad}
    argv = ["convergence", "--k", "1", "--levels", "0:1"]
    assert run(argv + [str(a) for item in outputs.items() for a in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cannot write {bad or repr(bad)}:" in err
    assert sorted(x.name for x in tmp_path.iterdir()) == ["out"]
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("alias", ["t/a.csv", "t/./a.csv", "t/../t/a.csv"],
                         ids=["repeat", "dot-alias", "dotdot-alias"])
def test_convergence_output_paths_must_differ(alias, tmp_path, capsys, monkeypatch):
    """Two outputs naming one file, literally or through ``.`` or ``..``,
    are one error line before the ladder, not a run whose last write wins."""
    def no_ladder(*args, **kwargs):
        raise AssertionError("the ladder ran before the output paths were checked")

    monkeypatch.setattr(cli.mms, "convergence_study", no_ladder)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t").mkdir()
    assert run(["convergence", "--k", "1", "--levels", "0:1",
                "--csv", "t/a.csv", "--forcing-report", alias]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "distinct" in err
    assert not any((tmp_path / "t").iterdir())


def test_convergence_single_level_prints_na(tmp_path, capsys):
    """One level has no rate: the summary says n/a and the run succeeds."""
    code = run(["convergence", "--k", "1", "--levels", "0:1",
                "--csv", str(tmp_path / "t.csv"),
                "--forcing-report", str(tmp_path / "f.txt")])
    assert code == 0
    assert "final rates: p n/a, u n/a;" in capsys.readouterr().out
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 2


def test_convergence_check_single_level_is_usage_error(tmp_path, capsys, monkeypatch):
    """--check with one level fails at the parser, before any solve."""
    def study(**kwargs):
        raise AssertionError("the study must not run")

    monkeypatch.setattr(cli.mms, "convergence_study", study)
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--levels", "0:1", "--check",
             "--csv", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "--check needs at least two levels" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


def test_convergence_check_deep_mode_is_usage_error(tmp_path, capsys, monkeypatch):
    """--check with --mode deep fails at the parser, before any solve: the
    rate windows are the shallow ones, which deep errors cannot meet."""
    def study(**kwargs):
        raise AssertionError("the study must not run")

    monkeypatch.setattr(cli.mms, "convergence_study", study)
    with pytest.raises(SystemExit) as exc:
        run(["convergence", "--mode", "deep", "--levels", "1:1,2:2", "--check",
             "--csv", str(tmp_path / "t.csv")])
    assert exc.value.code == 2
    assert "--check needs --mode shallow" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["verify-forcing", "--points", "0"], "--points"),
    (["verify-forcing", "--points", "-3"], "--points"),
    (["export-mesh", "--layers", "0"], "--layers"),
    (["export-mesh", "--refinement", "-1"], "--refinement"),
    (["convergence", "--tolerance", "nan"], "--tolerance"),
    (["convergence", "--tolerance", "0"], "--tolerance"),
    (["convergence", "--inner-radius", "0"], "--inner-radius"),
    (["export-mesh", "--inner-radius", "-2"], "--inner-radius"),
    (["verify-forcing", "--inner-radius", "0"], "--inner-radius"),
    (["verify-forcing", "--inner-radius", "inf"], "--inner-radius"),
    (["export-mesh", "--thickness", "-1"], "--thickness"),
    (["convergence", "--thickness", "-1"], "--thickness"),
    (["verify-forcing", "--seed", "-1"], "--seed"),
    (["convergence", "--seed", "-1"], "--seed"),
])
def test_count_arguments_out_of_range_are_usage_errors(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv + (["--out-dir", str(tmp_path)] if argv[0] == "export-mesh" else []))
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
