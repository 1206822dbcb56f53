"""The deep-mode path through the benchmark's traced harness.

``perfbench/test_smoke.py`` runs only a shallow ladder; this runs a tiny
deep one, traced, in-process, so nothing is written under ``perfbench/out``.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_deep_ladder_matches_untraced(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # also restores what load_package adds
    import run

    run.load_package()
    wl = run.Workload("tiny-deep", 1, ((0, 1), (1, 2)), "deep", "smoke")
    res = run.run(wl, seed=3, seconds=0, trace=1)
    assert res["correct"], res["detail"]["operations"]
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert res["detail"]["row_mismatches"] == []
    assert all(row["probe_factorizations_match"] for row in res["detail"]["rows"])
    assert res["metrics"]["trace.row_mismatches"]["value"] == 0
