"""Gates for the cold-start (build vs artifact-load) benchmark.

The full acceptance run (``python -m repro.bench --coldstart``) sweeps
n up to 1000 and demands loading >= 10x faster than rebuilding; these
tests exercise the same code path at CI-friendly scale and check the JSON
trajectory report.
"""

import gc
import json

from repro.bench.coldstart import coldstart_point, run_coldstart, run_coldstart_smoke
from repro.core.server import Server


def test_coldstart_point_measures_and_guards(tmp_path):
    artifact = tmp_path / "point.npz"
    point = coldstart_point(
        n_records=30, seed=0, repeats=1, artifact_path=str(artifact)
    )
    assert point["n"] == 30
    assert point["build_seconds"] > 0 and point["load_seconds"] > 0
    assert point["speedup"] == point["build_seconds"] / point["load_seconds"]
    assert point["artifact_bytes"] == artifact.stat().st_size
    assert point["subdomains"] > 30
    assert 0 < point["query_p50_ms"] <= point["query_p90_ms"]
    assert isinstance(point["query_rss_growth_mb"], float)


def test_coldstart_load_is_timed_with_the_owner_heap_frozen(monkeypatch):
    """The owner's objects are frozen while loads are timed, and thawed after."""
    frozen_at_load = []
    load = Server.from_artifact

    def recording_load(path):
        frozen_at_load.append(gc.get_freeze_count())
        return load(path)

    monkeypatch.setattr(Server, "from_artifact", recording_load)
    coldstart_point(n_records=12, seed=2, repeats=2)
    assert len(frozen_at_load) == 2 and min(frozen_at_load) > 0
    assert gc.get_freeze_count() == 0


def test_coldstart_point_cleans_up_its_temp_artifact():
    import glob
    import tempfile

    before = set(glob.glob(tempfile.gettempdir() + "/coldstart-*.npz"))
    coldstart_point(n_records=12, seed=1, repeats=1)
    after = set(glob.glob(tempfile.gettempdir() + "/coldstart-*.npz"))
    assert after == before


def test_run_coldstart_writes_trajectory(tmp_path):
    output = tmp_path / "BENCH_coldstart.json"
    results, failures = run_coldstart(
        n_values=(15, 30),
        seed=0,
        repeats=1,
        speedup_floor=0.0,
        output_path=str(output),
    )
    assert failures == []
    (result,) = results
    assert [row["n"] for row in result.rows] == [15, 30]
    payload = json.loads(output.read_text())
    assert payload["benchmark"] == "ads-artifact-coldstart"
    assert payload["headline_n"] == 30
    assert payload["headline_speedup"] == payload["trajectory"][-1]["speedup"]
    assert payload["queries"] == 200
    for point in payload["trajectory"]:
        assert {"query_p50_ms", "query_p90_ms", "query_rss_growth_mb"} <= set(point)


def test_run_coldstart_reports_regression_below_floor(tmp_path):
    _results, failures = run_coldstart(
        n_values=(15,),
        seed=0,
        repeats=1,
        speedup_floor=10_000.0,
        output_path=str(tmp_path / "out.json"),
    )
    assert len(failures) == 1
    assert "floor" in failures[0]


def test_run_coldstart_smoke_writes_its_own_report(tmp_path, monkeypatch):
    import repro.bench.coldstart as coldstart

    monkeypatch.setattr(coldstart, "SMOKE_COLDSTART_N_VALUES", (12, 24))
    monkeypatch.setattr(coldstart, "SMOKE_COLDSTART_SPEEDUP_FLOOR", 0.0)
    output = tmp_path / "BENCH_coldstart_smoke.json"
    results, failures = run_coldstart_smoke(seed=0, output_path=str(output))
    assert failures == []
    payload = json.loads(output.read_text())
    assert [point["n"] for point in payload["trajectory"]] == [12, 24]
    assert len(results) == 1
