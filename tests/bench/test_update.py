"""Gates for the incremental-update (changed-path vs rebuild) benchmark.

The full acceptance run (``python -m repro.bench --update``) demands
single-record inserts *and* deletes >= 10x faster than a full rebuild at
n = 1000; these tests exercise the same code path at CI-friendly scale --
best-of-``repeats`` with ``gc.collect()`` per the repo's timing
convention -- and check the JSON trajectory report and the failure modes.
"""

import json

from repro.bench.update import run_update, run_update_smoke, update_point


def test_update_point_measures_and_guards():
    point = update_point(n_records=30, seed=0, repeats=2)
    assert point["n"] == 30
    assert point["build_seconds"] > 0
    assert point["insert_seconds"] > 0 and point["delete_seconds"] > 0
    assert point["insert_speedup"] == point["build_seconds"] / point["insert_seconds"]
    assert point["delete_speedup"] == point["build_seconds"] / point["delete_seconds"]
    # repeats inserts and repeats deletes, one epoch each
    assert point["epoch"] == 4
    # each update is also published as a delta against the epoch-0 base
    assert point["insert_publish_seconds"] > 0 and point["delete_publish_seconds"] > 0
    assert point["insert_delta_bytes"] > 0 and point["delete_delta_bytes"] > 0
    assert point["peak_rss_mb_after_publishes"] >= point["peak_rss_mb_before_publishes"] > 0
    assert point["strategies"] == ["incremental"]
    assert point["subdomains"] > 30


def test_run_update_writes_trajectory(tmp_path):
    output = tmp_path / "BENCH_update.json"
    results, failures = run_update(
        n_values=(20, 40),
        seed=0,
        repeats=1,
        speedup_floor=0.0,
        output_path=str(output),
    )
    assert failures == []
    (result,) = results
    assert [row["n"] for row in result.rows] == [20, 40]
    payload = json.loads(output.read_text())
    assert payload["benchmark"] == "ifmh-incremental-update"
    assert payload["headline_n"] == 40
    assert (
        payload["headline_insert_speedup"]
        == payload["trajectory"][-1]["insert_speedup"]
    )
    assert (
        payload["headline_delete_speedup"]
        == payload["trajectory"][-1]["delete_speedup"]
    )


def test_run_update_reports_regression_below_floor(tmp_path):
    _results, failures = run_update(
        n_values=(15,),
        seed=0,
        repeats=1,
        speedup_floor=10_000.0,
        output_path=str(tmp_path / "out.json"),
    )
    assert len(failures) == 2  # both the insert and the delete miss the bar
    assert all("floor" in failure for failure in failures)


def test_run_update_smoke_writes_its_own_report(tmp_path, monkeypatch):
    import repro.bench.update as update

    monkeypatch.setattr(update, "SMOKE_UPDATE_N_VALUES", (24,))
    monkeypatch.setattr(update, "SMOKE_UPDATE_SPEEDUP_FLOOR", 0.0)
    output = tmp_path / "BENCH_update_smoke.json"
    results, failures = run_update_smoke(seed=0, output_path=str(output))
    assert failures == []
    payload = json.loads(output.read_text())
    assert [point["n"] for point in payload["trajectory"]] == [24]
    assert len(results) == 1
