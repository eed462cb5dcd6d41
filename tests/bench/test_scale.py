"""Gates for the thousand-record scale benchmark.

The full run (``python -m repro.bench --scale``) sweeps the batched build
up to n = 2000 and gates the parallel build; these tests exercise the same
code path at CI-friendly scale and check the JSON trajectory report.
"""

import json

import repro.bench.scale as scale
from repro.bench.scale import run_scale, run_scale_smoke, scale_point


def test_scale_point_reports_build_and_counters():
    point = scale_point(n_records=40, seed=0, repeats=1)
    assert point["n"] == 40
    assert point["batched"]["build_seconds"] > 0
    assert point["batched"]["physical_hashes"] < point["logical_hashes"]
    stats = point["engine_stats"]
    assert stats["leaf_pool_entries"] == 40 + 2
    assert stats["leaf_pool_misses"] == stats["leaf_pool_entries"]


_TINY_PARALLEL = {
    # Reduced parallel points (the full run builds n = 1000 and a 10k-leaf
    # forest) with floors at zero: the gating logic is exercised, the
    # identity assertions inside the points still run at full strength.
    "parallel_workers": 2,
    "parallel_ads_n": 30,
    "forest_leaf_count": 34,
    "forest_tree_cap": 12,
    "parallel_per_worker": 0.0,
    "parallel_cap": 0.0,
    "parallel_single_core": 0.0,
}


def test_run_scale_writes_trajectory(tmp_path):
    output = tmp_path / "BENCH_scale.json"
    results, failures = run_scale(
        n_values=(20, 40, 60),
        seed=0,
        repeats=1,
        output_path=str(output),
        **_TINY_PARALLEL,
    )
    assert failures == []
    result, parallel_result = results
    assert [row["n"] for row in result.rows] == [20, 40, 60]
    assert [row["stage"] for row in parallel_result.rows] == ["full-ads", "forest-10k"]
    payload = json.loads(output.read_text())
    assert [point["n"] for point in payload["trajectory"]] == [20, 40, 60]
    parallel = payload["parallel"]
    assert parallel["workers"] == 2
    assert parallel["full_ads"]["n"] == 30
    assert parallel["forest_stage"]["leaf_count"] == 34


def test_run_scale_reports_parallel_regression_below_floor(tmp_path):
    knobs = dict(_TINY_PARALLEL)
    knobs["parallel_per_worker"] = 10_000.0
    knobs["parallel_cap"] = 10_000.0
    knobs["parallel_single_core"] = 10_000.0
    _results, failures = run_scale(
        n_values=(20,),
        seed=0,
        repeats=1,
        output_path=str(tmp_path / "out.json"),
        **knobs,
    )
    assert len(failures) == 2  # both parallel stages
    assert all("affinity-scaled floor" in failure for failure in failures)


def test_run_scale_smoke_uses_reduced_configuration(tmp_path, monkeypatch):
    monkeypatch.setattr(scale, "SMOKE_SCALE_N_VALUES", (15, 30))
    # Timing floors are not under test here (and fork is far slower inside
    # the big-heap pytest process than in the fresh-process CI gate).
    monkeypatch.setattr(scale, "SMOKE_PARALLEL_PER_WORKER", 0.0)
    monkeypatch.setattr(scale, "SMOKE_PARALLEL_FLOOR_CAP", 0.0)
    monkeypatch.setattr(scale, "SMOKE_PARALLEL_SINGLE_CORE_FLOOR", 0.0)
    output = tmp_path / "BENCH_scale_smoke.json"
    results, failures = run_scale_smoke(seed=0, output_path=str(output))
    assert failures == []
    payload = json.loads(output.read_text())
    assert [point["n"] for point in payload["trajectory"]] == [15, 30]
    assert len(results) == 2
    assert payload["parallel"]["workers"] == scale.SMOKE_PARALLEL_WORKERS