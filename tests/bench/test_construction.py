"""Gates for the construction benchmark (batched engine vs naive reference).

The full acceptance run (``python -m repro.bench --construction``) sweeps
up to n = 200 and demands a >= 5x physical-hash reduction; these tests
exercise the same code path at CI-friendly scale and check the JSON
trajectory report.
"""

import json

import pytest

from repro.bench.fastpath import (
    CONSTRUCTION_REDUCTION_FLOOR,
    construction_comparison,
    run_construction,
)


def test_construction_comparison_rows_and_invariants():
    result = construction_comparison(n_records=40, seed=0)
    rows = {row["engine"]: row for row in result.rows}
    assert rows["naive"]["subdomains"] == rows["batched"]["subdomains"]
    assert rows["naive"]["logical_hashes"] == rows["batched"]["logical_hashes"]
    assert rows["naive"]["physical_hashes"] == rows["naive"]["logical_hashes"]
    assert rows["naive"]["physical_reduction"] == 1.0
    assert rows["batched"]["physical_hashes"] < rows["batched"]["logical_hashes"]
    assert rows["batched"]["physical_reduction"] >= CONSTRUCTION_REDUCTION_FLOOR
    stats = result.parameters["engine_stats"]
    assert stats["leaf_pool_entries"] == 40 + 2  # records + the two tokens
    assert stats["leaf_pool_misses"] == stats["leaf_pool_entries"]


def test_run_construction_writes_trajectory(tmp_path):
    output = tmp_path / "BENCH_construction.json"
    results, failures = run_construction(n_values=(20, 40), seed=0, output_path=str(output))
    assert len(results) == 2
    assert failures == []
    payload = json.loads(output.read_text())
    assert payload["headline_n"] == 40
    assert payload["headline_physical_reduction"] >= CONSTRUCTION_REDUCTION_FLOOR
    assert [point["n"] for point in payload["trajectory"]] == [20, 40]
    for point in payload["trajectory"]:
        assert point["naive"]["logical_hashes"] == point["batched"]["logical_hashes"]
        assert point["batched"]["physical_hashes"] < point["naive"]["physical_hashes"]


def test_run_construction_reports_regression_below_floor(monkeypatch, tmp_path):
    import repro.bench.fastpath as fastpath

    monkeypatch.setattr(fastpath, "CONSTRUCTION_REDUCTION_FLOOR", 10_000.0)
    _results, failures = run_construction(
        n_values=(20,), seed=0, output_path=str(tmp_path / "out.json")
    )
    assert len(failures) == 1
    assert "below" in failures[0] or "floor" in failures[0]


@pytest.mark.fastpath
def test_construction_gate_at_n200():
    """The acceptance benchmark: >= 5x fewer physical SHA-256 calls at n=200.

    ``repeats=1``: the gate is on the (deterministic) physical-hash
    reduction, so repeating the builds would only slow the suite down.
    """
    result = construction_comparison(n_records=200, seed=0, repeats=1)
    rows = {row["engine"]: row for row in result.rows}
    assert rows["batched"]["physical_reduction"] >= 5.0, (
        f"the batched engine only cut physical hashing "
        f"{rows['batched']['physical_reduction']:.1f}x at n=200"
    )