"""Tests of the benchmark's own code: statistics, units, inputs, tracing and
reduced-size runs of every workload."""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import query, serve, update
from perfbench.common import CHECKOUT, TIME_UNITS, median_block_p90, metric, percentile, to_unit
from perfbench.inputs import KINDS, RESULT_SIZE, make_inputs, plan_chain, plan_queries
from perfbench.layers import coverage
from perfbench.metrics import DIAGNOSTICS, END_TO_END, PER_LAYER, REACHED_BY, in_units, layer_table
from perfbench.tracing import Tracer, summarize

SMALL = {
    "query": query.Shape(n_records=40, pass_queries=40, setup_reps=1, key_bits=512),
    "serve": serve.Shape(n_records=40, setup_reps=1, key_bits=512, hot_vectors=2, cold_vectors=3, plan_rate=200.0),
    "update": update.Shape(n_records=30, owners=2, setup_reps=1, chain=2, reads=2, key_bits=512, min_chains=2),
}
MODULES = {"query": query, "serve": serve, "update": update}


# ------------------------------------------------------------ statistics
def test_percentile_interpolates_linearly():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([7.0], 90) == 7.0
    assert percentile(list(reversed(values)), 0) == 1.0


def test_median_block_p90_ignores_a_minority_of_slow_blocks():
    calm = [1.0] * 9 + [2.0]
    slow = [5.0] * 10
    assert median_block_p90(calm * 3 + slow + [9.0] * 4, 10) == pytest.approx(1.1)
    assert median_block_p90([1.0, 2.0], 10) == percentile([1.0, 2.0], 90)


@pytest.mark.parametrize("bad", [[], ()])
def test_percentile_of_nothing_is_an_error(bad):
    with pytest.raises(ValueError):
        percentile(bad, 50)


def test_percentile_rejects_out_of_range_rank():
    with pytest.raises(ValueError):
        percentile([1.0, 2.0], 101)


def test_time_units_convert_and_unknown_units_fail():
    assert to_unit(1.5, "s") == 1.5
    assert to_unit(0.0015, "ms") == pytest.approx(1.5)
    assert to_unit(2.5e-6, "us") == pytest.approx(2.5)
    with pytest.raises(ValueError):
        to_unit(1.0, "B")


def test_values_convert_to_their_metric_units():
    converted = in_units(
        {"latency_p90_ms": 0.0015, "itree.search_us": 2e-5, "setup_s": 2.5, "memory_mb": 3.0}
    )
    assert converted["latency_p90_ms"] == pytest.approx(1.5)
    assert converted["itree.search_us"] == pytest.approx(20.0)
    assert converted["setup_s"] == 2.5
    assert converted["memory_mb"] == 3.0


def test_metric_keeps_every_digit():
    assert metric(1.234567890123, "ms") == {"value": 1.234567890123, "unit": "ms"}


# ------------------------------------------------------- BENCHMARK.json
def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == ["query", "serve", "update"]
    assert {e["name"]: e["unit"] for e in bench["end_to_end"]} == END_TO_END
    assert {e["name"]: e["unit"] for e in bench["per_layer"]} == PER_LAYER
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert not set(DIAGNOSTICS) & (set(PER_LAYER) | set(END_TO_END))


def test_layer_table_fills_only_other_workloads_counts():
    values = {name: 1.0 for name in PER_LAYER if REACHED_BY.get(name, "query") == "query"}
    table = layer_table("query", values)
    assert set(table) == set(PER_LAYER)
    assert table["ifmh.incremental_share"] == 0.0
    assert table["serving.queue_delay_p50_ms"] == 0.0
    del values["itree.search_us"]
    with pytest.raises(KeyError):
        layer_table("query", values)


# ---------------------------------------------------------------- inputs
def test_query_plan_is_seeded_and_anchored_on_sorted_scores():
    dataset, template = make_inputs(60, seed=4)
    plan = plan_queries(dataset, template, 30, seed=9)
    again = plan_queries(dataset, template, 30, seed=9)
    assert all(plan.query(i) == again.query(i) for i in range(30))
    functions = template.functions_for(dataset)
    for position in range(30):
        built = plan.query(position)
        assert built.kind == KINDS[position % 3]
        scores = sorted(function.evaluate(built.weights) for function in functions)
        if built.kind == "range":
            low = scores.index(built.low)
            assert scores[low + RESULT_SIZE - 1] == built.high
        if built.kind == "knn":
            assert built.target in scores


def test_update_chain_alternates_and_deletes_present_records():
    dataset, _ = make_inputs(20, seed=1)
    steps = plan_chain(dataset, 8, random.Random(3), first_id=1000)
    present = {record.record_id for record in dataset}
    for position, step in enumerate(steps):
        if position % 2 == 0:
            assert step.delete is None and step.insert.record_id not in present
            present.add(step.insert.record_id)
        else:
            assert step.insert is None and step.delete in present
            present.discard(step.delete)


# ---------------------------------------------------------------- tracing
def test_self_times_of_a_tree_sum_to_its_root():
    spans = [
        ["root", 0.0, 10.0, -1, 1, "window"],
        ["child", 1.0, 4.0, 0, 1, "window"],
        ["grandchild", 2.0, 3.0, 1, 1, "window"],
        ["child", 5.0, 9.0, 0, 1, "window"],
        ["other", 20.0, 21.0, -1, None, "setup"],
    ]
    table = summarize(spans, ["window"])
    assert table["child"] == {"count": 2, "total_s": 7.0, "self_s": 6.0}
    assert table["root"]["self_s"] == 3.0
    assert sum(row["self_s"] for row in table.values()) == 10.0
    assert "other" not in table


def test_coverage_leaves_out_the_benchmarks_own_roots():
    spans = [
        ["bench.query", 0.0, 10.0, -1, 1, "window"],
        ["core.server.execute", 1.0, 4.0, 0, 1, "window"],
        ["core.client.verify", 5.0, 9.0, 0, 1, "window"],
    ]
    # 3 s of the root's 10 s are claimed by no program layer.
    assert coverage(summarize(spans), 10.0) == pytest.approx(0.7)


class _Layer:
    def outer(self):
        time.sleep(0.002)
        return self.inner() + 1

    def inner(self):
        time.sleep(0.001)
        return 1


def test_hooks_record_nested_spans_and_uninstall_restores():
    originals = dict(vars(_Layer))
    tracer = Tracer()
    tracer.install([(_Layer, "outer", "layer.outer"), (_Layer, "inner", "layer.inner")])
    try:
        assert _Layer().outer() == 2
    finally:
        tracer.uninstall()
    assert vars(_Layer)["outer"] is originals["outer"]
    assert vars(_Layer)["inner"] is originals["inner"]
    (outer, _, _, parent, _, _), (inner, _, _, inner_parent, _, _) = tracer.spans
    assert (outer, parent, inner, inner_parent) == ("layer.outer", -1, "layer.inner", 0)
    table = tracer.summary()
    assert table["layer.outer"]["self_s"] < table["layer.outer"]["total_s"]


# ------------------------------------------------- reduced-size workloads
@pytest.mark.parametrize("name", list(MODULES))
def test_reduced_run_emits_every_end_to_end_metric(name):
    outcome = MODULES[name].run(seed=3, seconds=0.3, trace=False, shape=SMALL[name])
    assert outcome.tally.attempted > 0
    assert outcome.tally.failed == 0, outcome.tally.named()
    for metric_name in END_TO_END:
        assert outcome.values[metric_name] > 0, metric_name


DIAGNOSTICS_BY = {
    "query": ["trace.coverage", "core.server.execute_self_us"],
    "serve": ["serving.latency_p99_ms"],
    "update": [
        "trace.coverage",
        "core.artifact.publish_self_ms",
        "core.read_after_swap_p50_ms",
        "core.update_p50_ms",
    ],
}


@pytest.mark.parametrize("name", list(MODULES))
def test_reduced_traced_run_emits_every_per_layer_metric(name):
    outcome = MODULES[name].run(seed=3, seconds=0.3, trace=True, shape=SMALL[name])
    assert outcome.tally.failed == 0, outcome.tally.named()
    outcome.values["host.calib_ms"] = 1.0
    table = layer_table(name, outcome.values)
    assert set(table) == set(PER_LAYER)
    reached = [n for n in PER_LAYER if REACHED_BY.get(n, name) == name]
    times = [n for n in reached if PER_LAYER[n] in TIME_UNITS and n != "trace.overhead_pct"]
    assert [n for n in times if not table[n] > 0] == []
    assert all(table[n] >= 0 for n in reached if n != "trace.overhead_pct")
    assert all(outcome.values[n] > 0 for n in DIAGNOSTICS_BY[name])
    assert outcome.tracer.spans


def test_update_measures_a_prefix_of_one_seeded_sequence():
    shape = SMALL["update"]
    short = update.run(seed=2, seconds=0.1, trace=False, shape=shape)
    longer = update.run(seed=2, seconds=1.5, trace=False, shape=shape)
    assert short.report["chain_runs"] == shape.min_chains < longer.report["chain_runs"]
    assert short.values["artifact_mb"] == longer.values["artifact_mb"]


def test_tampered_reply_is_a_failure_not_a_latency_sample(monkeypatch):
    from repro.attacks.tamper import tamper_signature
    from repro.core.server import QueryExecution, Server

    execute = Server.execute
    tampered = []

    def forging_execute(self, query_, counters=None):
        execution = execute(self, query_, counters)
        if len(tampered) < 5:
            result, vo = tamper_signature(
                execution.result, execution.verification_object, random.Random(0)
            )
            tampered.append(query_)
            return QueryExecution(
                query=query_, result=result, verification_object=vo, counters=execution.counters
            )
        return execution

    monkeypatch.setattr(Server, "execute", forging_execute)
    outcome = query.run(seed=5, seconds=0.1, trace=False, shape=SMALL["query"])
    assert len(tampered) == 5
    assert outcome.tally.failed == 5
    assert all("verification failed" in name for name in outcome.tally.named())
    assert outcome.report["queries_verified"] == outcome.tally.attempted - 5


# ---------------------------------------------------------------- the CLI
def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(CHECKOUT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
