"""Tests for batched query execution, counter isolation and the score cache."""

import random
import threading

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.server import Server
from repro.metrics.counters import Counters
from repro.workloads.generator import (
    WorkloadConfig,
    make_dataset,
    make_template,
    make_weight_vector,
)


@pytest.fixture()
def system():
    config = WorkloadConfig(n_records=24, dimension=1, seed=9)
    dataset = make_dataset(config)
    template = make_template(config)
    return OutsourcedSystem.setup(
        dataset, template, config=SystemConfig(scheme="one-signature", signature_algorithm="hmac")
    )


@pytest.fixture()
def mixed_queries(system):
    rng = random.Random(4)
    template = system.owner.template
    queries = []
    for _ in range(6):
        weights = make_weight_vector(template, rng)
        queries.append(TopKQuery(weights=weights, k=3))
        queries.append(RangeQuery(weights=weights, low=1.0, high=6.0))
        queries.append(KNNQuery(weights=weights, k=2, target=4.0))
    return queries


def test_batch_matches_single_execution(system, mixed_queries):
    single_server = Server(system.owner.outsource())
    batch_server = Server(system.owner.outsource())
    singles = [single_server.execute(q) for q in mixed_queries]
    batched = batch_server.execute_batch(mixed_queries)
    assert len(batched) == len(mixed_queries)
    for alone, together in zip(singles, batched):
        assert alone.result.records == together.result.records


def test_batch_results_verify(system, mixed_queries):
    executions = system.server.execute_batch(mixed_queries)
    reports = system.client.verify_batch(executions)
    assert all(report.is_valid for report in reports)


def test_batch_per_query_counters_match_solo_execution(system, mixed_queries):
    """Counter isolation: batch amortization must not change per-query costs."""
    single_server = Server(system.owner.outsource())
    batch_server = Server(system.owner.outsource())
    singles = [single_server.execute(q) for q in mixed_queries]
    batched = batch_server.execute_batch(mixed_queries)
    for alone, together in zip(singles, batched):
        assert alone.counters.snapshot() == together.counters.snapshot()


def test_batch_cumulative_counters_are_sum_of_per_query(system, mixed_queries):
    server = Server(system.owner.outsource())
    executions = server.execute_batch(mixed_queries)
    expected = Counters()
    for execution in executions:
        expected.merge(execution.counters)
    assert server.counters.snapshot() == expected.snapshot()


def test_batch_preserves_query_order(system, mixed_queries):
    executions = system.server.execute_batch(mixed_queries)
    assert [e.query for e in executions] == mixed_queries


def test_score_cache_hits_on_repeated_weights(system):
    server = Server(system.owner.outsource())
    weights = (0.37,)
    queries = [TopKQuery(weights=weights, k=2), TopKQuery(weights=weights, k=4)]
    server.execute(queries[0])
    assert server.score_cache_misses == 1
    server.execute(queries[1])
    assert server.score_cache_hits == 1


def test_score_cache_is_bounded(system):
    server = Server(system.owner.outsource(), score_cache_size=4)
    rng = random.Random(1)
    template = system.owner.template
    for _ in range(12):
        server.execute(TopKQuery(weights=make_weight_vector(template, rng), k=2))
    assert len(server._score_cache) <= 4


def test_cached_scores_do_not_change_results(system):
    server = Server(system.owner.outsource())
    weights = (0.61,)
    query = RangeQuery(weights=weights, low=0.0, high=9.0)
    first = server.execute(query)
    second = server.execute(query)  # served from the score cache
    assert first.result.records == second.result.records
    report = system.client.verify(query, second.result, second.verification_object)
    assert report.is_valid


def test_concurrent_execution_keeps_cumulative_counters_consistent(system):
    """Cumulative counters are merged under a lock; totals must add up."""
    server = Server(system.owner.outsource())
    rng = random.Random(2)
    template = system.owner.template
    per_thread_queries = [
        [TopKQuery(weights=make_weight_vector(template, rng), k=3) for _ in range(8)]
        for _ in range(4)
    ]
    results: list = []
    lock = threading.Lock()

    def worker(queries):
        local = [server.execute(q) for q in queries]
        with lock:
            results.extend(local)

    threads = [threading.Thread(target=worker, args=(qs,)) for qs in per_thread_queries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    expected = Counters()
    for execution in results:
        expected.merge(execution.counters)
    assert server.counters.snapshot() == expected.snapshot()


def test_batch_works_for_signature_mesh(system):
    config = WorkloadConfig(n_records=10, dimension=1, seed=9)
    dataset = make_dataset(config)
    template = make_template(config)
    mesh_system = OutsourcedSystem.setup(
        dataset, template, config=SystemConfig(scheme="signature-mesh", signature_algorithm="hmac")
    )
    rng = random.Random(3)
    queries = [
        TopKQuery(weights=make_weight_vector(template, rng), k=2) for _ in range(4)
    ]
    executions = mesh_system.server.execute_batch(queries)
    reports = mesh_system.client.verify_batch(executions)
    assert all(report.is_valid for report in reports)


def test_protocol_batch_roundtrip(system, mixed_queries):
    pairs = system.query_and_verify_batch(mixed_queries)
    assert len(pairs) == len(mixed_queries)
    for execution, report in pairs:
        assert report.is_valid
        assert execution.result is not None
