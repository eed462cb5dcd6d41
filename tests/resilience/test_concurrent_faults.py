"""Counter consistency under concurrent fault-injected execution.

``Server.execute`` / ``execute_batch`` are documented thread-safe, and the
:class:`FaultInjector` wrapper must preserve that: injected crashes abort
*before* the wrapped server runs (so they never touch the cumulative
counters), tampering rewrites outputs only (the honest execution underneath
is still fully counted), and every query keeps its own isolated per-query
counter regardless of what runs next to it.
"""

import threading

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import QueryProcessingError
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import TopKQuery
from repro.core.server import Server
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.policy import VirtualClock

THREADS = 4
QUERIES_PER_THREAD = 12


@pytest.fixture()
def system(univariate_dataset, univariate_template):
    return OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )


def _thread_queries(worker: int) -> list:
    return [
        TopKQuery(weights=(0.15 + 0.05 * ((worker * QUERIES_PER_THREAD + i) % 14),), k=2 + (i % 3))
        for i in range(QUERIES_PER_THREAD)
    ]


def test_concurrent_execute_keeps_cumulative_counters_consistent(system):
    clock = VirtualClock()
    injector = FaultInjector(
        system.server,
        (FaultSpec(kind="crash", rate=0.25), FaultSpec(kind="tamper", rate=0.25)),
        seed=17,
        clock=clock,
    )
    results: list = [None] * THREADS
    baseline = system.server.counters.copy()

    def worker(index: int) -> None:
        completed = []
        crashes = 0
        for query in _thread_queries(index):
            try:
                completed.append(injector.execute(query))
            except QueryProcessingError:
                crashes += 1
        results[index] = (completed, crashes)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    completed = [execution for executions, _ in results for execution in executions]
    crashes = sum(count for _, count in results)
    assert crashes > 0, "the crash fault must have fired for the test to mean anything"
    assert completed, "some executions must have completed"

    # Cumulative counters equal the merge of every completed execution's
    # isolated per-query counter: crashes contributed nothing (they abort
    # before the wrapped server runs), tampering changed outputs only.
    expected = baseline.copy()
    for execution in completed:
        expected.merge(execution.counters)
    assert system.server.counters.snapshot() == expected.snapshot()


def test_concurrent_per_query_counters_match_a_lone_execution(system):
    """Per-query counters are bit-identical to the same query run alone on a
    fresh server, no matter how many tampering threads run next to it."""
    clock = VirtualClock()
    injector = FaultInjector(
        system.server, (FaultSpec(kind="tamper", rate=0.5),), seed=23, clock=clock
    )
    reference = Server(system.owner.outsource())
    results: list = [None] * THREADS

    def worker(index: int) -> None:
        results[index] = [injector.execute(query) for query in _thread_queries(index)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for index in range(THREADS):
        for query, execution in zip(_thread_queries(index), results[index]):
            lone = reference.execute(query)
            assert execution.counters.snapshot() == lone.counters.snapshot(), (
                f"per-query counters of {query} leaked across threads"
            )


def test_concurrent_execute_batch_counters(system):
    injector = FaultInjector(
        system.server, (FaultSpec(kind="tamper", rate=0.3),), seed=29
    )
    baseline = system.server.counters.copy()
    results: list = [None] * THREADS

    def worker(index: int) -> None:
        results[index] = injector.execute_batch(_thread_queries(index))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    expected = baseline.copy()
    for batch in results:
        assert len(batch) == QUERIES_PER_THREAD
        for execution in batch:
            expected.merge(execution.counters)
    assert system.server.counters.snapshot() == expected.snapshot()
