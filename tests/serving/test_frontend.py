"""End-to-end front-end behaviour: batching, swap, crash recovery, pooling."""

import sys
import threading

import pytest

from repro.core.client import Client
from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import TopKQuery
from repro.serving.dispatcher import ServingFrontEnd, _WorkerSlot, wait_all
from repro.serving.traffic import TrafficConfig, generate_trace, run_trace

DRAIN_TIMEOUT = 60.0


def _trace(setup, **overrides):
    defaults = {
        "rate": 500.0,
        "count": 60,
        "hot_fraction": 0.8,
        "hot_vectors": 2,
        "cold_vectors": 6,
        "seed": 31,
    }
    defaults.update(overrides)
    return generate_trace(setup["dataset"], setup["template"], TrafficConfig(**defaults))


def test_constructor_validation(serving_setup):
    with pytest.raises(ValueError, match="worker"):
        ServingFrontEnd(serving_setup["epoch0"], workers=0)
    with pytest.raises(ValueError, match="max_batch"):
        ServingFrontEnd(serving_setup["epoch0"], workers=1, max_batch=0)


def test_start_fails_cleanly_on_corrupt_artifact(serving_setup, tmp_path):
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(serving_setup["epoch0"].read_bytes()[:64])
    with pytest.raises(ConstructionError, match="failed to start"):
        ServingFrontEnd(corrupt, workers=2).start()


def test_submit_requires_running_frontend(serving_setup):
    frontend = ServingFrontEnd(serving_setup["epoch0"], workers=1)
    with pytest.raises(RuntimeError, match="not running"):
        frontend.submit(TopKQuery(weights=(0.5,), k=2))


class _RequestLog:
    """Stands in for a worker's request queue: records what was sent."""

    def __init__(self):
        self.batches = []

    def put(self, message):
        self.batches.append(message)


def _offline_frontend(workers, max_batch):
    """A front-end with ready workers that are request logs, not processes."""
    frontend = ServingFrontEnd("unused.npz", workers=workers, max_batch=max_batch)
    frontend._running = True
    for worker_id in range(workers):
        frontend._slots[worker_id] = _WorkerSlot(
            worker_id=worker_id, request_queue=_RequestLog(), ready=True
        )
    return frontend


def test_dispatch_rule_is_load_adaptive():
    """Idle workers take a query at submit; batches form only while every
    worker is busy; a full group goes at once; a reply sends the oldest
    group to the worker it freed.  No timer is involved anywhere."""
    frontend = _offline_frontend(workers=2, max_batch=3)
    logs = [frontend._slots[worker_id].request_queue.batches for worker_id in (0, 1)]

    def query(weight):
        return TopKQuery(weights=(weight,), k=2)

    def weights(message):
        return [q.weights[0] for q in message[2]]

    first = frontend.submit(query(0.1))
    second = frontend.submit(query(0.2))
    assert first.dispatched_at is not None and second.dispatched_at is not None
    assert [weights(m) for m in logs[0]] == [[0.1]]
    assert [weights(m) for m in logs[1]] == [[0.2]]

    # Both workers are busy: groups wait, the older 0.3 group ahead of 0.4.
    waiting = [frontend.submit(query(w)) for w in (0.3, 0.4, 0.3)]
    assert all(ticket.dispatched_at is None for ticket in waiting)
    # The 0.3 group reaches max_batch and goes to the least-loaded worker.
    full = frontend.submit(query(0.3))
    assert full.dispatched_at is not None
    assert [weights(m) for m in logs[0]] == [[0.1], [0.3, 0.3, 0.3]]

    # Worker 1's reply frees it; the oldest pending group (0.4) follows.
    batch_id = logs[1][0][1]
    with frontend._lock:
        frontend._on_message_locked(("batch", 1, batch_id, (None,), 0.0))
    assert second.done and waiting[1].dispatched_at is not None
    assert [weights(m) for m in logs[1]] == [[0.2], [0.4]]
    assert frontend._pending == {}


def test_idle_frontend_dispatches_at_submit(serving_setup):
    """No linger: on an idle front-end the query is handed to a worker
    before ``submit`` returns."""
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=1) as frontend:
        ticket = frontend.submit(TopKQuery(weights=(0.5,), k=2))
        assert ticket.dispatched_at is not None
        assert ticket.dispatched_at >= ticket.enqueued_at
        assert ticket.wait(DRAIN_TIMEOUT) and ticket.error is None
    reply = ticket.reply
    assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_two_worker_frontend_serves_verified_answers(serving_setup):
    """Every ticket resolves with a client-verifiable reply, load is spread
    across workers, and same-weight queries actually share batches."""
    trace = _trace(serving_setup)
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        tickets = run_trace(frontend, trace, paced=False)
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats()
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    for ticket in tickets:
        assert ticket.reply.epoch == 0
        report = client.verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        )
        assert report.is_valid
        assert ticket.latency is not None and ticket.latency >= 0.0
    total_batches = sum(stat["batches"] for stat in stats.values())
    total_served = sum(stat["served"] for stat in stats.values())
    assert total_served == len(tickets)
    assert total_batches < len(tickets), "same-weight queries must batch"
    assert all(stat["served"] > 0 for stat in stats.values()), "both workers serve"


def test_mid_stream_swap_drops_nothing_and_moves_epochs(serving_setup):
    trace = _trace(serving_setup, count=80, seed=32)
    clients = {
        0: Client.from_artifact(serving_setup["epoch0"]),
        1: Client.from_artifact(serving_setup["epoch1"]),
    }
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        outcome = {}

        def swap():
            outcome["broadcast"] = frontend.broadcast_swap(
                serving_setup["epoch1"], base=serving_setup["epoch0"]
            )

        tickets = run_trace(frontend, trace, paced=False, actions={40: swap})
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        assert frontend.epochs() == {0: 1, 1: 1}
    broadcast = outcome["broadcast"]
    assert broadcast.complete
    assert broadcast.new_epoch == 1
    assert broadcast.swapped == (0, 1)
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    epochs_seen = set()
    for ticket in tickets:
        epoch = ticket.reply.epoch
        epochs_seen.add(epoch)
        assert clients[epoch].verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        ).is_valid
    assert epochs_seen == {0, 1}, "swap must land mid-load"


def test_concurrent_submitters_lose_no_query(serving_setup):
    """Submit threads and the collector both dispatch under the front-end's
    lock: with more workers than cores and a short switch interval, every
    query is served exactly once and nothing stays pending."""
    trace = _trace(serving_setup, count=90, seed=34)
    queries = [arrival.query for arrival in trace.arrivals]
    tickets = [None] * len(queries)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServingFrontEnd(serving_setup["epoch0"], workers=4, max_batch=4) as frontend:

            def submit_share(offset):
                for position in range(offset, len(queries), 3):
                    tickets[position] = frontend.submit(queries[position])

            threads = [threading.Thread(target=submit_share, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(DRAIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
            # No flush: the dispatch rule alone must leave nothing pending.
            unresolved = wait_all(tickets, DRAIN_TIMEOUT, frontend.clock)
            stats = frontend.worker_stats()
    finally:
        sys.setswitchinterval(previous)
    assert unresolved == []
    assert all(ticket.error is None for ticket in tickets)
    assert sum(stat["served"] for stat in stats.values()) == len(queries)
    assert all(stat["outstanding"] == 0 for stat in stats.values())
    client = Client.from_artifact(serving_setup["epoch0"])
    for ticket in tickets:
        reply = ticket.reply
        assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_worker_crash_requeues_and_respawns(serving_setup):
    trace = _trace(serving_setup, count=80, seed=33)
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        tickets = run_trace(
            frontend, trace, paced=False, actions={20: lambda: frontend.inject_crash(0)}
        )
        frontend.drain(tickets, timeout=DRAIN_TIMEOUT)
        stats = frontend.worker_stats()
        requeued = frontend.requeued
        # The respawned worker serves again when dispatched to directly
        # (it may still be cold-starting right after the drain).
        assert frontend.wait_ready(0, timeout=20.0)
        reply = frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
    assert stats[0]["respawns"] == 1
    assert requeued > 0, "the dead worker owed queries and they were requeued"
    assert all(ticket.done and ticket.error is None for ticket in tickets)
    for ticket in tickets:
        assert client.verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        ).is_valid
    assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_execute_on_rejects_unknown_and_dead_workers(serving_setup):
    with ServingFrontEnd(serving_setup["epoch0"], workers=1, auto_respawn=False) as frontend:
        with pytest.raises(KeyError, match="no worker"):
            frontend.execute_on(7, TopKQuery(weights=(0.5,), k=2))
        frontend.inject_crash(0)
        deadline = frontend.clock.now() + 20.0
        while frontend.worker_stats()[0]["ready"] and frontend.clock.now() < deadline:
            frontend.clock.sleep(0.01)
        with pytest.raises(QueryProcessingError, match="not serving"):
            frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
        frontend.respawn(0)
        assert frontend.wait_ready(0, timeout=20.0)
        reply = frontend.execute_on(0, TopKQuery(weights=(0.5,), k=2))
        assert reply.epoch == 0


def test_query_waiting_for_a_dead_worker_goes_when_it_reports_ready(serving_setup):
    """A query submitted while the only worker is down is dispatched by the
    respawned worker's ready report -- no flush and no timer needed."""
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=1, auto_respawn=False) as frontend:
        frontend.inject_crash(0)
        deadline = frontend.clock.now() + 20.0
        while frontend.worker_stats()[0]["ready"] and frontend.clock.now() < deadline:
            frontend.clock.sleep(0.01)
        assert not frontend.worker_stats()[0]["ready"]
        ticket = frontend.submit(TopKQuery(weights=(0.5,), k=2))
        assert ticket.dispatched_at is None
        frontend.respawn(0)
        assert ticket.wait(DRAIN_TIMEOUT), "the ready report must dispatch it"
    assert ticket.error is None
    reply = ticket.reply
    assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_wrong_length_query_fails_its_ticket_not_the_worker(serving_setup):
    """A weight vector that does not fit the template is refused with an
    error naming the weight count; the worker survives and keeps serving."""
    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        poison = frontend.submit(TopKQuery(weights=(0.5, 0.5), k=2))
        assert poison.wait(DRAIN_TIMEOUT), "a refused query must still resolve"
        assert poison.error is not None and "2 weights" in poison.error
        assert poison.reply is None
        valid = frontend.submit(TopKQuery(weights=(0.5,), k=2))
        assert valid.wait(DRAIN_TIMEOUT) and valid.error is None
        stats = frontend.worker_stats()
        requeued = frontend.requeued
    assert requeued == 0
    assert all(stat["respawns"] == 0 for stat in stats.values())
    reply = valid.reply
    assert client.verify(reply.query, reply.result, reply.verification_object).is_valid


def test_replica_pool_mode_with_resilient_client(serving_setup):
    """WorkerProxy adapts worker processes to the resilience layer: pooled,
    verified execution with failover works over the process boundary."""
    from repro.resilience.pool import ResilientClient

    client = Client.from_artifact(serving_setup["epoch0"])
    with ServingFrontEnd(serving_setup["epoch0"], workers=2) as frontend:
        pool = frontend.replica_pool()
        assert len(pool) == 2
        assert [handle.server.epoch for handle in pool.handles] == [0, 0]
        resilient = ResilientClient(pool, client)
        for _ in range(4):
            outcome = resilient.execute(TopKQuery(weights=(0.5,), k=2))
            assert outcome.accepted
            assert outcome.report.is_valid
