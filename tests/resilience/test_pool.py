"""ReplicaPool selection/quarantine and the ResilientClient failover loop."""

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError, InvalidQueryError
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import TopKQuery
from repro.core.server import Server
from repro.resilience.faults import FaultInjector, FaultSpec
from repro.resilience.policy import RetryPolicy, VirtualClock
from repro.resilience.pool import (
    ReplicaPool,
    ResilientClient,
    pool_from_artifact,
    pool_from_artifacts,
)


@pytest.fixture()
def system(univariate_dataset, univariate_template):
    return OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )


QUERY = TopKQuery(weights=(0.55,), k=3)


# -------------------------------------------------------------------- pool
def test_pool_validation(system):
    with pytest.raises(ValueError, match="at least one replica"):
        ReplicaPool([])
    with pytest.raises(ValueError, match="quarantine_threshold"):
        ReplicaPool([system.server], quarantine_threshold=0)
    with pytest.raises(ValueError, match="quarantine_period"):
        ReplicaPool([system.server], quarantine_period=0.0)


def test_round_robin_selection(system):
    pool = ReplicaPool([system.server] * 3)
    order = [pool.select().replica_id for _ in range(6)]
    assert order == [0, 1, 2, 0, 1, 2]


def test_select_skips_excluded_replicas(system):
    pool = ReplicaPool([system.server] * 3)
    assert pool.select({0}).replica_id == 1
    assert pool.select({0, 2}).replica_id == 1
    assert pool.select({0, 1, 2}) is None


def test_quarantine_and_half_open_probe(system):
    clock = VirtualClock()
    pool = ReplicaPool(
        [system.server] * 2,
        clock=clock,
        quarantine_threshold=2,
        quarantine_period=5.0,
    )
    bad = pool.handles[0]
    pool.report_failure(bad)
    assert bad.quarantined_until is None  # below the threshold
    pool.report_failure(bad)
    assert bad.quarantined_until == pytest.approx(5.0)
    assert bad.quarantines == 1
    # While quarantined, selection only offers the healthy replica.
    assert {pool.select().replica_id for _ in range(4)} == {1}
    # After the quarantine period the replica comes back as a probe...
    clock.advance(5.0)
    assert pool.select({1}).replica_id == 0
    # ...one more failure re-quarantines it immediately (probe semantics),
    pool.report_failure(bad)
    assert bad.quarantined_until == pytest.approx(10.0)
    assert bad.quarantines == 2
    # ...while a success would have restored it fully.
    clock.advance(5.0)
    pool.report_success(bad)
    assert bad.quarantined_until is None
    assert bad.consecutive_failures == 0


def test_pool_status_snapshot(system):
    pool = ReplicaPool([system.server] * 2, quarantine_threshold=1)
    pool.report_failure(pool.handles[1])
    status = pool.status()
    assert status[0] == {
        "replica_id": 0,
        "epoch": 0,
        "served": 0,
        "faults": 0,
        "quarantines": 0,
        "resyncs": 0,
        "quarantined": False,
    }
    assert status[1]["faults"] == 1
    assert status[1]["quarantined"] is True


# -------------------------------------------------------- resilient client
def test_fault_free_pool_is_bit_identical_to_single_server(system, tmp_path):
    """Acceptance invariant: with no faults, the resilient path returns
    exactly what one honest server would -- same records, same VO, same
    per-query counters -- in a single attempt."""
    path = tmp_path / "ads.npz"
    system.owner.publish(path)
    pool = pool_from_artifact(path, replicas=3)
    resilient = ResilientClient(pool, Client.from_artifact(path))
    reference = Server.from_artifact(path)
    for k in (2, 3, 5):
        query = TopKQuery(weights=(0.5,), k=k)
        outcome = resilient.execute(query)
        lone = reference.execute(query)
        assert outcome.accepted and not outcome.degraded
        assert len(outcome.attempts) == 1
        assert outcome.execution.result == lone.result
        assert outcome.execution.verification_object == lone.verification_object
        assert outcome.execution.counters.snapshot() == lone.counters.snapshot()
        assert outcome.report.is_valid


def test_failover_from_tampering_replica(system):
    clock = VirtualClock()
    tampering = FaultInjector(
        system.server, (FaultSpec(kind="tamper"),), seed=1, clock=clock, replica_id=0
    )
    honest = FaultInjector(system.server, (), clock=clock, replica_id=1)
    pool = ReplicaPool([tampering, honest], clock=clock)
    resilient = ResilientClient(pool, system.client)
    outcome = resilient.execute(QUERY)
    assert outcome.accepted and outcome.degraded
    assert outcome.replica_id == 1
    assert [a.outcome for a in outcome.attempts] == ["rejected", "accepted"]
    rejected = outcome.attempts[0]
    assert rejected.detail, "a rejection must name the failing checks"
    assert rejected.backoff > 0.0
    assert outcome.flags() == {
        "accepted": True,
        "degraded": True,
        "exhausted": False,
        "attempts": 2,
        "replica_id": 1,
    }


def test_failover_from_crashing_replica(system):
    clock = VirtualClock()
    crashing = FaultInjector(
        system.server, (FaultSpec(kind="crash"),), seed=1, clock=clock, replica_id=0
    )
    pool = ReplicaPool([crashing, system.server], clock=clock)
    resilient = ResilientClient(pool, system.client)
    outcome = resilient.execute(QUERY)
    assert outcome.accepted
    assert [a.outcome for a in outcome.attempts] == ["replica-error", "accepted"]
    assert "injected replica crash" in outcome.attempts[0].detail
    assert "replica_id=0" in outcome.attempts[0].detail


def test_timeout_counts_as_replica_fault(system):
    clock = VirtualClock()
    lagging = FaultInjector(
        system.server,
        (FaultSpec(kind="latency", delay=3.0),),
        clock=clock,
        replica_id=0,
    )
    pool = ReplicaPool([lagging, system.server], clock=clock)
    resilient = ResilientClient(pool, system.client, RetryPolicy(attempt_timeout=1.0))
    outcome = resilient.execute(QUERY)
    assert outcome.accepted
    assert outcome.attempts[0].outcome == "timeout"
    assert outcome.attempts[0].elapsed > 1.0


def test_all_replicas_faulty_exhausts_with_attempt_trail(system):
    clock = VirtualClock()
    replicas = [
        FaultInjector(
            system.server, (FaultSpec(kind="crash"),), seed=i, clock=clock, replica_id=i
        )
        for i in range(2)
    ]
    pool = ReplicaPool(replicas, clock=clock)
    policy = RetryPolicy(max_attempts=4)
    resilient = ResilientClient(pool, system.client, policy)
    outcome = resilient.execute(QUERY)
    assert outcome.exhausted and not outcome.accepted
    assert outcome.execution is None and outcome.report is None
    assert outcome.replica_id is None
    assert 1 <= len(outcome.attempts) <= policy.max_attempts
    assert all(a.outcome == "replica-error" for a in outcome.attempts)
    # Replicas were retried beyond the first round (exclusion resets).
    assert {a.replica_id for a in outcome.attempts} == {0, 1}


def test_deadline_bounds_the_retry_loop(system):
    clock = VirtualClock()
    crashing = FaultInjector(
        system.server, (FaultSpec(kind="crash"),), clock=clock, service_time=2.0
    )
    pool = ReplicaPool([crashing], clock=clock, quarantine_threshold=99)
    policy = RetryPolicy(max_attempts=50, deadline=7.0)
    resilient = ResilientClient(pool, system.client, policy)
    outcome = resilient.execute(QUERY)
    assert outcome.exhausted
    assert len(outcome.attempts) < policy.max_attempts
    assert outcome.elapsed <= policy.deadline + 2.0  # the attempt in flight may finish


def test_invalid_query_propagates_without_failover(system):
    pool = ReplicaPool([system.server])
    resilient = ResilientClient(pool, system.client)
    with pytest.raises(InvalidQueryError):
        resilient.execute(TopKQuery(weights=(0.5, 0.5), k=2))  # wrong dimension


def test_execute_batch_runs_every_query(system):
    clock = VirtualClock()
    tampering = FaultInjector(
        system.server, (FaultSpec(kind="tamper", rate=0.5),), seed=2, clock=clock
    )
    pool = ReplicaPool([tampering, system.server], clock=clock)
    resilient = ResilientClient(pool, system.client)
    queries = [TopKQuery(weights=(0.3 + 0.1 * i,), k=2) for i in range(5)]
    outcomes = resilient.execute_batch(queries)
    assert len(outcomes) == 5
    assert all(outcome.accepted for outcome in outcomes)


def test_same_seed_resilient_runs_are_identical(system):
    queries = [TopKQuery(weights=(0.3 + 0.1 * i,), k=2) for i in range(5)]

    def run():
        clock = VirtualClock()
        replicas = [
            FaultInjector(system.server, (), clock=clock, replica_id=0),
            FaultInjector(
                system.server,
                (FaultSpec(kind="tamper", rate=0.6),),
                seed=11,
                clock=clock,
                replica_id=1,
            ),
            FaultInjector(
                system.server,
                (FaultSpec(kind="crash", rate=0.6),),
                seed=12,
                clock=clock,
                replica_id=2,
            ),
        ]
        pool = ReplicaPool(replicas, clock=clock)
        resilient = ResilientClient(pool, system.client, seed=0)
        trace = []
        for query in queries:
            outcome = resilient.execute(query)
            trace.append(
                (
                    outcome.replica_id,
                    tuple((a.replica_id, a.outcome, a.backoff) for a in outcome.attempts),
                    outcome.finished,
                )
            )
        return trace

    assert run() == run()


# ----------------------------------------------------------- cold-starting
def test_pool_from_artifact_loads_independent_replicas(system, tmp_path):
    path = tmp_path / "ads.npz"
    system.owner.publish(path)
    pool = pool_from_artifact(path, replicas=3)
    assert len(pool) == 3
    servers = {id(handle.server) for handle in pool.handles}
    assert len(servers) == 3, "replicas must be independent loads"
    with pytest.raises(ValueError, match="replicas"):
        pool_from_artifact(path, replicas=0)


def test_pool_from_artifacts_skips_corrupt_and_stale(system, tmp_path):
    good = tmp_path / "good.npz"
    system.owner.publish(good)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(good.read_bytes()[:100])
    pool, skipped = pool_from_artifacts([good, truncated, good])
    assert len(pool) == 2
    assert len(skipped) == 1 and "truncated.npz" in skipped[0]
    # With an epoch pin, a stale artifact is skipped the same way.
    from repro.core.records import Record

    system.owner.insert(Record(record_id=99, values=(4.2, 1.7)))
    current = tmp_path / "current.npz"
    system.owner.publish(current)
    pool, skipped = pool_from_artifacts(
        [current, good], expected_epoch=system.owner.epoch
    )
    assert len(pool) == 1
    assert len(skipped) == 1 and "stale or replayed" in skipped[0]
    # Nothing loadable is a hard error.
    with pytest.raises(ConstructionError, match="no replica artifact"):
        pool_from_artifacts([truncated])


def test_outsourced_system_resilient_client(system):
    resilient = system.resilient_client()
    outcome = resilient.execute(QUERY)
    assert outcome.accepted
    lone = Server(system.owner.outsource()).execute(QUERY)
    assert outcome.execution.result == lone.result


def test_outsourced_system_resilient_from_artifact(system, tmp_path):
    path = tmp_path / "ads.npz"
    system.owner.publish(path)
    resilient = OutsourcedSystem.resilient_from_artifact(path, replicas=2)
    outcome = resilient.execute(QUERY)
    assert outcome.accepted and len(resilient.pool) == 2


# ------------------------------------------------------- resync self-healing
def _publish_epoch_pair(system, tmp_path):
    """Publish epoch 0, apply one insert, publish epoch 1; return both paths."""
    from repro.core.records import Record

    epoch0 = tmp_path / "epoch0.npz"
    system.owner.publish(epoch0)
    system.owner.insert(Record(record_id=99, values=(4.2, 1.7)))
    epoch1 = tmp_path / "epoch1.npz"
    system.owner.publish(epoch1)
    return epoch0, epoch1


def test_expired_probe_shares_rotation_with_healthy_replicas(system):
    """The quarantine dead-end fix: a recovered replica gets probe traffic
    even while healthy peers exist, instead of starving behind them."""
    clock = VirtualClock()
    pool = ReplicaPool(
        [system.server] * 3,
        clock=clock,
        quarantine_threshold=1,
        quarantine_period=5.0,
    )
    pool.report_failure(pool.handles[0])
    assert {pool.select().replica_id for _ in range(4)} == {1, 2}
    clock.advance(5.0)
    picked = {pool.select().replica_id for _ in range(6)}
    assert 0 in picked  # the probe joins the normal rotation
    assert picked == {0, 1, 2}


def test_stale_replicas_and_rolling_swap(system, tmp_path):
    epoch0, epoch1 = _publish_epoch_pair(system, tmp_path)
    pool = pool_from_artifact(epoch0, replicas=3)
    assert pool.stale_replicas(1) == [0, 1, 2]
    report = pool.resync(0, epoch1)
    assert (report.mode, report.old_epoch, report.new_epoch) == ("hot-swap", 0, 1)
    assert not report.rejoined_as_probe
    assert pool.handle(0).epoch == 1
    assert pool.stale_replicas(1) == [1, 2]
    reports = pool.rolling_swap(epoch1)
    assert [r.replica_id for r in reports] == [1, 2]
    assert all(r.mode == "hot-swap" for r in reports)
    assert pool.stale_replicas(1) == []
    assert [entry["resyncs"] for entry in pool.status()] == [1, 1, 1]


def test_resync_refresh_resets_health_without_swapping(system, tmp_path):
    epoch0, _epoch1 = _publish_epoch_pair(system, tmp_path)
    clock = VirtualClock()
    pool = ReplicaPool(
        [Server.from_artifact(epoch0)],
        clock=clock,
        quarantine_threshold=1,
        quarantine_period=30.0,
    )
    pool.report_failure(pool.handles[0])
    assert pool.select() is None  # quarantined, far from expiry
    report = pool.resync(0, epoch0)
    assert report.mode == "refresh"
    assert report.rejoined_as_probe
    assert pool.handle(0).consecutive_failures == 0
    # The quarantine now expires immediately: the replica is a live probe.
    assert pool.select().replica_id == 0


def test_resync_load_error_leaves_health_untouched(system, tmp_path):
    epoch0, epoch1 = _publish_epoch_pair(system, tmp_path)
    data = bytearray(epoch1.read_bytes())
    for offset in range(len(data) // 2, len(data) // 2 + 64):
        data[offset] ^= 0x5A
    epoch1.write_bytes(bytes(data))
    clock = VirtualClock()
    pool = ReplicaPool(
        [Server.from_artifact(epoch0)],
        clock=clock,
        quarantine_threshold=1,
        quarantine_period=30.0,
    )
    pool.report_failure(pool.handles[0])
    quarantined_until = pool.handles[0].quarantined_until
    with pytest.raises(ConstructionError):
        pool.resync(0, epoch1)
    handle = pool.handle(0)
    assert handle.quarantined_until == quarantined_until  # no half-applied reset
    assert handle.resyncs == 0
    assert handle.consecutive_failures == 1


def test_recovered_replica_serves_again_after_resync(system, tmp_path):
    """End-to-end self-healing: a stale replica is quarantined by verifying
    clients, resynced to the new artifact, probed, and serves again."""
    epoch0, epoch1 = _publish_epoch_pair(system, tmp_path)
    clock = VirtualClock()
    pool = ReplicaPool(
        [Server.from_artifact(epoch1), Server.from_artifact(epoch0)],
        clock=clock,
        quarantine_threshold=1,
        quarantine_period=5.0,
    )
    resilient = ResilientClient(pool, Client.from_artifact(epoch1))
    stale = pool.handle(1)
    # Drive queries until the stale replica is quarantined: its answers
    # carry epoch-0 parameters and fail verification at the new client.
    for _ in range(4):
        assert resilient.execute(QUERY).accepted
        if stale.quarantined_until is not None:
            break
    assert stale.quarantined_until is not None
    assert stale.epoch == 0
    report = pool.resync(1, epoch1)
    assert (report.mode, report.new_epoch) == ("hot-swap", 1)
    assert report.rejoined_as_probe
    served_before = stale.served
    for _ in range(4):
        assert resilient.execute(QUERY).accepted
    assert stale.served > served_before  # the probe got traffic...
    assert stale.quarantined_until is None  # ...and one success restored it
    assert stale.epoch == 1


def test_concurrent_pool_load_bit_identical_to_serial(system, tmp_path):
    """pool_from_artifact loads replicas on a thread pool; concurrency must
    be unobservable -- every replica bit-identical to a serial load."""
    import pickle

    path = tmp_path / "ads.npz"
    system.owner.publish(path)
    serial = [Server.from_artifact(path) for _ in range(4)]
    pool = pool_from_artifact(path, replicas=4)
    assert len(pool) == 4
    client = Client.from_artifact(path)
    reference = serial[0].execute(QUERY)
    reference_bytes = pickle.dumps(
        (reference.result, reference.verification_object)
    )
    for serial_server, handle in zip(serial, pool.handles):
        concurrent_server = handle.server
        assert concurrent_server.ads.root_hash == serial_server.ads.root_hash
        assert concurrent_server.epoch == serial_server.epoch
        execution = concurrent_server.execute(QUERY)
        assert (
            pickle.dumps((execution.result, execution.verification_object))
            == reference_bytes
        )
        assert client.verify(
            execution.query, execution.result, execution.verification_object
        ).is_valid
