"""FaultInjector / FaultPlan: seeded, composable replica misbehavior."""

import random

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import QueryProcessingError
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import RangeQuery, TopKQuery
from repro.core.records import Record
from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PLANS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.policy import VirtualClock


@pytest.fixture()
def system(univariate_dataset, univariate_template):
    return OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )


QUERY = TopKQuery(weights=(0.55,), k=3)


# ------------------------------------------------------------------- specs
def test_fault_spec_validation():
    for kind in FAULT_KINDS:
        FaultSpec(kind=kind, delay=1.0 if kind == "latency" else 0.0)
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="gremlins")
    with pytest.raises(ValueError, match="rate"):
        FaultSpec(kind="crash", rate=1.5)
    with pytest.raises(ValueError, match="delay > 0"):
        FaultSpec(kind="latency")
    with pytest.raises(ValueError, match="delay only applies"):
        FaultSpec(kind="crash", delay=1.0)
    with pytest.raises(ValueError, match="attack only applies"):
        FaultSpec(kind="crash", attack="drop-record")
    with pytest.raises(ValueError, match="unknown attack"):
        FaultSpec(kind="tamper", attack="no-such-attack")


def test_byzantine_plan_shape():
    plan = FaultPlan.byzantine(5)
    assert plan.name == "byzantine-5"
    assert plan.faults_for(0) == ()  # honest
    assert plan.faults_for(1)[0].kind == "tamper"
    assert plan.faults_for(2)[0].kind == "crash"
    assert plan.faults_for(3)[0].kind == "stale-epoch"
    assert plan.faults_for(4)[0].kind == "latency"
    assert plan.faults_for(99) == ()  # out of range -> honest
    assert plan.faulty_replicas == (1, 2, 3, 4)
    assert plan.kinds() == ("crash", "latency", "stale-epoch", "tamper")
    assert plan.needs_stale_server()
    with pytest.raises(ValueError, match=">= 4 replicas"):
        FaultPlan.byzantine(3)


def test_named_plans_registry():
    assert FAULT_PLANS["all-honest"].replica_faults == ()
    assert not FAULT_PLANS["all-honest"].needs_stale_server()
    assert FAULT_PLANS["byzantine-mix"].faulty_replicas == (1, 2, 3, 4)


# ---------------------------------------------------------------- injector
def test_honest_injector_is_transparent_and_advances_clock(system):
    clock = VirtualClock()
    injector = FaultInjector(system.server, (), clock=clock, service_time=0.25)
    direct = system.server.execute(QUERY)
    wrapped = injector.execute(QUERY)
    assert wrapped.result == direct.result
    assert wrapped.verification_object == direct.verification_object
    assert wrapped.counters.snapshot() == direct.counters.snapshot()
    assert clock.now() == pytest.approx(0.25)
    assert injector.injected_counts() == {}
    assert injector.scheme == system.server.scheme
    assert injector.epoch == system.server.epoch
    assert injector.counters is system.server.counters


def test_crash_fault_raises_with_replica_context(system):
    injector = FaultInjector(
        system.server, (FaultSpec(kind="crash"),), seed=1, replica_id=4
    )
    with pytest.raises(QueryProcessingError, match="injected replica crash") as excinfo:
        injector.execute(QUERY)
    context = excinfo.value.context
    assert context["replica_id"] == 4
    assert context["query_kind"] == "topk"
    assert context["scheme"] == "one-signature"
    assert injector.injected_counts() == {"crash": 1}


def test_latency_fault_advances_clock_by_delay(system):
    clock = VirtualClock()
    injector = FaultInjector(
        system.server,
        (FaultSpec(kind="latency", delay=2.0),),
        clock=clock,
        service_time=0.5,
    )
    injector.execute(QUERY)
    assert clock.now() == pytest.approx(2.5)
    assert injector.injected_counts() == {"latency": 1}


def test_tamper_fault_breaks_verification(system):
    injector = FaultInjector(system.server, (FaultSpec(kind="tamper"),), seed=3)
    execution = injector.execute(QUERY)
    report = system.client.verify(
        QUERY, execution.result, execution.verification_object
    )
    assert not report.is_valid
    assert injector.injected_counts() == {"tamper": 1}
    assert injector.applicability.applied, "an attack must have applied"


def test_pinned_tamper_attack_is_used(system):
    injector = FaultInjector(
        system.server, (FaultSpec(kind="tamper", attack="truncate-result"),), seed=3
    )
    honest = system.server.execute(QUERY)
    tampered = injector.execute(QUERY)
    assert len(tampered.result) == len(honest.result) - 1
    assert injector.applicability.applied == {"truncate-result": 1}


def test_stale_epoch_fault_serves_pre_update_ads(system):
    owner = system.owner
    stale_package_server = system.server  # still holds the epoch-0 package
    owner.insert(Record(record_id=99, values=(4.2, 1.7)))
    from repro.core.server import Server

    current = Server(owner.outsource())
    client = Client(owner.public_parameters())
    injector = FaultInjector(
        current, (FaultSpec(kind="stale-epoch"),), seed=0,
        stale_server=stale_package_server,
    )
    execution = injector.execute(QUERY)
    report = client.verify(QUERY, execution.result, execution.verification_object)
    assert not report.is_valid
    assert injector.injected_counts() == {"stale-epoch": 1}
    # The same query served honestly verifies.
    honest = current.execute(QUERY)
    assert client.verify(QUERY, honest.result, honest.verification_object).is_valid


def test_stale_epoch_requires_a_stale_server(system):
    with pytest.raises(ValueError, match="stale_server"):
        FaultInjector(system.server, (FaultSpec(kind="stale-epoch"),))


def test_rate_zero_never_fires_and_same_seed_reproduces(system):
    queries = [
        TopKQuery(weights=(0.35 + 0.05 * i,), k=3) for i in range(8)
    ]
    silent = FaultInjector(system.server, (FaultSpec(kind="crash", rate=0.0),), seed=9)
    for query in queries:
        silent.execute(query)
    assert silent.injected_counts() == {}

    def run(seed):
        injector = FaultInjector(
            system.server,
            (FaultSpec(kind="tamper", rate=0.5), FaultSpec(kind="crash", rate=0.3)),
            seed=seed,
        )
        trace = []
        for query in queries:
            try:
                execution = injector.execute(query)
            except QueryProcessingError:
                trace.append("crash")
            else:
                trace.append(tuple(execution.result.record_ids()))
        return trace, injector.injected_counts()

    assert run(21) == run(21)


def test_batch_faults_are_drawn_once_per_batch(system):
    queries = [TopKQuery(weights=(0.4,), k=2), TopKQuery(weights=(0.6,), k=2)]
    crashing = FaultInjector(system.server, (FaultSpec(kind="crash"),), seed=5)
    with pytest.raises(QueryProcessingError):
        crashing.execute_batch(queries)
    assert crashing.injected_counts() == {"crash": 1}

    tampering = FaultInjector(system.server, (FaultSpec(kind="tamper"),), seed=5)
    executions = tampering.execute_batch(queries)
    assert len(executions) == 2
    invalid = [
        not system.client.verify(e.query, e.result, e.verification_object).is_valid
        for e in executions
    ]
    assert all(invalid), "a tampering batch must tamper every execution"
