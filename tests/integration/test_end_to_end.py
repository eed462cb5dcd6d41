"""Integration tests: the full three-party pipeline with real RSA signatures.

These tests exercise the complete flow the paper describes -- key generation,
ADS construction, outsourcing, query processing, VO construction, client
verification and attack rejection -- with an actual public-key signature
scheme (RSA-512 for speed) rather than the keyed-hash stand-in used by the
unit tests, and for both the univariate (interval-engine) and bivariate
(LP-engine) configurations.
"""

import random

import pytest

from repro.attacks import all_attacks
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner, SCHEMES
from repro.core.client import Client
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.server import Server
from repro.metrics.counters import Counters
from repro.workloads.generator import WorkloadConfig, make_dataset, make_queries, make_template


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(n_records=14, dimension=1, distribution="uniform", seed=21)
    dataset = make_dataset(config)
    template = make_template(config)
    return dataset, template


@pytest.fixture(scope="module")
def systems(workload, rsa_keypair):
    dataset, template = workload
    built = {}
    for scheme in SCHEMES:
        owner = DataOwner(
            dataset, template, config=SystemConfig(scheme=scheme), keypair=rsa_keypair
        )
        built[scheme] = OutsourcedSystem(
            owner=owner, server=Server(owner.outsource()), client=Client(owner.public_parameters())
        )
    return built


@pytest.fixture(scope="module")
def query_mix(workload):
    dataset, template = workload
    return make_queries(dataset, template, count=9, result_size=4, seed=2)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_full_pipeline_with_rsa(systems, query_mix, scheme):
    system = systems[scheme]
    for query in query_mix:
        server_counters = Counters()
        client_counters = Counters()
        execution, report = system.query_and_verify(
            query, server_counters=server_counters, client_counters=client_counters
        )
        assert report.is_valid, (scheme, query, report.failures)
        assert server_counters.nodes_traversed > 0
        assert client_counters.hash_operations > 0
        assert client_counters.signatures_verified >= 1


def test_schemes_agree_on_every_query(systems, query_mix):
    for query in query_mix:
        results = [
            systems[scheme].server.execute(query).result.record_ids() for scheme in SCHEMES
        ]
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_attacks_rejected_with_rsa(systems, scheme):
    system = systems[scheme]
    rng = random.Random(17)
    query = RangeQuery(weights=(0.37,), low=2.0, high=6.0)
    execution = system.server.execute(query)
    applicable = 0
    for attack in all_attacks():
        tampered = attack(execution.result, execution.verification_object, rng)
        if tampered is None:
            continue
        applicable += 1
        report = system.client.verify(query, tampered[0], tampered[1])
        assert not report.is_valid, f"{attack.name} undetected under {scheme}"
    assert applicable >= 6


def test_ifmh_server_is_cheaper_than_mesh_at_scale(systems, workload):
    """The headline claim: logarithmic search versus linear cell scan."""
    dataset, template = workload
    query = TopKQuery(weights=(0.81,), k=3)
    costs = {}
    for scheme in SCHEMES:
        counters = Counters()
        systems[scheme].server.execute(query, counters=counters)
        costs[scheme] = counters.nodes_traversed
    # With 14 records the univariate arrangement has ~90 cells; a weight of
    # 0.81 forces the mesh to scan most of them while the IFMH path stays
    # logarithmic.
    assert costs["signature-mesh"] > costs["one-signature"]
    assert costs["signature-mesh"] > costs["multi-signature"]


def test_mesh_client_verifies_more_signatures(systems):
    query = RangeQuery(weights=(0.42,), low=1.0, high=7.0)
    verified = {}
    for scheme in SCHEMES:
        execution = systems[scheme].server.execute(query)
        counters = Counters()
        report = systems[scheme].client.verify(
            query, execution.result, execution.verification_object, counters=counters
        )
        assert report.is_valid
        verified[scheme] = counters.signatures_verified
    assert verified["one-signature"] == 1
    assert verified["multi-signature"] == 1
    assert verified["signature-mesh"] > 1


def test_bivariate_pipeline_with_lp_engine(rsa_keypair):
    """End-to-end on a 2-weight template (LP geometry engine)."""
    rows = [(3.9, 2, 4), (3.5, 1, 7), (3.2, 0, 2), (3.8, 3, 1), (2.9, 1, 0), (3.6, 4, 5)]
    from repro.core.records import Dataset, UtilityTemplate

    dataset = Dataset.from_rows(("gpa", "award", "paper"), rows)
    template = UtilityTemplate(attributes=("gpa", "award"))
    for scheme in SCHEMES:
        owner = DataOwner(
            dataset, template, config=SystemConfig(scheme=scheme), keypair=rsa_keypair
        )
        system = OutsourcedSystem(
            owner=owner, server=Server(owner.outsource()), client=Client(owner.public_parameters())
        )
        for query in (
            TopKQuery(weights=(0.7, 0.3), k=3),
            RangeQuery(weights=(0.5, 0.5), low=1.5, high=3.0),
            KNNQuery(weights=(0.4, 0.6), k=2, target=2.5),
        ):
            execution, report = system.query_and_verify(query)
            assert report.is_valid, (scheme, query, report.failures)
