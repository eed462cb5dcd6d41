"""Tests for the owner / server / client protocol wiring."""

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError, VerificationError
from repro.core.owner import DataOwner, SCHEMES, SIGNATURE_MESH
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.server import Server
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.mesh.builder import SignatureMesh
from repro.metrics.counters import Counters


def test_schemes_tuple_contains_all_three():
    assert set(SCHEMES) == {ONE_SIGNATURE, MULTI_SIGNATURE, SIGNATURE_MESH}


def test_owner_rejects_unknown_scheme(univariate_dataset, univariate_template):
    with pytest.raises(ConstructionError):
        DataOwner(univariate_dataset, univariate_template, config=SystemConfig(scheme="plain"))


@pytest.mark.parametrize("scheme,ads_type", [
    (ONE_SIGNATURE, IFMHTree),
    (MULTI_SIGNATURE, IFMHTree),
    (SIGNATURE_MESH, SignatureMesh),
])
def test_owner_builds_matching_ads(univariate_dataset, univariate_template, scheme, ads_type):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
    )
    assert isinstance(owner.ads, ads_type)
    assert owner.signature_count >= 1
    assert owner.ads_size_bytes() > 0


def test_public_parameters_expose_only_public_data(univariate_dataset, univariate_template):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
    )
    params = owner.public_parameters()
    assert params.scheme == ONE_SIGNATURE
    assert params.template is univariate_template
    assert params.attribute_names == univariate_dataset.attribute_names
    assert params.signature_algorithm == "hmac"
    assert not hasattr(params, "signer")


def test_outsource_package_contains_everything(univariate_dataset, univariate_template):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE, signature_algorithm="hmac"),
    )
    package = owner.outsource()
    assert package.dataset is univariate_dataset
    assert package.ads is owner.ads
    assert package.public_parameters.scheme == MULTI_SIGNATURE


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize(
    "query",
    [
        TopKQuery(weights=(0.3,), k=3),
        RangeQuery(weights=(0.6,), low=2.0, high=5.0),
        KNNQuery(weights=(0.85,), k=4, target=4.0),
    ],
    ids=lambda q: type(q).__name__,
)
def test_end_to_end_query_and_verify(univariate_dataset, univariate_template, scheme, query):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
    )
    execution, report = system.query_and_verify(query)
    assert report.is_valid, report.failures
    assert execution.nodes_traversed > 0
    assert execution.query is query


def test_all_schemes_return_identical_results(univariate_dataset, univariate_template):
    query = TopKQuery(weights=(0.42,), k=4)
    ids_per_scheme = []
    for scheme in SCHEMES:
        system = OutsourcedSystem.setup(
            univariate_dataset,
            univariate_template,
            config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        )
        execution, report = system.query_and_verify(query)
        assert report.is_valid
        ids_per_scheme.append(execution.result.record_ids())
    assert ids_per_scheme[0] == ids_per_scheme[1] == ids_per_scheme[2]


def test_server_accumulates_counters(univariate_dataset, univariate_template):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
    )
    before = system.server.counters.nodes_traversed
    system.server.execute(TopKQuery(weights=(0.5,), k=2))
    system.server.execute(TopKQuery(weights=(0.7,), k=2))
    assert system.server.counters.nodes_traversed > before


def test_per_query_counters_are_isolated(univariate_dataset, univariate_template):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
    )
    counters = Counters()
    execution = system.server.execute(TopKQuery(weights=(0.5,), k=2), counters=counters)
    assert execution.counters is counters
    assert counters.nodes_traversed == execution.nodes_traversed


def test_client_rejects_mismatched_vo_type(univariate_dataset, univariate_template):
    ifmh_system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
    )
    mesh_system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=SIGNATURE_MESH, signature_algorithm="hmac"),
    )
    query = TopKQuery(weights=(0.5,), k=2)
    mesh_execution = mesh_system.server.execute(query)
    report = ifmh_system.client.verify(
        query, mesh_execution.result, mesh_execution.verification_object
    )
    assert not report.is_valid
    assert report.checks["vo-type"] is False


def test_client_verify_or_raise(univariate_dataset, univariate_template):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
    )
    query = TopKQuery(weights=(0.5,), k=2)
    execution = system.server.execute(query)
    system.client.verify_or_raise(query, execution.result, execution.verification_object)
    from repro.core.results import QueryResult

    truncated = QueryResult(records=execution.result.records[:-1])
    with pytest.raises(VerificationError):
        system.client.verify_or_raise(query, truncated, execution.verification_object)


def test_client_accumulates_counters(univariate_dataset, univariate_template):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE, signature_algorithm="hmac"),
    )
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    execution = system.server.execute(query)
    system.client.verify(query, execution.result, execution.verification_object)
    assert system.client.counters.hash_operations > 0
    assert system.client.counters.signatures_verified == 1


def test_system_scheme_property(univariate_dataset, univariate_template):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=SIGNATURE_MESH, signature_algorithm="hmac"),
    )
    assert system.scheme == SIGNATURE_MESH


def test_rsa_signature_algorithm_end_to_end(univariate_dataset, univariate_template, rsa_keypair):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE),
        keypair=rsa_keypair,
    )
    server = Server(owner.outsource())
    client = Client(owner.public_parameters())
    query = TopKQuery(weights=(0.6,), k=3)
    execution = server.execute(query)
    report = client.verify(query, execution.result, execution.verification_object)
    assert report.is_valid, report.failures
    assert owner.public_parameters().signature_algorithm == "rsa"
