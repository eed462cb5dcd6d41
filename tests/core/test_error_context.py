"""Structured context on protocol errors: query kind, scheme, epoch, replica.

Satellite of the resilience work: when a query fails mid-protocol the
raised error must say *where* -- which query kind, which scheme, which ADS
epoch and (once a replica pool is involved) which replica -- and a failed
verification must name the failing checks.
"""

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import (
    ContextualReproError,
    QueryProcessingError,
    VerificationError,
)
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.results import VerificationReport


@pytest.fixture()
def system(univariate_dataset, univariate_template):
    return OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )


def test_queries_carry_machine_readable_kind():
    assert TopKQuery(weights=(0.5,), k=2).kind == "topk"
    assert RangeQuery(weights=(0.5,), low=0.0, high=1.0).kind == "range"
    assert KNNQuery(weights=(0.5,), k=2, target=3.0).kind == "knn"


def test_contextual_error_annotate_and_str():
    err = ContextualReproError("it broke", query_kind="topk")
    assert err.context == {"query_kind": "topk"}
    err.annotate(scheme="one-signature", epoch=2)
    assert err.context == {"query_kind": "topk", "scheme": "one-signature", "epoch": 2}
    # annotate fills only missing fields -- the first writer wins.
    err.annotate(query_kind="range", replica_id=3)
    assert err.context["query_kind"] == "topk"
    assert err.context["replica_id"] == 3
    rendered = str(err)
    assert rendered.startswith("it broke [")
    for fragment in ("query_kind=topk", "scheme=one-signature", "epoch=2", "replica_id=3"):
        assert fragment in rendered


def test_annotate_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown error-context field"):
        ContextualReproError("x").annotate(flavor="spicy")


def test_context_free_error_renders_plain():
    assert str(QueryProcessingError("plain failure")) == "plain failure"


def test_verification_error_names_failing_checks(system):
    query = TopKQuery(weights=(0.55,), k=3)
    execution = system.server.execute(query)
    truncated = type(execution.result)(records=execution.result.records[:-1])
    with pytest.raises(VerificationError) as excinfo:
        system.client.verify_or_raise(query, truncated, execution.verification_object)
    err = excinfo.value
    assert err.failed_checks, "the error must name at least one failing check"
    report = system.client.verify(query, truncated, execution.verification_object)
    assert err.failed_checks == report.failed_checks()
    assert err.context["query_kind"] == "topk"
    assert err.context["scheme"] == "one-signature"
    assert err.context["epoch"] == system.server.epoch


def test_report_raise_if_invalid_passthrough_and_raise():
    ok = VerificationReport()
    ok.record("a", True)
    ok.raise_if_invalid()  # no exception on a valid report
    bad = VerificationReport()
    bad.record("a", True)
    bad.record("b", False, "b failed")
    assert bad.failed_checks() == ("b",)
    with pytest.raises(VerificationError, match="b failed") as excinfo:
        bad.raise_if_invalid(replica_id=7)
    assert excinfo.value.failed_checks == ("b",)
    assert excinfo.value.context == {"replica_id": 7}


def test_server_annotates_query_processing_errors(system):
    """Errors escaping Server.execute carry kind/scheme/epoch context."""
    query = TopKQuery(weights=(0.55,), k=3)
    original = system.server._execute_ifmh

    def explode(state, query, counters):
        raise QueryProcessingError("synthetic mid-query failure")

    system.server._execute_ifmh = explode
    try:
        with pytest.raises(QueryProcessingError) as excinfo:
            system.server.execute(query)
    finally:
        system.server._execute_ifmh = original
    context = excinfo.value.context
    assert context["query_kind"] == "topk"
    assert context["scheme"] == "one-signature"
    assert context["epoch"] == 0


def test_client_from_parameters_is_unaffected(system):
    """An honest execution still verifies cleanly through verify_or_raise."""
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    execution = system.server.execute(query)
    report = system.client.verify_or_raise(
        query, execution.result, execution.verification_object
    )
    assert report.is_valid


def test_client_from_artifact_context(tmp_path, system):
    system.owner.publish(tmp_path / "ads.npz")
    client = Client.from_artifact(tmp_path / "ads.npz")
    query = TopKQuery(weights=(0.55,), k=3)
    execution = system.server.execute(query)
    assert client.verify_or_raise(
        query, execution.result, execution.verification_object
    ).is_valid
