"""The client is the trust boundary: a malformed VO fails a check, never raises."""

import dataclasses
import random

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import RangeQuery
from repro.core.records import Dataset, UtilityTemplate
from repro.core.server import Server
from repro.geometry.domain import Domain
from repro.ifmh.verify import verify_result
from repro.metrics.counters import Counters

_TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)


@pytest.fixture(scope="module")
def served():
    rng = random.Random(4)
    rows = [(round(rng.uniform(0, 8), 2), round(rng.uniform(0, 6), 2)) for _ in range(40)]
    owner = DataOwner(
        Dataset.from_rows(("factor", "baseline"), rows),
        _TEMPLATE,
        config=SystemConfig(signature_algorithm="hmac"),
        rng=random.Random(1),
    )
    query = RangeQuery(weights=(0.4,), low=3.0, high=5.0)
    execution = Server(owner.outsource()).execute(query)
    return owner, query, execution


def _first_step(vo, **changes):
    steps = list(vo.one_signature_iv.steps)
    steps[0] = dataclasses.replace(steps[0], **changes)
    return dataclasses.replace(
        vo, one_signature_iv=dataclasses.replace(vo.one_signature_iv, steps=tuple(steps))
    )


MALFORMED = {
    "sibling_hash=None": lambda vo: _first_step(vo, sibling_hash=None),
    "hyperplane=None": lambda vo: _first_step(vo, hyperplane=None),
    "fv.left=None": lambda vo: dataclasses.replace(vo, fv=dataclasses.replace(vo.fv, left=None)),
    "steps=None": lambda vo: dataclasses.replace(
        vo, one_signature_iv=dataclasses.replace(vo.one_signature_iv, steps=None)
    ),
    "root_signature=5": lambda vo: dataclasses.replace(vo, root_signature=5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_vo_fails_the_structure_check(served, case):
    owner, query, execution = served
    vo = MALFORMED[case](execution.verification_object)
    client = Client(owner.public_parameters())
    report = client.verify(query, execution.result, vo)
    assert not report.is_valid
    assert report.failed_checks() == ("vo-structure",)
    assert client.counters.snapshot() == Counters().snapshot()


def test_well_formed_vo_report_and_counters_are_unchanged(served):
    owner, query, execution = served
    assert execution.verification_object.one_signature_iv.steps  # the cases above apply
    client = Client(owner.public_parameters())
    report = client.verify(query, execution.result, execution.verification_object)
    parameters = owner.public_parameters()
    direct = verify_result(
        query,
        execution.result,
        execution.verification_object,
        template=parameters.template,
        attribute_names=parameters.attribute_names,
        verifier=parameters.verifier,
        bind_intersections=parameters.bind_intersections,
        counters=Counters(),
        epoch=parameters.epoch,
    )
    assert report.is_valid
    assert report.summary() == direct.summary()
    assert report.counters.snapshot() == direct.counters.snapshot()
    assert client.counters.snapshot() == direct.counters.snapshot()
