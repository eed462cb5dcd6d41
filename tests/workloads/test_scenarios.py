"""Tests for the named application scenarios."""

import pytest

from repro.core.config import SystemConfig
from repro.core.protocol import OutsourcedSystem
from repro.workloads.scenarios import (
    admissions_scenario,
    credit_risk_scenario,
    patient_risk_scenario,
)

SCENARIOS = [
    (admissions_scenario, 12),
    (credit_risk_scenario, 20),
    (patient_risk_scenario, 20),
]


@pytest.mark.parametrize("factory,size", SCENARIOS, ids=lambda value: getattr(value, "__name__", value))
def test_scenario_shapes(factory, size):
    scenario = factory(size)
    assert len(scenario.dataset) == size
    assert scenario.template.dimension >= 1
    assert scenario.example_queries
    assert scenario.name and scenario.description
    # Template attributes must exist in the dataset schema.
    for attribute in scenario.template.attributes:
        assert attribute in scenario.dataset.attribute_names


@pytest.mark.parametrize("factory,size", SCENARIOS, ids=lambda value: getattr(value, "__name__", value))
def test_scenario_is_deterministic(factory, size):
    a = factory(size, seed=5)
    b = factory(size, seed=5)
    assert [r.values for r in a.dataset] == [r.values for r in b.dataset]


@pytest.mark.parametrize("factory,size", [(credit_risk_scenario, 15), (patient_risk_scenario, 15)])
def test_univariate_scenarios_run_end_to_end(factory, size):
    scenario = factory(size)
    system = OutsourcedSystem.setup(
        scenario.dataset,
        scenario.template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )
    for query in scenario.example_queries:
        execution, report = system.query_and_verify(query)
        assert report.is_valid, (scenario.name, query, report.failures)


def test_admissions_scenario_runs_end_to_end():
    scenario = admissions_scenario(10)
    system = OutsourcedSystem.setup(
        scenario.dataset,
        scenario.template,
        config=SystemConfig(scheme="multi-signature", signature_algorithm="hmac"),
    )
    query = scenario.example_queries[0]
    execution, report = system.query_and_verify(query)
    assert report.is_valid, report.failures
    assert len(execution.result) >= 1


def test_example_queries_match_template_dimension():
    for factory, size in SCENARIOS:
        scenario = factory(size)
        for query in scenario.example_queries:
            assert query.dimension == scenario.template.dimension
