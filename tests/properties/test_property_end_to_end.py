"""Property-based end-to-end tests: honest answers always verify, across schemes."""

from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, UtilityTemplate
from repro.geometry.domain import Domain

TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)

datasets = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    ),
    min_size=1,
    max_size=10,
).map(lambda rows: Dataset.from_rows(("factor", "baseline"), rows))

weights = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)


def _systems(dataset):
    return [
        OutsourcedSystem.setup(
            dataset, TEMPLATE, config=SystemConfig(scheme=scheme, signature_algorithm="hmac")
        )
        for scheme in ("one-signature", "multi-signature", "signature-mesh")
    ]


@given(dataset=datasets, x=weights, k=st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_topk_results_verify_and_agree(dataset, x, k):
    query = TopKQuery(weights=(x,), k=k)
    reference = None
    for system in _systems(dataset):
        execution, report = system.query_and_verify(query)
        assert report.is_valid, (system.scheme, report.failures)
        ids = execution.result.record_ids()
        assert len(ids) == min(k, len(dataset))
        if reference is None:
            reference = ids
        else:
            assert ids == reference


@given(dataset=datasets, x=weights, data=st.data())
@settings(max_examples=25, deadline=None)
def test_range_results_verify_and_match_filter(dataset, x, data):
    low = data.draw(st.floats(min_value=-1.0, max_value=9.0, allow_nan=False))
    high = data.draw(st.floats(min_value=low, max_value=9.0, allow_nan=False))
    query = RangeQuery(weights=(x,), low=low, high=high)
    expected = sorted(
        record.record_id
        for record in dataset
        if low <= TEMPLATE.function_from_schema(record, dataset.attribute_names).evaluate((x,)) <= high
    )
    for system in _systems(dataset):
        execution, report = system.query_and_verify(query)
        assert report.is_valid, (system.scheme, report.failures)
        assert sorted(execution.result.record_ids()) == expected


@given(dataset=datasets, x=weights, data=st.data())
@settings(max_examples=25, deadline=None)
def test_knn_results_verify_and_are_nearest(dataset, x, data):
    k = data.draw(st.integers(min_value=1, max_value=len(dataset)))
    target = data.draw(st.floats(min_value=-2.0, max_value=12.0, allow_nan=False))
    query = KNNQuery(weights=(x,), k=k, target=target)
    scores = {
        record.record_id: TEMPLATE.function_from_schema(
            record, dataset.attribute_names
        ).evaluate((x,))
        for record in dataset
    }
    best = sorted(sorted(abs(s - target) for s in scores.values())[:k])
    for system in _systems(dataset):
        execution, report = system.query_and_verify(query)
        assert report.is_valid, (system.scheme, report.failures)
        got = sorted(abs(scores[i] - target) for i in execution.result.record_ids())
        assert len(got) == k
        for got_distance, best_distance in zip(got, best):
            assert abs(got_distance - best_distance) < 1e-7
