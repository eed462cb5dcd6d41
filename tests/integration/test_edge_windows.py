"""End-to-end edge cases: empty result windows and KNN score ties.

Covers the completeness machinery on the boundaries of the sorted list:
range queries with zero hits below the minimum / above the maximum score, a
single-record database, and KNN tie-breaking when several records score
exactly the query target.  Every case runs the full pipeline (server
execution, VO construction, client verification) in both IFMH modes.
"""

import pytest

from repro.core.config import SystemConfig
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.protocol import OutsourcedSystem
from repro.core.records import Dataset, UtilityTemplate
from repro.geometry.domain import Domain
from repro.queryproc.range_query import range_window
from repro.queryproc.window import ResultWindow

MODES = ("one-signature", "multi-signature")


def _system(rows, scheme):
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(1.0,)),
        constant_attribute="baseline",
    )
    return OutsourcedSystem.setup(
        dataset, template, config=SystemConfig(scheme=scheme, signature_algorithm="hmac")
    )


@pytest.fixture(params=MODES)
def scheme(request):
    return request.param


ROWS = [(2.0, 1.0), (1.0, 3.0), (4.0, 2.0), (0.5, 5.0), (3.0, 4.0)]


# ------------------------------------------------------------ empty windows
def test_range_zero_hits_below_minimum_score(scheme):
    """Empty window at the left end of the sorted list (gap position 0)."""
    system = _system(ROWS, scheme)
    query = RangeQuery(weights=(0.5,), low=-10.0, high=-5.0)
    execution, report = system.query_and_verify(query)
    assert len(execution.result) == 0
    assert report.is_valid, report.failures


def test_range_zero_hits_above_maximum_score(scheme):
    """Empty window at the right end of the sorted list (gap position size)."""
    system = _system(ROWS, scheme)
    query = RangeQuery(weights=(0.5,), low=50.0, high=60.0)
    execution, report = system.query_and_verify(query)
    assert len(execution.result) == 0
    assert report.is_valid, report.failures


def test_range_zero_hits_interior_gap(scheme):
    system = _system([(1.0, 0.0), (1.0, 8.0)], scheme)
    # Scores at x=0.5 are 0.5 and 8.5; the range [2, 7] falls in the gap.
    query = RangeQuery(weights=(0.5,), low=2.0, high=7.0)
    execution, report = system.query_and_verify(query)
    assert len(execution.result) == 0
    assert report.is_valid, report.failures


def test_empty_at_boundary_positions_cover_list_edges():
    """ResultWindow.empty_at at both edges exposes the token boundaries."""
    at_left = ResultWindow.empty_at(0, 5)
    assert at_left.is_empty
    assert at_left.left_boundary_position == -1  # the "min" token
    assert at_left.right_boundary_position == 0
    at_right = ResultWindow.empty_at(5, 5)
    assert at_right.is_empty
    assert at_right.left_boundary_position == 4
    assert at_right.right_boundary_position == 5  # the "max" token
    assert range_window([1.0, 2.0, 3.0, 4.0, 5.0], -3.0, 0.0) == at_left
    assert range_window([1.0, 2.0, 3.0, 4.0, 5.0], 9.0, 11.0) == at_right


# ------------------------------------------------------ single-record data
def test_single_record_database_all_query_kinds(scheme):
    system = _system([(2.0, 3.0)], scheme)
    weights = (0.25,)
    for query in (
        TopKQuery(weights=weights, k=1),
        RangeQuery(weights=weights, low=0.0, high=10.0),
        KNNQuery(weights=weights, k=1, target=3.5),
    ):
        execution, report = system.query_and_verify(query)
        assert len(execution.result) == 1
        assert report.is_valid, report.failures


def test_single_record_database_empty_range(scheme):
    system = _system([(2.0, 3.0)], scheme)
    for low, high in ((-5.0, -1.0), (20.0, 30.0)):
        query = RangeQuery(weights=(0.25,), low=low, high=high)
        execution, report = system.query_and_verify(query)
        assert len(execution.result) == 0
        assert report.is_valid, report.failures


def test_single_record_topk_k_exceeds_database(scheme):
    system = _system([(2.0, 3.0)], scheme)
    execution, report = system.query_and_verify(TopKQuery(weights=(0.25,), k=5))
    assert len(execution.result) == 1
    assert report.is_valid, report.failures


# --------------------------------------------------------------- KNN ties
#: Three identical records (duplicate score functions) among two distinct ones.
TIED_ROWS = [(1.0, 2.0), (1.0, 2.0), (1.0, 2.0), (3.0, 0.0), (0.0, 6.0)]


def test_knn_ties_at_target_are_deterministic_and_verified(scheme):
    system = _system(TIED_ROWS, scheme)
    weights = (0.5,)
    target = 2.5  # exact score of the three duplicate records at x = 0.5
    for k in (1, 2, 3, 4):
        query = KNNQuery(weights=weights, k=k, target=target)
        execution, report = system.query_and_verify(query)
        assert len(execution.result) == k
        assert report.is_valid, report.failures


def test_knn_ties_resolve_by_record_order(scheme):
    """Duplicate-score records are returned in index order (sortability ties)."""
    system = _system(TIED_ROWS, scheme)
    query = KNNQuery(weights=(0.5,), k=2, target=2.5)
    execution, report = system.query_and_verify(query)
    returned = [record.record_id for record in execution.result.records]
    # The duplicates occupy the first three sorted positions (ties broken by
    # record index); a window of two exact hits must be a prefix of them.
    assert returned == sorted(returned)
    assert set(returned).issubset({0, 1, 2})
    assert report.is_valid, report.failures


def test_knn_target_tied_with_excluded_neighbour_still_complete(scheme):
    """The verifier's completeness recheck accepts the deterministic tie rule."""
    system = _system(TIED_ROWS, scheme)
    # k = 2 with three candidates at distance zero: one tied record stays
    # excluded, and the recheck must still accept (worst <= excluded distance).
    execution, report = system.query_and_verify(
        KNNQuery(weights=(0.5,), k=2, target=2.5)
    )
    assert report.is_valid, report.failures
    scores = {record.record_id for record in execution.result.records}
    assert len(scores) == 2
