"""Property-based tests for the arrangement and I-tree (function sortability)."""

from hypothesis import given, settings, strategies as st

from repro.geometry.arrangement import build_arrangement
from repro.geometry.domain import Domain
from repro.geometry.functions import LinearFunction
from repro.itree.itree import ITree
from tests.helpers import searched_leaf

function_sets = st.lists(
    st.tuples(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
).map(
    lambda pairs: [
        LinearFunction(index=i, coefficients=(slope,), constant=intercept)
        for i, (slope, intercept) in enumerate(pairs)
    ]
)

DOMAIN = Domain(lower=(0.0,), upper=(1.0,))


@given(functions=function_sets)
@settings(max_examples=40, deadline=None)
def test_cells_tile_the_domain(functions):
    arrangement = build_arrangement(functions, DOMAIN)
    previous = DOMAIN.lower[0]
    for cell in arrangement.subdomains:
        assert abs(cell.region.interval_low - previous) < 1e-9
        previous = cell.region.interval_high
    assert abs(previous - DOMAIN.upper[0]) < 1e-9


@given(functions=function_sets, data=st.data())
@settings(max_examples=40, deadline=None)
def test_function_sortability_inside_each_cell(functions, data):
    """The sorted order fixed at the witness holds throughout the cell."""
    arrangement = build_arrangement(functions, DOMAIN)
    for cell in arrangement.subdomains:
        x = data.draw(
            st.floats(
                min_value=cell.region.interval_low,
                max_value=cell.region.interval_high,
                allow_nan=False,
            )
        )
        scores = [f.evaluate((x,)) for f in cell.sorted_functions]
        assert all(a <= b + 1e-7 for a, b in zip(scores, scores[1:]))


@given(functions=function_sets, data=st.data())
@settings(max_examples=40, deadline=None)
def test_itree_search_agrees_with_linear_scan(functions, data):
    arrangement = build_arrangement(functions, DOMAIN)
    tree = ITree(functions, DOMAIN)
    assert tree.subdomain_count == arrangement.size
    x = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    leaf = searched_leaf(tree, (x,))
    cell = arrangement.locate((x,))
    assert [f.index for f in leaf.sorted_functions] == cell.sorted_indices()


@given(functions=function_sets)
@settings(max_examples=30, deadline=None)
def test_itree_is_a_proper_binary_tree(functions):
    tree = ITree(functions, DOMAIN)
    internal = sum(1 for _ in tree.internal_nodes())
    assert tree.subdomain_count == internal + 1
    for node in tree.internal_nodes():
        assert node.above is not None and node.below is not None
