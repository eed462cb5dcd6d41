"""Tests for I-tree construction and search."""

import random

import pytest

from repro.core.errors import ConstructionError, QueryProcessingError
from repro.geometry.arrangement import build_arrangement
from repro.geometry.domain import Domain
from repro.geometry.functions import LinearFunction
from repro.itree.itree import ITree
from repro.metrics.counters import Counters
from tests.helpers import materialized_leaves, searched_leaf


def _univariate_functions(count, seed=0):
    rng = random.Random(seed)
    return [
        LinearFunction(index=i, coefficients=(rng.uniform(-3, 3),), constant=rng.uniform(0, 6))
        for i in range(count)
    ]


@pytest.fixture()
def domain():
    return Domain(lower=(0.0,), upper=(2.0,))


@pytest.fixture()
def functions():
    return _univariate_functions(8, seed=5)


@pytest.fixture()
def tree(functions, domain):
    return ITree(functions, domain)


def test_leaves_match_arrangement_cell_count(functions, domain, tree):
    arrangement = build_arrangement(functions, domain)
    assert tree.subdomain_count == arrangement.size


def test_every_leaf_order_matches_arrangement(functions, domain, tree):
    arrangement = build_arrangement(functions, domain)
    for leaf in materialized_leaves(tree):
        cell = arrangement.locate(leaf.witness)
        assert [f.index for f in leaf.sorted_functions] == cell.sorted_indices()


def test_leaves_have_witness_and_ids(tree):
    ids = set()
    for leaf in materialized_leaves(tree):
        assert leaf.witness is not None
        assert leaf.region.contains(leaf.witness)
        assert leaf.subdomain_id is not None
        ids.add(leaf.subdomain_id)
    assert ids == set(range(tree.subdomain_count))


def test_node_count_is_internal_plus_leaves(tree):
    internal = sum(1 for _ in tree.internal_nodes())
    assert tree.node_count == internal + tree.subdomain_count
    # A full binary tree has exactly one more leaf than internal node.
    assert tree.subdomain_count == internal + 1


def test_search_finds_containing_subdomain(functions, domain, tree):
    rng = random.Random(3)
    arrangement = build_arrangement(functions, domain)
    for _ in range(25):
        weights = (rng.uniform(0.0, 2.0),)
        leaf = searched_leaf(tree, weights)
        assert leaf.region.contains(weights)
        cell = arrangement.locate(weights)
        assert [f.index for f in leaf.sorted_functions] == cell.sorted_indices()


def test_search_trace_structure(tree):
    trace = tree.search((1.3,))
    assert trace.depth == len(trace.steps)
    assert trace.visited_nodes() == 2 * trace.depth + 1
    for step in trace.steps:
        assert step.node.is_intersection
        assert step.taken is not step.sibling
        assert {id(step.taken), id(step.sibling)} == {id(step.node.above), id(step.node.below)}


def test_search_counts_nodes(tree):
    counters = Counters()
    trace = tree.search((0.4,), counters=counters)
    assert counters.nodes_traversed == trace.visited_nodes()
    assert counters.comparisons == trace.depth


def test_search_outside_domain_rejected(tree):
    with pytest.raises(QueryProcessingError):
        tree.search((5.0,))


def test_locate_returns_leaf(tree):
    leaf = tree.locate((0.9,))
    assert leaf.is_subdomain


def test_height_bounds(tree):
    assert 1 <= tree.height() <= tree.subdomain_count


def test_insertion_checks_positive(tree):
    assert tree.insertion_checks > 0


def test_single_function_tree(domain):
    tree = ITree([LinearFunction(index=0, coefficients=(1.0,))], domain)
    assert tree.subdomain_count == 1
    assert tree.height() == 0
    assert tree.root.is_subdomain


def test_parallel_functions_never_split(domain):
    functions = [
        LinearFunction(index=0, coefficients=(1.0,), constant=0.0),
        LinearFunction(index=1, coefficients=(1.0,), constant=2.0),
        LinearFunction(index=2, coefficients=(1.0,), constant=4.0),
    ]
    tree = ITree(functions, domain)
    assert tree.subdomain_count == 1
    (leaf,) = materialized_leaves(tree)
    assert leaf is tree.root
    assert [f.index for f in leaf.sorted_functions] == [0, 1, 2]


@pytest.mark.parametrize("builder", ["bulk", "incremental"])
def test_duplicate_function_index_rejected(domain, builder):
    """Two functions sharing an ``index`` would corrupt the shared sorted
    order (the permutation stores positions keyed on it); the build must
    refuse and name the duplicate."""
    functions = _univariate_functions(4, seed=5)
    clash = LinearFunction(index=2, coefficients=(1.5,), constant=0.25)
    with pytest.raises(ConstructionError, match="duplicate function index 2"):
        ITree(functions + [clash], domain, builder=builder)


def test_empty_function_set_rejected(domain):
    with pytest.raises(ConstructionError):
        ITree([], domain)


def test_dimension_mismatch_rejected(domain):
    functions = [LinearFunction(index=0, coefficients=(1.0, 2.0))]
    with pytest.raises(ConstructionError):
        ITree(functions, domain)


def test_mixed_dimension_functions_rejected(domain):
    functions = [
        LinearFunction(index=0, coefficients=(1.0,)),
        LinearFunction(index=1, coefficients=(1.0, 2.0)),
    ]
    with pytest.raises(ConstructionError):
        ITree(functions, domain)


def test_bivariate_tree_matches_arrangement():
    rng = random.Random(9)
    functions = [
        LinearFunction(index=i, coefficients=(rng.uniform(0, 3), rng.uniform(0, 3)),
                       constant=rng.uniform(0, 1))
        for i in range(5)
    ]
    domain = Domain.unit_box(2)
    tree = ITree(functions, domain)
    arrangement = build_arrangement(functions, domain)
    assert tree.subdomain_count == arrangement.size
    weights = (0.35, 0.65)
    trace = tree.search(weights)
    assert [f.index for f in trace.leaf.sorted_functions] == arrangement.locate(weights).sorted_indices()
