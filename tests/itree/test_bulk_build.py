"""Tests for the vectorized balanced bulk I-tree builder."""

import math
import random

import numpy as np
import pytest

from repro.core.errors import ConstructionError
from repro.geometry.arrangement import build_arrangement, univariate_breakpoints
from repro.geometry.domain import Domain
from repro.geometry.engine import IntervalEngine, LPEngine
from repro.geometry.functions import LinearFunction
from repro.itree.itree import ITree, encode_tree_arrays
from repro.reference import balanced_incremental_itree, median_first_order
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
    return _univariate_functions(10, seed=11)


def _partition(tree):
    return sorted(
        (
            leaf.region.interval_low,
            leaf.region.interval_high,
            tuple(f.index for f in leaf.sorted_functions),
        )
        for leaf in materialized_leaves(tree)
    )


STRUCTURE_COLUMNS = (
    "node_is_leaf",
    "hyper_i",
    "hyper_j",
    "hyper_normal",
    "hyper_offset",
    "leaf_witness",
    "leaf_row",
)


def _leaf_fingerprint(leaf):
    """Everything a subdomain leaf carries once materialised."""
    return (
        leaf.subdomain_id,
        leaf.region.constraints,
        leaf.region.interval_low,
        leaf.region.interval_high,
        leaf.witness,
        tuple(f.index for f in leaf.sorted_functions),
    )


def _assert_arrays_equal(actual, expected):
    assert list(actual) == list(expected)
    for name in expected:
        assert actual[name].dtype == expected[name].dtype, name
        np.testing.assert_array_equal(actual[name], expected[name], err_msg=name)


def _preorder_columns(tree):
    """The published structure columns, with each leaf's sorted row in
    pre-order-leaf order (the builders number permutation rows differently:
    the bulk builder by interval, the incremental one in pre-order)."""
    arrays = tree.to_arrays()
    columns = {name: arrays[name] for name in STRUCTURE_COLUMNS if name != "leaf_row"}
    columns["leaf_sorted_row"] = np.asarray(tree.shared_order.permutation)[arrays["leaf_row"]]
    return columns


def test_bulk_matches_incremental_partition(functions, domain):
    incremental = ITree(functions, domain, builder="incremental")
    bulk = ITree(functions, domain, builder="bulk")
    assert _partition(incremental) == _partition(bulk)


def test_bulk_matches_arrangement(functions, domain):
    bulk = ITree(functions, domain, builder="bulk")
    arrangement = build_arrangement(functions, domain)
    assert bulk.subdomain_count == arrangement.size
    for leaf in materialized_leaves(bulk):
        cell = arrangement.locate(leaf.witness)
        assert [f.index for f in leaf.sorted_functions] == cell.sorted_indices()


@pytest.mark.parametrize("count, seed", [(1, 0), (2, 1), (10, 11), (40, 3)])
def test_bulk_identical_to_balanced_incremental(count, seed, domain):
    """Direct assembly reproduces the BFS insertion fed the same order, bit for bit.

    The reference walks its nodes for every hyperplane (pre-order),
    witness and sorted row; the bulk tree writes its columns.  Every
    materialised leaf region, witness and sorted order must match too.
    """
    functions = _univariate_functions(count, seed=seed)
    bulk = ITree(functions, domain, builder="bulk")
    reference = balanced_incremental_itree(functions, domain)
    _assert_arrays_equal(_preorder_columns(bulk), _preorder_columns(reference))
    assert [_leaf_fingerprint(leaf) for leaf in materialized_leaves(bulk)] == [
        _leaf_fingerprint(leaf) for leaf in reference.leaves()
    ]
    assert bulk.height() == reference.height()
    assert bulk.node_count == reference.node_count


def test_bulk_columns_match_their_node_walk(domain):
    """What a bulk tree publishes is what its materialised nodes say."""
    bulk = ITree(_univariate_functions(25, seed=4), domain, builder="bulk")
    walked = encode_tree_arrays(
        bulk.walk_columns(), domain.dimension, bulk.shared_order.permutation
    )
    _assert_arrays_equal(bulk.to_arrays(), walked)


def test_bulk_tree_is_balanced(domain):
    functions = _univariate_functions(40, seed=3)
    bulk = ITree(functions, domain, builder="bulk")
    internal = sum(1 for _ in bulk.internal_nodes())
    if internal:
        assert bulk.height() <= math.ceil(math.log2(internal + 1)) + 1
    incremental = ITree(functions, domain, builder="incremental")
    assert bulk.height() <= incremental.height()


def test_bulk_search_agrees_with_incremental(functions, domain):
    incremental = ITree(functions, domain, builder="incremental")
    bulk = ITree(functions, domain, builder="bulk")
    rng = random.Random(5)
    for _ in range(50):
        weights = (rng.uniform(0.0, 2.0),)
        a = incremental.search(weights).leaf
        b = searched_leaf(bulk, weights)
        assert [f.index for f in a.sorted_functions] == [f.index for f in b.sorted_functions]


def test_bulk_classmethod_and_auto(functions, domain):
    assert ITree.bulk_build(functions, domain).builder == "bulk"
    assert ITree(functions, domain).builder == "bulk"  # auto resolves to bulk for d = 1
    assert ITree(functions, domain, builder="auto", engine=IntervalEngine()).builder == "bulk"


def test_auto_falls_back_to_incremental_for_lp_engine(functions, domain):
    tree = ITree(functions, domain, engine=LPEngine(), builder="auto")
    assert tree.builder == "incremental"


def test_bulk_rejected_for_multivariate():
    functions = [
        LinearFunction(index=0, coefficients=(1.0, 2.0)),
        LinearFunction(index=1, coefficients=(2.0, 1.0)),
    ]
    with pytest.raises(ConstructionError):
        ITree(functions, Domain.unit_box(2), builder="bulk")


def test_unknown_builder_rejected(functions, domain):
    with pytest.raises(ConstructionError):
        ITree(functions, domain, builder="bogus")


def test_bulk_single_function(domain):
    tree = ITree([LinearFunction(index=0, coefficients=(1.0,))], domain, builder="bulk")
    assert tree.subdomain_count == 1
    assert tree.root.is_subdomain
    (leaf,) = materialized_leaves(tree)
    assert [f.index for f in leaf.sorted_functions] == [0]


def test_bulk_parallel_functions_never_split(domain):
    functions = [
        LinearFunction(index=i, coefficients=(1.0,), constant=float(2 * i)) for i in range(3)
    ]
    tree = ITree(functions, domain, builder="bulk")
    assert tree.subdomain_count == 1
    (leaf,) = materialized_leaves(tree)
    assert [f.index for f in leaf.sorted_functions] == [0, 1, 2]


def test_bulk_leaf_ids_are_stable_range(functions, domain):
    bulk = ITree(functions, domain, builder="bulk")
    ids = [leaf.subdomain_id for leaf in bulk.leaves()]
    assert sorted(ids) == list(range(bulk.subdomain_count))


def test_bulk_insertion_checks_one_per_split(functions, domain):
    bulk = ITree(functions, domain, builder="bulk")
    internal = sum(1 for _ in bulk.internal_nodes())
    assert bulk.insertion_checks == internal


def test_univariate_breakpoints_match_pairwise_loop(functions):
    from repro.geometry.arrangement import pairwise_hyperplanes
    from repro.geometry.engine import IntervalEngine

    engine = IntervalEngine()
    expected = []
    for plane in pairwise_hyperplanes(functions):
        breakpoint = engine._breakpoint(plane)
        if breakpoint is not None:
            expected.append((plane.i, plane.j, breakpoint))
    breakpoints, left, right, _, _ = univariate_breakpoints(
        functions, slope_tolerance=engine.tolerance
    )
    indices = [f.index for f in functions]
    actual = [
        (indices[p], indices[q], b)
        for p, q, b in zip(left.tolist(), right.tolist(), breakpoints.tolist())
    ]
    assert actual == expected


def test_median_first_order_covers_all_indices():
    for count in (0, 1, 2, 7, 16):
        order = median_first_order(count)
        assert sorted(order) == list(range(count))


def test_tolerance_chain_dedup_matches_incremental():
    """Near-duplicate breakpoints survive by insertion order, not sorted order.

    Three crossings a < b < c with b-a <= tol, c-b <= tol but c-a > tol,
    where the *middle* breakpoint's pair comes first in pairwise order: the
    incremental build keeps only b (a and c land within tolerance of the b
    boundary), and the bulk plan must replay that drop rule rather than the
    naive sorted left-to-right one (which would keep {a, c}).
    """
    tol = 0.6e-9  # gaps of 0.6e-9: adjacent pairs within the 1e-9 tolerance
    b = 0.5
    a = b - tol
    functions = [
        LinearFunction(index=0, coefficients=(1.0,), constant=0.0),
        LinearFunction(index=1, coefficients=(-1.0,), constant=2 * b),  # x01 = b
        LinearFunction(index=2, coefficients=(0.0,), constant=a),  # x02 = a, x12 = 2b - a
    ]
    domain = Domain(lower=(0.0,), upper=(2.0,))
    incremental = ITree(functions, domain, builder="incremental")
    bulk = ITree(functions, domain, builder="bulk")
    assert incremental.subdomain_count == 2
    assert bulk.subdomain_count == incremental.subdomain_count
    assert _partition(incremental) == _partition(bulk)
