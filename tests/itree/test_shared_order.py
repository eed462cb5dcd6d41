"""The shared 2-D permutation array behind every leaf's sorted order."""

import numpy as np
import pytest

from repro.itree.itree import ITree
from repro.itree.permutation import PermutedView, SharedFunctionOrder
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template
from tests.helpers import materialized_leaves


@pytest.fixture(params=["bulk", "incremental"])
def tree(request):
    workload = WorkloadConfig(n_records=12, dimension=1, seed=5)
    dataset = make_dataset(workload)
    template = make_template(workload)
    functions = template.functions_for(dataset)
    return ITree(functions, template.domain, builder=request.param)


def test_every_leaf_holds_a_view_into_the_shared_array(tree):
    shared = tree.shared_order
    assert shared is not None
    assert shared.leaf_count == tree.subdomain_count
    for leaf in materialized_leaves(tree):
        view = leaf.sorted_functions
        assert isinstance(view, PermutedView)
        assert view.base is shared.functions
        # The view borrows (not copies) its row of the shared array.
        assert view.row.base is shared.permutation
        np.testing.assert_array_equal(view.row, shared.permutation[view.row_index])


def test_views_behave_like_the_old_lists(tree):
    for leaf in materialized_leaves(tree):
        view = leaf.sorted_functions
        materialized = list(view)
        assert len(view) == len(materialized)
        assert [f.index for f in view] == [f.index for f in materialized]
        assert view[0] is materialized[0]
        assert view[-1] is materialized[-1]
        assert view[1:3] == materialized[1:3]


def test_each_row_is_a_permutation_sorted_at_the_witness(tree):
    shared = tree.shared_order
    n = shared.function_count
    for leaf in materialized_leaves(tree):
        row = leaf.sorted_functions.row
        assert sorted(row.tolist()) == list(range(n))
        scores = [f.evaluate(leaf.witness) for f in leaf.sorted_functions]
        assert scores == sorted(scores)


def test_coefficient_arrays_match_function_objects(tree):
    shared = tree.shared_order
    for position, function in enumerate(shared.functions):
        assert tuple(shared.coefficient_matrix[position]) == function.coefficients
        assert shared.constant_vector[position] == function.constant


def test_permuted_helper_validates_length(tree):
    shared = tree.shared_order
    with pytest.raises(ValueError, match="entries"):
        shared.permuted([object()], 0)


def test_shared_order_rejects_mismatched_shapes():
    workload = WorkloadConfig(n_records=4, dimension=1, seed=0)
    template = make_template(workload)
    functions = template.functions_for(make_dataset(workload))
    with pytest.raises(ValueError, match="does not cover"):
        SharedFunctionOrder(functions, np.zeros((2, 3), dtype=np.int32))


def test_counts_are_cached_and_correct(tree):
    walked_subdomains = sum(1 for _ in tree.leaves())
    walked_nodes = sum(1 for _ in tree.root.iter_subtree())
    assert tree.subdomain_count == walked_subdomains
    assert tree.node_count == walked_nodes
    assert tree._subdomain_count == walked_subdomains
    assert tree._node_count == walked_nodes


def test_bulk_and_incremental_orders_agree():
    workload = WorkloadConfig(n_records=10, dimension=1, seed=9)
    dataset = make_dataset(workload)
    template = make_template(workload)
    functions = template.functions_for(dataset)
    bulk = ITree(functions, template.domain, builder="bulk")
    incremental = ITree(functions, template.domain, builder="incremental")
    bulk_orders = sorted(
        tuple(f.index for f in leaf.sorted_functions) for leaf in materialized_leaves(bulk)
    )
    incremental_orders = sorted(
        tuple(f.index for f in leaf.sorted_functions) for leaf in incremental.leaves()
    )
    assert bulk_orders == incremental_orders