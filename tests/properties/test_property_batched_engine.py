"""The level-order batched engine must be observationally invisible.

These tests compare full IFMH builds through the batched forest engine with
the naive reference (:func:`repro.reference.naive_ifmh_tree`, one list-based
FMH-tree per subdomain): roots, per-subdomain FMH roots and levels,
subdomain digests, verification objects and client verdicts must be
bit-identical and the *logical* hash counters (what Fig. 5a/7a report)
equal.  The engine's node statistics -- interned leaves and distinct
internal nodes, which is what it hashes physically -- must equal the node
counts of the naive forest folded into one arena by value
(:func:`repro.reference.arena_from_level_trees`), and its *physical* hash
counter must equal those counts plus one propagation hash per I-tree
intersection node: batching changes how the hashes are scheduled, not which
hashes exist.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, UtilityTemplate
from repro.core.server import Server
from repro.crypto.hashing import HashFunction, sha256
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE
from repro.merkle.arena import ArenaMerkleTree, ForestHasher
from repro.merkle.mh_tree import MerkleTree
from repro.reference import arena_from_level_trees
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

from tests.helpers import (
    assert_queries_bit_identical,
    naive_and_engine_builds,
    naive_reference_pair,
)


def _assert_identical(trees, counters):
    """Roots, FMH levels and logical counts equal; engine stats match the naive forest.

    The builds are unsigned, so the engine's physical hashes are its
    interned leaves, its distinct internal nodes and one hash per I-tree
    intersection node (the propagation): the counter must equal that sum.
    """
    naive, batched = trees["naive"], trees["engine"]
    assert batched.root_hash == naive.root_hash
    for a, b in zip(batched.itree.leaves(), naive.itree.leaves()):
        assert a.hash_value == b.hash_value
        assert a.fmh_tree.tree.levels == b.fmh_tree.tree.levels
    assert counters["engine"].hash_operations == counters["naive"].hash_operations
    arena, _roots = arena_from_level_trees(
        [leaf.fmh_tree.tree for leaf in naive.itree.leaves()]
    )
    stats = batched.merkle_engine_stats
    assert stats["leaf_pool_entries"] == int(np.count_nonzero(arena.left < 0))
    assert stats["distinct_internal_nodes"] == int(np.count_nonzero(arena.left >= 0))
    intersections = sum(1 for node in naive.itree.root.iter_subtree() if node.is_intersection)
    assert counters["engine"].physical_hash_operations == (
        stats["leaf_pool_entries"] + stats["distinct_internal_nodes"] + intersections
    )


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_roots_digests_levels_and_counters_identical(
    univariate_dataset, univariate_template, mode
):
    trees, counters = naive_and_engine_builds(
        univariate_dataset, univariate_template, scheme=mode
    )
    _assert_identical(trees, counters)
    naive, batched = trees["naive"], trees["engine"]
    for a, b in zip(batched.itree.leaves(), naive.itree.leaves()):
        assert batched.subdomain_digest(a) == naive.subdomain_digest(b)


def test_incremental_builder_also_batches(univariate_dataset, univariate_template):
    """The batched path covers the paper's incremental I-tree too."""
    trees, counters = naive_and_engine_builds(
        univariate_dataset, univariate_template, build_mode="incremental"
    )
    _assert_identical(trees, counters)


def test_multivariate_lp_path_also_batches(applicant_dataset, bivariate_template):
    """d >= 2 (LP engine, incremental insertion): still bit-identical."""
    trees, counters = naive_and_engine_builds(applicant_dataset, bivariate_template)
    _assert_identical(trees, counters)


@pytest.mark.parametrize("scheme", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_vos_and_client_verdicts_identical_end_to_end(scheme):
    """Same queries against both builds: identical VOs, both verify."""
    workload = WorkloadConfig(n_records=25, dimension=1, seed=2)
    owner = DataOwner(
        make_dataset(workload),
        make_template(workload),
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(17),
    )
    queries = [
        TopKQuery(weights=(0.4,), k=5),
        RangeQuery(weights=(0.6,), low=1.0, high=7.0),
        KNNQuery(weights=(0.2,), k=3, target=4.0),
    ]
    assert_queries_bit_identical(
        naive_reference_pair(owner),
        (Server(owner.outsource()), Client(owner.public_parameters())),
        queries,
    )


@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(
                lambda v: round(v, 2)
            ),
            st.floats(min_value=0.0, max_value=6.0, allow_nan=False).map(
                lambda v: round(v, 2)
            ),
        ),
        min_size=1,
        max_size=14,
    )
)
@settings(max_examples=25, deadline=None)
def test_property_batched_and_naive_builds_agree(rows):
    """Adversarial leaf counts and tied slopes: batching stays invisible.

    The leaf counts ``len(rows) + 2`` sweep through every odd-carry shape
    from 3 to 16 leaves, and duplicate rows exercise equal-scoring records
    (distinct leaf digests -- the record id is part of the encoding -- but
    tied sort positions).
    """
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(1.0,)),
        constant_attribute="baseline",
    )
    trees, counters = naive_and_engine_builds(dataset, template)
    _assert_identical(trees, counters)


def _draw_range(data, leaf_count):
    start = data.draw(st.integers(0, leaf_count - 1), label="start")
    end = data.draw(st.integers(start, leaf_count - 1), label="end")
    return start, end


@given(
    leaf_count=st.one_of(st.integers(1, 40), st.sampled_from([63, 64, 65, 127, 128, 129])),
    tree_count=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_property_forest_matches_per_tree_merkle_builds(leaf_count, tree_count, data):
    """Random permuted forests at every carry shape match MerkleTree.

    Proofs are compared first: they are read from the arena and must leave
    the view's digest lists unbuilt.
    """
    payloads = [b"record-%d" % i for i in range(leaf_count)]
    rows = [
        data.draw(st.permutations(payloads), label=f"row-{t}") for t in range(tree_count)
    ]
    hashes = HashFunction()
    hasher = ForestHasher()
    indices = hasher.intern_leaves(payloads, hashes)
    index_of = {payload: int(index) for payload, index in zip(payloads, indices)}
    matrix = np.array([[index_of[p] for p in row] for row in rows], dtype=np.int64)
    roots = hasher.build_forest(matrix, hashes)
    arena = hasher.finalize()
    for row, root in zip(rows, roots.tolist()):
        plain = MerkleTree([sha256(p) for p in row])
        view = ArenaMerkleTree(arena, root, leaf_count)
        start, end = _draw_range(data, leaf_count)
        assert view.range_proof(start, end) == plain.range_proof(start, end)
        assert view.membership_proof(start) == plain.membership_proof(start)
        assert view._materialized is None
        assert view.root == plain.root
        assert view.levels == plain.levels


@given(
    leaf_counts=st.lists(st.integers(1, 33), min_size=1, max_size=5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_property_level_tree_arena_proofs_match_merkle_tree(leaf_counts, data):
    """Trees folded into an arena by value (the reference) prove the same."""
    payloads = [b"payload-%d" % i for i in range(6)]
    trees = [
        MerkleTree(
            [
                sha256(data.draw(st.sampled_from(payloads), label="leaf"))
                for _ in range(leaf_count)
            ]
        )
        for leaf_count in leaf_counts
    ]
    arena, roots = arena_from_level_trees(trees)
    for tree, root in zip(trees, roots.tolist()):
        view = ArenaMerkleTree(arena, root, tree.leaf_count)
        start, end = _draw_range(data, tree.leaf_count)
        assert view.range_proof(start, end) == tree.range_proof(start, end)
        assert view._materialized is None


@pytest.mark.slow
def test_thousand_record_end_to_end_smoke():
    """n = 1000: batched construction, query processing and verification.

    A naive reference build at this scale takes minutes; this smoke proves
    the batched ADS itself serves verifiable queries at thousand-record
    scale.
    """
    workload = WorkloadConfig(n_records=1000, dimension=1, seed=0)
    dataset, template = make_dataset(workload), make_template(workload)
    owner = DataOwner(
        dataset,
        template,
        config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac"),
        rng=random.Random(3),
    )
    server = Server(owner.outsource())
    client = Client(owner.public_parameters())
    queries = [
        TopKQuery(weights=(0.31,), k=10),
        RangeQuery(weights=(0.62,), low=2.0, high=2.2),
        KNNQuery(weights=(0.93,), k=5, target=5.0),
    ]
    for query in queries:
        execution = server.execute(query)
        report = client.verify(query, execution.result, execution.verification_object)
        assert report.is_valid, report.failures
    assert owner.ads.subdomain_count > 100_000