"""The forest builder's pair cache must never change what a tree computes.

:class:`~repro.merkle.arena.ForestHasher` conses every internal node by
its ``(left, right)`` child pair, and the table lives as long as the
hasher: a second :meth:`~repro.merkle.arena.ForestHasher.build_forest`
call on the same instance answers every pair it has seen from the cache.
These tests pin the contract: for any leaf multiset -- including every
odd-carry shape from 1 to 17 leaves -- a warm rebuild returns the cold
build's nodes, its views prove exactly what a list-based
:class:`~repro.merkle.mh_tree.MerkleTree` proves, the *logical* hash count
is unchanged, and only genuinely new pairs are hashed physically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import HashFunction, sha256
from repro.merkle.arena import ArenaMerkleTree, ForestHasher
from repro.merkle.mh_tree import MerkleTree


def _payloads(count, tag=b"leaf"):
    return [b"%s-%d" % (tag, i) for i in range(count)]


def _leaf_row(hasher, payloads, hash_function):
    """Intern ``payloads`` and return them as a one-tree leaf matrix."""
    indices = hasher.intern_leaves(payloads, hash_function)
    return np.asarray([indices], dtype=np.int64)


@pytest.mark.parametrize("count", list(range(1, 18)))
def test_warm_rebuild_is_bit_identical(count):
    """A warm rebuild returns the cold root node; its proofs match MerkleTree."""
    payloads = _payloads(count)
    hasher = ForestHasher()
    matrix = _leaf_row(hasher, payloads, HashFunction())
    (cold_root,) = hasher.build_forest(matrix, HashFunction())
    (warm_root,) = hasher.build_forest(matrix, HashFunction())
    assert warm_root == cold_root
    arena = hasher.finalize()
    view = ArenaMerkleTree(arena, int(warm_root), count)
    plain = MerkleTree([sha256(p) for p in payloads])
    assert view.root == plain.root
    assert view.levels == plain.levels
    for index in range(count):
        assert view.membership_proof(index) == plain.membership_proof(index)
    for start in range(count):
        for end in range(start, count):
            assert view.range_proof(start, end) == plain.range_proof(start, end)


@pytest.mark.parametrize("count", list(range(1, 18)))
def test_warm_rebuild_logical_count_unchanged(count):
    """Cache hits still count as logical operations (figure counters stable)."""
    payloads = _payloads(count)
    plain = HashFunction()
    MerkleTree([sha256(p) for p in payloads], hash_function=plain)
    hasher = ForestHasher()
    cold = HashFunction()
    matrix = _leaf_row(hasher, payloads, cold)
    hasher.build_forest(matrix, cold)
    warm = HashFunction()
    hasher.build_forest(matrix, warm)
    # One logical operation per leaf digest plus every internal combine,
    # exactly what a per-tree build over the payloads counts.
    assert cold.call_count == warm.call_count == count + plain.call_count
    assert cold.physical_count == count + plain.physical_count
    # A warm pair cache answers every internal node without hashing.
    assert warm.physical_count == 0


def test_warm_cache_hashes_only_the_changed_path():
    """Two trees differing in one leaf share all but one path's nodes."""
    payloads = _payloads(16)
    hasher = ForestHasher()
    first = HashFunction()
    hasher.build_forest(_leaf_row(hasher, payloads, first), first)
    assert first.physical_count == 16 + 15  # cold: every leaf and internal node

    changed = list(payloads)
    changed[7] = b"changed"
    second = HashFunction()
    (root,) = hasher.build_forest(_leaf_row(hasher, changed, second), second)
    # The 16 leaves are digested again; only the log2(16) = 4 nodes on the
    # changed leaf's path are new internal nodes.
    assert second.physical_count == 16 + 4
    assert second.call_count == 16 + 15
    assert hasher.stats()["distinct_internal_nodes"] == 15 + 4
    view = ArenaMerkleTree(hasher.finalize(), int(root), 16)
    assert view.root == MerkleTree([sha256(p) for p in changed]).root


def test_carried_nodes_never_enter_the_pair_cache():
    """Odd-carry nodes are not hashed, so they are never consed as pairs."""
    payloads = _payloads(5)
    hasher = ForestHasher()
    hashes = HashFunction()
    (root,) = hasher.build_forest(_leaf_row(hasher, payloads, hashes), hashes)
    # 5 leaves: levels 5-3-2-1 with carries at levels 0 and 1 -> 4 combines.
    assert hasher.stats()["distinct_internal_nodes"] == 4
    assert hashes.physical_count == 5 + 4
    view = ArenaMerkleTree(hasher.finalize(), int(root), 5)
    assert view.root == MerkleTree([sha256(p) for p in payloads]).root


payload_sets = st.lists(st.binary(min_size=0, max_size=8), min_size=1, max_size=40)


@given(payloads=payload_sets, other=payload_sets)
@settings(max_examples=80, deadline=None)
def test_property_shared_pair_cache_never_changes_roots_or_counts(payloads, other):
    """A pair cache shared across arbitrary trees is invisible to results.

    Builds two unrelated trees through one hasher (duplicated leaves,
    adversarial sizes, shared subtrees between the two) and checks both
    against fresh list-based builds, including the logical-count invariant.
    """
    hasher = ForestHasher()
    built = []
    for row in (payloads, other, payloads):
        forest_hash = HashFunction()
        (root,) = hasher.build_forest(_leaf_row(hasher, row, forest_hash), forest_hash)
        plain_hash = HashFunction()
        plain = MerkleTree([sha256(p) for p in row], hash_function=plain_hash)
        assert forest_hash.call_count == len(row) + plain_hash.call_count
        assert forest_hash.physical_count <= len(row) + plain_hash.physical_count
        built.append((int(root), row, plain))
    arena = hasher.finalize()
    for root, row, plain in built:
        view = ArenaMerkleTree(arena, root, len(row))
        assert view.root == plain.root
        assert view.levels == plain.levels
