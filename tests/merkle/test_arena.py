"""The array-backed forest arena must be observationally a MerkleTree.

The level-order batched builder (:class:`repro.merkle.arena.ForestHasher`)
and its lazy per-tree views must reproduce, bit for bit, the levels, roots,
proofs and counters of trees built leaf-up by :class:`MerkleTree` --
including the paper's odd-node carry rule at every awkward leaf count.
"""

import numpy as np
import pytest

from repro.crypto.hashing import HashFunction, sha256, sha256_many
from repro.merkle.arena import ArenaMerkleTree, ForestHasher
from repro.merkle.mh_tree import MerkleTree, level_sizes


def _payloads(count, tag=b"leaf"):
    return [b"%s-%d" % (tag, i) for i in range(count)]


def _forest_views(payload_rows, hash_function=None):
    """Build a forest over rows of payloads; return the lazy tree views."""
    hash_function = hash_function or HashFunction()
    hasher = ForestHasher()
    distinct = sorted({p for row in payload_rows for p in row})
    indices = hasher.intern_leaves(distinct, hash_function)
    index_of = {payload: int(index) for payload, index in zip(distinct, indices)}
    matrix = np.array([[index_of[p] for p in row] for row in payload_rows], dtype=np.int64)
    roots = hasher.build_forest(matrix, hash_function)
    arena = hasher.finalize()
    return [
        ArenaMerkleTree(arena, int(root), matrix.shape[1], hash_function=hash_function)
        for root in roots
    ]


def test_sha256_many_matches_sha256():
    payloads = _payloads(7)
    assert sha256_many(payloads) == [sha256(p) for p in payloads]


def test_digest_batch_counts_logical_and_physical():
    hashes = HashFunction()
    hashes.digest_batch(_payloads(5))
    assert hashes.call_count == 5
    assert hashes.physical_count == 5


@pytest.mark.parametrize("leaf_count", list(range(1, 18)))
def test_single_tree_matches_merkle_tree_at_every_carry_shape(leaf_count):
    """Leaf counts 1..17 cover every odd-carry pattern up to depth 5."""
    payloads = _payloads(leaf_count)
    plain = MerkleTree([sha256(p) for p in payloads])
    (view,) = _forest_views([payloads])
    assert view.root == plain.root
    assert view.levels == plain.levels
    assert view.leaf_count == plain.leaf_count
    assert view.height == plain.height
    assert view.node_count == plain.node_count
    assert [len(level) for level in view.levels] == level_sizes(leaf_count)


@pytest.mark.parametrize("leaf_count", [2, 5, 9, 12])
def test_forest_of_permuted_rows_matches_per_tree_builds(leaf_count):
    """Adjacent-transposition rows (the IFMH shape) and full reversals."""
    base = _payloads(leaf_count)
    rows = [list(base)]
    for position in range(leaf_count - 1):
        row = list(rows[-1])
        row[position], row[position + 1] = row[position + 1], row[position]
        rows.append(row)
    rows.append(list(reversed(base)))
    views = _forest_views(rows)
    for row, view in zip(rows, views):
        plain = MerkleTree([sha256(p) for p in row])
        assert view.root == plain.root
        assert view.levels == plain.levels


@pytest.mark.parametrize(
    "leaf_count", list(range(1, 18)) + [31, 32, 33, 63, 64, 65]
)
def test_view_proofs_match_merkle_tree_proofs(leaf_count):
    """Every carry shape up to depth 5, plus both sides of 32 and 64.

    Proofs are read from the arena's child arrays: no proof, leaf read or
    rejected range may build the view's digest lists.
    """
    payloads = _payloads(leaf_count)
    plain = MerkleTree([sha256(p) for p in payloads])
    (view,) = _forest_views([payloads])
    for index in range(-leaf_count, leaf_count):
        assert view.leaf_hash(index) == plain.leaf_hash(index)
    for index in range(leaf_count):
        assert view.membership_proof(index) == plain.membership_proof(index)
        assert view._materialized is None
    for start in range(leaf_count):
        for end in range(start, leaf_count):
            assert view.range_proof(start, end) == plain.range_proof(start, end)
            assert view._materialized is None
    for bad in (leaf_count, -leaf_count - 1):
        with pytest.raises(IndexError):
            view.leaf_hash(bad)
        with pytest.raises(IndexError):
            plain.leaf_hash(bad)
    for start, end in ((-1, 0), (0, leaf_count), (1, 0)):
        with pytest.raises(IndexError) as from_view:
            view.range_proof(start, end)
        with pytest.raises(IndexError) as from_plain:
            plain.range_proof(start, end)
        assert str(from_view.value) == str(from_plain.value)
    with pytest.raises(IndexError, match="out of range"):
        view.membership_proof(leaf_count)
    assert view._materialized is None


def test_view_levels_are_lazy_and_cached():
    (view,) = _forest_views([_payloads(6)])
    assert view._materialized is None
    first = view.levels
    assert view._materialized is first
    assert view.levels is first


def test_forest_counts_one_logical_op_per_pair_slot():
    """Logical = what a per-tree build would count; physical = distinct work."""
    rows = [_payloads(5), _payloads(5)]  # identical trees: full structural sharing
    hashes = HashFunction()
    _forest_views(rows, hash_function=hashes)
    # Per tree: 5 leaf digests + pairs per level (2 + 1 + 1) = 9 logical ops.
    assert hashes.call_count == 2 * 9
    # Physically: 5 distinct leaves + 4 distinct internal nodes.
    assert hashes.physical_count == 5 + 4
    reference = HashFunction()
    MerkleTree([sha256(p) for p in _payloads(5)], hash_function=reference)
    assert reference.call_count == 4  # internal combines of one tree


def test_equal_valued_leaves_share_arena_nodes():
    """Duplicate payloads hash physically per payload but cons by value."""
    hashes = HashFunction()
    hasher = ForestHasher()
    indices = hasher.intern_leaves([b"dup", b"dup", b"other"], hashes)
    assert indices[0] == indices[1] != indices[2]
    assert hashes.physical_count == 3  # every payload is hashed once


def test_finalize_freezes_the_store():
    hashes = HashFunction()
    hasher = ForestHasher()
    hasher.intern_leaves(_payloads(3), hashes)
    hasher.finalize()
    with pytest.raises(RuntimeError, match="finalized"):
        hasher.intern_leaves(_payloads(1, tag=b"late"), hashes)
    with pytest.raises(RuntimeError, match="finalized"):
        hasher.build_forest(np.zeros((1, 3), dtype=np.int64), hashes)


def test_build_forest_rejects_bad_shapes():
    hashes = HashFunction()
    hasher = ForestHasher()
    hasher.intern_leaves(_payloads(2), hashes)
    with pytest.raises(ValueError, match="2-D"):
        hasher.build_forest(np.zeros(3, dtype=np.int64), hashes)
    with pytest.raises(ValueError, match="at least one leaf"):
        hasher.build_forest(np.zeros((2, 0), dtype=np.int64), hashes)


def test_stats_shape_matches_node_engine():
    hashes = HashFunction()
    hasher = ForestHasher()
    indices = hasher.intern_leaves(_payloads(4), hashes)
    matrix = np.array([[int(i) for i in indices]] * 2, dtype=np.int64)
    hasher.build_forest(matrix, hashes)
    stats = hasher.stats()
    assert stats["leaf_pool_entries"] == 4
    assert stats["leaf_pool_misses"] == 4
    assert stats["leaf_pool_hits"] == 2 * 4 - 4
    assert stats["distinct_internal_nodes"] == 3


def test_interned_leaf_digests_match_direct_hash():
    """The arena stores ``sha256(payload)`` at each interned leaf's index."""
    payloads = _payloads(6)
    hasher = ForestHasher()
    indices = hasher.intern_leaves(payloads, HashFunction())
    arena = hasher.finalize()
    for payload, index in zip(payloads, indices):
        assert arena.digest_bytes(int(index)) == sha256(payload)


def test_distinct_objects_with_equal_bytes_share_a_node():
    """Interning is by digest value, not by object identity."""
    first = b"".join([b"re", b"cord"])
    second = bytes(bytearray(b"record"))
    assert first == second and first is not second
    hasher = ForestHasher()
    indices = hasher.intern_leaves([first, second, memoryview(b"record").tobytes()], HashFunction())
    assert len(set(indices.tolist())) == 1
    assert len(hasher.finalize()) == 1


def test_leaves_interned_across_calls_share_nodes():
    """A payload seen by an earlier call maps to the node it got then."""
    hasher = ForestHasher()
    hashes = HashFunction()
    first = hasher.intern_leaves([b"a", b"b"], hashes)
    second = hasher.intern_leaves([b"b", b"c"], hashes)
    assert second[0] == first[1]
    assert second[1] not in first.tolist()
    # Every payload is digested (logically and physically) once per call.
    assert hashes.call_count == hashes.physical_count == 4
    assert len(hasher.finalize()) == 3


def test_interned_digests_credit_the_first_forest_leaf_level():
    """Leaf digests are counted once per (tree, leaf) slot, never twice."""
    payloads = _payloads(4)
    hashes = HashFunction()
    hasher = ForestHasher()
    indices = hasher.intern_leaves(payloads, hashes)
    matrix = np.array([[int(i) for i in indices]] * 3, dtype=np.int64)
    hasher.build_forest(matrix, hashes)
    # 3 trees x (4 leaf digests + 3 combines); physically 4 leaves + 3 nodes.
    assert hashes.call_count == 3 * (4 + 3)
    assert hashes.physical_count == 4 + 3
