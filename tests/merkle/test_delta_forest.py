"""DeltaForestHasher must equal a fresh ForestHasher, node for node.

Randomized differential test: build an arbitrary "old" forest, then an
arbitrary "new" forest expressed as change points against a seed arena,
and require every root digest and every materialized level to be
bit-identical to a from-scratch :class:`repro.merkle.arena.ForestHasher`
build of the new forest -- while the delta build only ever *appends* to
the seed arena.
"""

import hashlib
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import HashFunction
from repro.merkle.arena import ArenaMerkleTree, DeltaForestHasher, ForestHasher
from repro.merkle.mh_tree import MerkleTree


def _forest_rows(rng, n_trees, n_leaves, n_payloads):
    rows = []
    for tree in range(n_trees):
        if tree and rng.random() < 0.6:
            row = rows[-1].copy()
            for _ in range(rng.randrange(0, 3)):
                row[rng.randrange(n_leaves)] = rng.randrange(n_payloads)
        else:
            row = np.array([rng.randrange(n_payloads) for _ in range(n_leaves)])
        rows.append(row)
    return np.array(rows)


def test_delta_forest_matches_fresh_forest_hasher():
    rng = random.Random(0)
    for trial in range(150):
        n_leaves = rng.randrange(1, 12)
        n_trees_old = rng.randrange(1, 8)
        n_trees_new = rng.randrange(1, 8)
        n_payloads = rng.randrange(1, 9)
        payloads = [b"payload-%d" % index for index in range(n_payloads)]

        old_hasher = ForestHasher()
        old_hash = HashFunction()
        old_leaves = old_hasher.intern_leaves(payloads, old_hash)
        old_hasher.build_forest(
            old_leaves[_forest_rows(rng, n_trees_old, n_leaves, n_payloads)], old_hash
        )
        seed = old_hasher.finalize()
        seed_size = len(seed)

        new_matrix = _forest_rows(rng, n_trees_new, n_leaves, n_payloads)
        fresh_hasher = ForestHasher()
        fresh_hash = HashFunction()
        fresh_leaves = fresh_hasher.intern_leaves(payloads, fresh_hash)
        fresh_roots = fresh_hasher.build_forest(fresh_leaves[new_matrix], fresh_hash)
        fresh_arena = fresh_hasher.finalize()

        delta = DeltaForestHasher(seed)
        delta_hash = HashFunction()
        payload_index = np.array(
            [
                delta.leaf_index_of(hashlib.sha256(payload).digest())
                if delta.leaf_index_of(hashlib.sha256(payload).digest()) is not None
                else delta.intern_leaf(payload, delta_hash)
                for payload in payloads
            ],
            dtype=np.int64,
        )
        leaf_matrix = payload_index[new_matrix]
        changed = leaf_matrix[1:] != leaf_matrix[:-1]
        change_tree, change_col = np.nonzero(changed)
        roots = delta.build(
            leaf_matrix[0],
            (change_tree + 1).astype(np.int64),
            change_col.astype(np.int64),
            leaf_matrix[1:][changed].astype(np.int64),
            n_trees_new,
            delta_hash,
        )
        arena = delta.finalize()

        # Seed nodes are untouched (append-only growth).
        assert np.array_equal(arena.digests[:seed_size], seed.digests)
        assert np.array_equal(arena.left[:seed_size], seed.left)
        assert np.array_equal(arena.right[:seed_size], seed.right)

        for tree in range(n_trees_new):
            delta_view = ArenaMerkleTree(arena, int(roots[tree]), n_leaves)
            fresh_view = ArenaMerkleTree(fresh_arena, int(fresh_roots[tree]), n_leaves)
            assert delta_view.root == fresh_view.root, trial
            assert delta_view.levels == fresh_view.levels, trial


def test_delta_forest_redundant_entries_are_harmless():
    """Listed cells whose value does not change must not alter the forest."""
    payloads = [b"a", b"b", b"c"]
    hasher = ForestHasher()
    counting = HashFunction()
    leaves = hasher.intern_leaves(payloads, counting)
    matrix = leaves[np.array([[0, 1, 2, 0], [0, 1, 0, 0]])]
    hasher.build_forest(matrix, counting)
    seed = hasher.finalize()

    reference = DeltaForestHasher(seed)
    reference_roots = reference.build(
        matrix[0],
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.int64),
        np.array([matrix[1, 2]], dtype=np.int64),
        2,
        HashFunction(),
    )
    noisy = DeltaForestHasher(seed)
    noisy_roots = noisy.build(
        matrix[0],
        np.array([1, 1, 1], dtype=np.int64),
        np.array([0, 2, 3], dtype=np.int64),
        np.array([matrix[1, 0], matrix[1, 2], matrix[1, 3]], dtype=np.int64),
        2,
        HashFunction(),
    )
    reference_arena = reference.finalize()
    noisy_arena = noisy.finalize()
    assert [reference_arena.digest_bytes(int(r)) for r in reference_roots] == [
        noisy_arena.digest_bytes(int(r)) for r in noisy_roots
    ]


def test_delta_forest_reuses_pair_tables():
    """Carried sorted pair tables must behave exactly like derived ones."""
    payloads = [b"x", b"y"]
    hasher = ForestHasher()
    counting = HashFunction()
    leaves = hasher.intern_leaves(payloads, counting)
    matrix = leaves[np.array([[0, 1, 0], [1, 1, 0]])]
    hasher.build_forest(matrix, counting)
    seed = hasher.finalize()

    first = DeltaForestHasher(seed)
    first_roots = first.build(
        matrix[1], np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64),
        1, HashFunction(),
    )
    tables = first.sorted_pair_tables()
    arena = first.finalize()

    second = DeltaForestHasher(arena, pair_tables=tables)
    second_roots = second.build(
        matrix[0], np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64),
        1, HashFunction(),
    )
    second_arena = second.finalize()
    # The second build found everything in the carried tables: no growth,
    # and tree 0's root is the one the original forest already holds.
    assert len(second_arena) == len(arena)
    fresh = ForestHasher()
    fresh_hash = HashFunction()
    fresh_leaves = fresh.intern_leaves(payloads, fresh_hash)
    fresh_roots = fresh.build_forest(
        fresh_leaves[np.array([[0, 1, 0]])], fresh_hash
    )
    assert second_arena.digest_bytes(int(second_roots[0])) == fresh.finalize().digest_bytes(
        int(fresh_roots[0])
    )
    assert first_roots.shape == (1,)


@given(n_leaves=st.integers(min_value=1, max_value=24), data=st.data())
@settings(max_examples=50, deadline=None)
def test_property_delta_arena_proofs_match_merkle_tree(n_leaves, data):
    """Proofs read from an updated arena equal MerkleTree's over the new rows.

    Tree 0 of the new forest holds at least one payload the seed never saw,
    so its root path runs through appended nodes while its other leaves
    (and every pair the seed already holds) keep their seed indices.
    """
    payloads = [b"payload-%d" % index for index in range(5)]
    fresh = [b"fresh-%d" % index for index in range(3)]
    everything = payloads + fresh

    def rows(values, label):
        row = st.lists(values, min_size=n_leaves, max_size=n_leaves)
        return data.draw(st.lists(row, min_size=1, max_size=4), label=label)

    old_hasher = ForestHasher()
    old_hash = HashFunction()
    old_leaves = old_hasher.intern_leaves(payloads, old_hash)
    old_hasher.build_forest(
        old_leaves[np.array(rows(st.integers(0, 4), "old"), dtype=np.int64)], old_hash
    )
    seed = old_hasher.finalize()

    new_rows = rows(st.integers(0, 7), "new")
    position = data.draw(st.integers(0, n_leaves - 1), label="fresh position")
    new_rows[0][position] = 5 + data.draw(st.integers(0, 2), label="fresh payload")

    delta = DeltaForestHasher(seed)
    delta_hash = HashFunction()
    payload_index = np.array(
        [delta.leaf_index_of(hashlib.sha256(payload).digest()) for payload in payloads]
        + [delta.intern_leaf(payload, delta_hash) for payload in fresh],
        dtype=np.int64,
    )
    leaf_matrix = payload_index[np.array(new_rows, dtype=np.int64)]
    changed = leaf_matrix[1:] != leaf_matrix[:-1]
    change_tree, change_col = np.nonzero(changed)
    roots = delta.build(
        leaf_matrix[0],
        (change_tree + 1).astype(np.int64),
        change_col.astype(np.int64),
        leaf_matrix[1:][changed].astype(np.int64),
        len(new_rows),
        delta_hash,
    )
    arena = delta.finalize()
    first_tree = np.concatenate(arena.index_levels(int(roots[0]), n_leaves))
    assert (first_tree >= len(seed)).any()
    if n_leaves > 1 and set(new_rows[0]) & set(range(5)):
        assert (first_tree < len(seed)).any()

    for row, root in zip(new_rows, roots.tolist()):
        plain = MerkleTree([hashlib.sha256(everything[value]).digest() for value in row])
        view = ArenaMerkleTree(arena, root, n_leaves)
        start = data.draw(st.integers(0, n_leaves - 1), label="start")
        end = data.draw(st.integers(start, n_leaves - 1), label="end")
        assert view.range_proof(start, end) == plain.range_proof(start, end)
        assert view.membership_proof(end) == plain.membership_proof(end)
        assert view._materialized is None
