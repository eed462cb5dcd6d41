"""Tests for the generic Merkle hash tree (odd-node carry, proofs)."""

import pytest

from repro.crypto.hashing import HashFunction, sha256
from repro.merkle.mh_tree import (
    MerkleTree,
    level_sizes,
    membership_proof_nodes,
    range_proof_nodes,
)
from repro.metrics.counters import Counters


def _leaves(count):
    return [sha256(bytes([i])) for i in range(count)]


def test_level_sizes():
    assert level_sizes(1) == [1]
    assert level_sizes(2) == [2, 1]
    assert level_sizes(5) == [5, 3, 2, 1]
    assert level_sizes(8) == [8, 4, 2, 1]


def test_level_sizes_rejects_zero():
    with pytest.raises(ValueError):
        level_sizes(0)


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        MerkleTree([])


def test_single_leaf_is_its_own_root():
    leaves = _leaves(1)
    tree = MerkleTree(leaves)
    assert tree.root == leaves[0]
    assert tree.height == 1
    assert tree.node_count == 1


def test_two_leaves_root_is_combined_hash():
    leaves = _leaves(2)
    tree = MerkleTree(leaves)
    assert tree.root == HashFunction().combine(leaves[0], leaves[1])


def test_odd_carry_shape():
    """With 3 leaves the last leaf is carried, so root = H(H(l0|l1) | l2)."""
    leaves = _leaves(3)
    tree = MerkleTree(leaves)
    h = HashFunction()
    assert tree.root == h.combine(h.combine(leaves[0], leaves[1]), leaves[2])


def test_levels_follow_level_sizes():
    for count in (1, 2, 3, 5, 9, 16, 33):
        tree = MerkleTree(_leaves(count))
        assert [len(level) for level in tree.levels] == level_sizes(count)


def test_root_changes_when_any_leaf_changes():
    leaves = _leaves(9)
    baseline = MerkleTree(leaves).root
    for position in range(9):
        tampered = list(leaves)
        tampered[position] = sha256(b"tampered")
        assert MerkleTree(tampered).root != baseline


def test_root_changes_when_leaves_swap():
    leaves = _leaves(6)
    swapped = list(leaves)
    swapped[1], swapped[4] = swapped[4], swapped[1]
    assert MerkleTree(swapped).root != MerkleTree(leaves).root


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 13])
def test_membership_proofs_verify_for_every_leaf(count):
    leaves = _leaves(count)
    tree = MerkleTree(leaves)
    for index in range(count):
        proof = tree.membership_proof(index)
        assert MerkleTree.root_from_membership(leaves[index], proof) == tree.root


def test_membership_proof_rejects_wrong_leaf():
    leaves = _leaves(8)
    tree = MerkleTree(leaves)
    proof = tree.membership_proof(3)
    assert MerkleTree.root_from_membership(sha256(b"imposter"), proof) != tree.root


def test_membership_proof_out_of_range():
    tree = MerkleTree(_leaves(4))
    with pytest.raises(IndexError):
        tree.membership_proof(4)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 13])
def test_range_proofs_verify_for_every_range(count):
    leaves = _leaves(count)
    tree = MerkleTree(leaves)
    for start in range(count):
        for end in range(start, count):
            proof = tree.range_proof(start, end)
            root = MerkleTree.root_from_range(leaves[start : end + 1], proof)
            assert root == tree.root


def test_range_proof_rejects_modified_leaf():
    leaves = _leaves(10)
    tree = MerkleTree(leaves)
    proof = tree.range_proof(2, 6)
    window = leaves[2:7]
    window[2] = sha256(b"forged")
    assert MerkleTree.root_from_range(window, proof) != tree.root


def test_range_proof_rejects_wrong_leaf_count():
    leaves = _leaves(10)
    tree = MerkleTree(leaves)
    proof = tree.range_proof(2, 6)
    with pytest.raises(ValueError):
        MerkleTree.root_from_range(leaves[2:6], proof)


def test_range_proof_out_of_bounds():
    tree = MerkleTree(_leaves(4))
    with pytest.raises(IndexError):
        tree.range_proof(2, 4)


def _range_nodes_by_closure(start, end, leaf_count):
    """Reference: every off-range sibling of the known set, level by level.

    The known set starts as the proven leaves; at each level every known
    node whose sibling is unknown (and which is not carried) ships that
    sibling, and the parents become the next level's known set.
    """
    nodes = []
    known = set(range(start, end + 1))
    for level, size in enumerate(level_sizes(leaf_count)[:-1]):
        for index in sorted(known):
            if index == size - 1 and size % 2 == 1:
                continue
            sibling = index ^ 1
            if sibling not in known:
                nodes.append((level, sibling))
                known.add(sibling)
        known = {index // 2 for index in known}
    return nodes


@pytest.mark.parametrize("count", list(range(1, 41)))
def test_proof_node_rules_match_the_closure_walk(count):
    """The two-ends supplement rule is the known-set closure, node for node."""
    for start in range(count):
        assert membership_proof_nodes(start, count) == _range_nodes_by_closure(
            start, start, count
        )
        for end in range(start, count):
            assert range_proof_nodes(start, end, count) == _range_nodes_by_closure(
                start, end, count
            )


def test_range_proof_node_count_is_logarithmic():
    leaves = _leaves(64)
    tree = MerkleTree(leaves)
    proof = tree.range_proof(30, 33)
    # Two boundary paths: far fewer hashes than the 60 off-range leaves.
    assert proof.node_count() <= 12


def test_hash_counter_is_used_during_build():
    counters = Counters()
    MerkleTree(_leaves(8), hash_function=HashFunction(counters))
    assert counters.hash_operations == 7  # 4 + 2 + 1 parent combinations
