"""Tests for the FMH-tree (boundary tokens, window proofs)."""

import pytest

from repro.core.records import Record
from repro.crypto.hashing import HashFunction
from repro.merkle.fmh_tree import MAX_TOKEN, MIN_TOKEN, BoundaryEntry, FMHTree
from repro.queryproc.window import ResultWindow


@pytest.fixture()
def records():
    return [Record(record_id=i, values=(float(i), float(10 - i))) for i in range(8)]


@pytest.fixture()
def tree(records):
    return FMHTree(records)


def test_leaf_count_includes_tokens(tree, records):
    assert tree.item_count == len(records)
    assert tree.leaf_count == len(records) + 2


def test_leaf_index_offset(tree):
    assert tree.leaf_index_of_position(0) == 1
    assert tree.leaf_index_of_position(7) == 8


def test_root_is_deterministic(records):
    assert FMHTree(records).root == FMHTree(records).root


def test_root_changes_with_record_order(records):
    reordered = list(records)
    reordered[0], reordered[1] = reordered[1], reordered[0]
    assert FMHTree(reordered).root != FMHTree(records).root


def test_root_changes_with_record_contents(records):
    modified = list(records)
    modified[3] = Record(record_id=3, values=(3.0, 999.0))
    assert FMHTree(modified).root != FMHTree(records).root


def test_boundary_entry_validation(records):
    with pytest.raises(ValueError):
        BoundaryEntry(leaf_index=0)  # neither item nor token
    with pytest.raises(ValueError):
        BoundaryEntry(leaf_index=0, item=records[0], token="min")  # both
    with pytest.raises(ValueError):
        BoundaryEntry(leaf_index=0, token="middle")  # unknown token


def test_boundary_entry_bytes(records):
    assert BoundaryEntry(leaf_index=0, token="min").leaf_bytes() == MIN_TOKEN
    assert BoundaryEntry(leaf_index=9, token="max").leaf_bytes() == MAX_TOKEN
    entry = BoundaryEntry(leaf_index=1, item=records[0])
    assert entry.leaf_bytes() == records[0].to_bytes()
    assert not entry.is_token


@pytest.mark.parametrize("start,end", [(0, 7), (0, 0), (7, 7), (2, 5), (3, 2)])
def test_window_proofs_reconstruct_root(tree, records, start, end):
    window = ResultWindow(start=start, end=end, size=len(records))
    left, right, proof = tree.window_proof(window)
    result = records[start : end + 1] if start <= end else []
    assert FMHTree.root_from_window(result, left, right, proof) == tree.root


def test_window_at_extremes_uses_tokens(tree, records):
    window = ResultWindow(start=0, end=len(records) - 1, size=len(records))
    left, right, _proof = tree.window_proof(window)
    assert left.token == "min"
    assert right.token == "max"


def test_interior_window_uses_real_boundaries(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, _proof = tree.window_proof(window)
    assert left.item == records[1]
    assert right.item == records[5]


def test_window_proof_rejects_mismatched_size(tree, records):
    window = ResultWindow(start=0, end=1, size=len(records) + 3)
    with pytest.raises(ValueError):
        tree.window_proof(window)


def test_root_from_window_detects_forged_record(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, proof = tree.window_proof(window)
    forged = [Record(record_id=r.record_id, values=(r.values[0] + 1.0, r.values[1]))
              for r in records[2:5]]
    assert FMHTree.root_from_window(forged, left, right, proof) != tree.root


def test_root_from_window_detects_dropped_record(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, proof = tree.window_proof(window)
    with pytest.raises(ValueError):
        FMHTree.root_from_window(records[2:4], left, right, proof)


def test_root_from_window_detects_substituted_boundary(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, proof = tree.window_proof(window)
    fake_left = BoundaryEntry(leaf_index=left.leaf_index, item=records[0])
    assert FMHTree.root_from_window(records[2:5], fake_left, right, proof) != tree.root


def test_token_cannot_impersonate_record(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, proof = tree.window_proof(window)
    fake_left = BoundaryEntry(leaf_index=left.leaf_index, token="min")
    assert FMHTree.root_from_window(records[2:5], fake_left, right, proof) != tree.root


def test_hash_counter_used(records):
    from repro.metrics.counters import Counters

    counters = Counters()
    FMHTree(records, hash_function=HashFunction(counters))
    # 10 leaf hashes (8 records + 2 tokens) plus the internal combinations.
    assert counters.hash_operations >= 10


def test_single_record_tree(records):
    tree = FMHTree(records[:1])
    window = ResultWindow(start=0, end=0, size=1)
    left, right, proof = tree.window_proof(window)
    assert left.token == "min" and right.token == "max"
    assert FMHTree.root_from_window(records[:1], left, right, proof) == tree.root


def test_root_from_window_rejects_misanchored_proof(tree, records):
    """A proof for a different range than the boundaries claim is rejected."""
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, _proof = tree.window_proof(window)
    shifted = ResultWindow(start=3, end=5, size=len(records))
    _sl, _sr, shifted_proof = tree.window_proof(shifted)
    with pytest.raises(ValueError, match="does not anchor"):
        FMHTree.root_from_window(records[2:5], left, right, shifted_proof)


def test_root_from_window_rejects_single_shifted_boundary(tree, records):
    window = ResultWindow(start=2, end=4, size=len(records))
    left, right, proof = tree.window_proof(window)
    drifted = BoundaryEntry(leaf_index=right.leaf_index + 1, item=records[6])
    with pytest.raises(ValueError, match="does not anchor"):
        FMHTree.root_from_window(records[2:5], left, drifted, proof)
