"""Per-tree Merkle levels folded into one shared arena, by value."""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.crypto.hashing import DIGEST_SIZE
from repro.merkle.arena import MerkleArena
from repro.merkle.mh_tree import MerkleTree

__all__ = ["arena_from_level_trees"]


def arena_from_level_trees(trees: Sequence[MerkleTree]) -> tuple[MerkleArena, np.ndarray]:
    """Fold materialized Merkle trees into one shared arena (no hashing).

    Purely by value: leaves are interned by digest, internal nodes by their
    ``(left, right)`` child indices -- the sharing rule of
    :class:`~repro.merkle.arena.ForestHasher` -- so no SHA-256 runs, the
    per-tree levels reconstructed from the arena are bit-identical to the
    originals, and over a naive forest the arena's leaf and internal node
    counts are the ones the forest builder must report.

    Returns ``(arena, root_indices)`` with one root index per input tree.
    """
    digests: List[bytes] = []
    left: List[int] = []
    right: List[int] = []
    digest_index: Dict[bytes, int] = {}
    pair_index: Dict[tuple[int, int], int] = {}
    roots = np.empty(len(trees), dtype=np.int64)
    for position, tree in enumerate(trees):
        levels = tree.levels
        below: List[int] = []
        for digest in levels[0]:
            index = digest_index.get(digest)
            if index is None:
                index = len(digests)
                digests.append(digest)
                left.append(-1)
                right.append(-1)
                digest_index[digest] = index
            below.append(index)
        for level in levels[1:]:
            current: List[int] = []
            for slot, digest in enumerate(level):
                first = 2 * slot
                if first + 1 < len(below):
                    key = (below[first], below[first + 1])
                    index = pair_index.get(key)
                    if index is None:
                        index = len(digests)
                        digests.append(digest)
                        left.append(key[0])
                        right.append(key[1])
                        pair_index[key] = index
                    current.append(index)
                else:
                    # Odd-node carry: same node, one level up.
                    current.append(below[first])
            below = current
        roots[position] = below[0]
    digest_matrix = np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(
        len(digests), DIGEST_SIZE
    )
    arena = MerkleArena(
        digests=digest_matrix,
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
    )
    return arena, roots
