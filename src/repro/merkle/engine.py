"""Shared-structure Merkle construction engine.

The IFMH construction (paper section 3.1, step 2) builds one FMH-tree per
subdomain.  Adjacent subdomains of the 1-D arrangement differ by a single
adjacent transposition of the sorted record list, so their Merkle trees
share almost every node; across the whole sweep only Theta(n^2 log n) of
the Theta(n^3) internal nodes are distinct.

The engine advances the whole forest one level at a time through the
array-backed :class:`~repro.merkle.arena.ForestHasher`: every record's leaf
digest is computed once, all uncached parent preimages of a level, across
*all* subdomain trees, are gathered into a contiguous buffer and hashed in
one bulk pass (:func:`repro.crypto.hashing.sha256_many`), and the resulting
forest lives in a flat :class:`~repro.merkle.arena.MerkleArena` that
per-tree lazy views share.

This changes *which* hashes physically run, never their values: every
root, proof and verification result is bit-identical to building each
subdomain's :class:`~repro.merkle.fmh_tree.FMHTree` on its own (the
reference in :mod:`repro.reference`), and the logical hash counters (what
the paper's figures report) are unchanged because cache hits are counted as
performed operations (see :mod:`repro.crypto.hashing`).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.crypto.hashing import HashFunction
from repro.merkle.arena import ForestHasher, MerkleArena

__all__ = ["MerkleBuildEngine"]


class MerkleBuildEngine:
    """The level-order forest builder of one ADS construction.

    ``workers`` shards the forest build across forked processes; output is
    bit-identical at any worker count (a runtime knob, not config).
    """

    __slots__ = ("forest",)

    def __init__(self, workers: int = 1) -> None:
        self.forest = ForestHasher(workers=workers)

    def intern_leaf_batch(
        self, payloads: Sequence[bytes], hash_function: HashFunction
    ) -> np.ndarray:
        """Bulk-digest leaf preimages into the forest arena."""
        return self.forest.intern_leaves(payloads, hash_function)

    def build_forest(self, leaf_matrix: np.ndarray, hash_function: HashFunction) -> np.ndarray:
        """Level-order batched build of every tree; per-tree root indices."""
        return self.forest.build_forest(leaf_matrix, hash_function)

    def finalize_arena(self) -> MerkleArena:
        """Freeze the forest's node store into the shared arena."""
        return self.forest.finalize()

    def stats(self) -> Dict[str, int]:
        """Interned leaves, pool hits and distinct internal nodes (benchmarks)."""
        return self.forest.stats()
