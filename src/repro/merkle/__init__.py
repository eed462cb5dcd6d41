"""Merkle hash trees.

* :mod:`repro.merkle.mh_tree` -- a generic Merkle hash tree with the paper's
  odd-node carry rule, membership proofs and contiguous-range proofs.
* :mod:`repro.merkle.fmh_tree` -- the Function Merkle Hash tree (FMH-tree):
  a Merkle tree over a subdomain's sorted function list bracketed by the
  ``f_min`` / ``f_max`` boundary tokens.
* :mod:`repro.merkle.engine` -- the construction engine that builds every
  subdomain's FMH-tree at once and collapses the redundant hashing across
  them.
* :mod:`repro.merkle.arena` -- the array-backed forest arena and the
  level-order batched construction path (bulk hashing across all subdomain
  trees at once, lazy per-tree views).
"""

from repro.merkle.mh_tree import MerkleTree, MembershipProof, RangeProof
from repro.merkle.fmh_tree import FMHTree, MIN_TOKEN, MAX_TOKEN, BoundaryEntry
from repro.merkle.engine import MerkleBuildEngine
from repro.merkle.arena import ArenaMerkleTree, ForestHasher, MerkleArena

__all__ = [
    "MerkleBuildEngine",
    "MerkleTree",
    "MembershipProof",
    "RangeProof",
    "FMHTree",
    "MIN_TOKEN",
    "MAX_TOKEN",
    "BoundaryEntry",
    "MerkleArena",
    "ArenaMerkleTree",
    "ForestHasher",
]
