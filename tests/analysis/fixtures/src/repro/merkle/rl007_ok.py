"""RL007 fixture: production code that keeps to production modules."""

import repro.merkle.arena
from repro import merkle
from repro.merkle.mh_tree import MerkleTree
from repro.references import catalogue  # a different package that shares the prefix


def build(leaves):
    return MerkleTree(leaves), merkle, catalogue, repro
