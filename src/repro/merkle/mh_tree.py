"""Generic Merkle hash tree with the paper's odd-node carry rule.

The FMH-tree of the paper (section 3.1, step 2) is built layer by layer:
every two adjacent nodes get a common parent whose hash is
``H(left.h | right.h)``; when a layer has an odd number of nodes "the last
node will be linked to the tree in the next round", i.e. it is carried to
the next layer unchanged.  This module implements that exact shape plus two
kinds of proofs:

* :class:`MembershipProof` -- the classic authentication path for a single
  leaf;
* :class:`RangeProof` -- the minimal set of off-range node hashes needed to
  recompute the root from a *contiguous* range of leaf values, which is what
  a verification object for a windowed query result needs (the query result
  plus its two boundary records form such a range).

Verification never trusts hashes it can recompute: node hashes inside the
proven range are always recomputed from the supplied leaves, so a forged or
dropped record changes the reconstructed root (the paper's security
argument, section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, MutableMapping, Optional, Sequence, Tuple

from repro.crypto.hashing import HashFunction

__all__ = [
    "MerkleTree",
    "MembershipProof",
    "RangeProof",
    "level_sizes",
    "membership_proof_nodes",
    "range_proof_nodes",
]


def level_sizes(leaf_count: int) -> list[int]:
    """Node counts per level for a tree over ``leaf_count`` leaves.

    Level 0 holds the leaves; the top level holds a single root.  A level
    of size 1 terminates the tree (a single leaf is its own root).
    """
    if leaf_count <= 0:
        raise ValueError("a Merkle tree needs at least one leaf")
    sizes = [leaf_count]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] + 1) // 2)
    return sizes


def membership_proof_nodes(leaf_index: int, leaf_count: int) -> list[tuple[int, int]]:
    """``(level, position)`` of every sibling a membership proof carries.

    Bottom-up; a node carried up an odd level (that level's last node) has
    no sibling there and contributes nothing.  Every listed node is a child
    of the node one level up on the leaf's root path.
    """
    if not (0 <= leaf_index < leaf_count):
        raise IndexError(f"leaf index {leaf_index} out of range")
    nodes: list[tuple[int, int]] = []
    index = leaf_index
    for level, size in enumerate(level_sizes(leaf_count)[:-1]):
        if index != size - 1 or size % 2 == 0:
            nodes.append((level, index ^ 1))
        index //= 2
    return nodes


def range_proof_nodes(start: int, end: int, leaf_count: int) -> list[tuple[int, int]]:
    """``(level, position)`` of every supplement a range proof carries, in order.

    The proven range stays contiguous as it climbs, so only its two ends
    can need an off-range sibling: the low end its left sibling when its
    position is odd, the high end its right sibling when its position is
    even and it is not carried (the last node of an odd level).  Levels
    run bottom-up, the low end first within a level.  Every listed node is
    a child of the node one level up on the root path of ``start`` or
    ``end``.
    """
    if not (0 <= start <= end < leaf_count):
        raise IndexError(f"range [{start}, {end}] out of bounds for {leaf_count} leaves")
    nodes: list[tuple[int, int]] = []
    for level, size in enumerate(level_sizes(leaf_count)[:-1]):
        if start % 2 == 1:
            nodes.append((level, start - 1))
        if end % 2 == 0 and end + 1 < size:
            nodes.append((level, end + 1))
        start //= 2
        end //= 2
    return nodes


@dataclass(frozen=True)
class MembershipProof:
    """Authentication path for one leaf.

    ``siblings`` lists ``(level, index, hash)`` entries bottom-up; levels or
    positions where the climbing node is carried (no sibling) contribute no
    entry.
    """

    leaf_index: int
    leaf_count: int
    siblings: tuple[tuple[int, int, bytes], ...]

    def node_count(self) -> int:
        """Number of hashes shipped in this proof."""
        return len(self.siblings)


@dataclass(frozen=True)
class RangeProof:
    """Everything needed to recompute the root from a contiguous leaf range.

    ``supplements`` lists ``(level, index, hash)`` for every node outside
    the range whose hash is required; the in-range leaf hashes themselves
    are *not* included -- the verifier recomputes them from the records it
    received.
    """

    start: int
    end: int
    leaf_count: int
    supplements: tuple[tuple[int, int, bytes], ...]

    def node_count(self) -> int:
        """Number of hashes shipped in this proof."""
        return len(self.supplements)


class MerkleTree:
    """A Merkle hash tree over a fixed sequence of leaf hashes.

    Parameters
    ----------
    leaf_hashes:
        The (already hashed) leaves, level 0 of the tree.
    hash_function:
        Counting SHA-256 wrapper (a fresh uncounted one by default).
    node_cache:
        Optional hash-consing table mapping ``(left_digest, right_digest)``
        to the parent digest, shared across trees by the construction
        engine (:class:`repro.merkle.engine.MerkleBuildEngine`).  A cache
        hit skips the SHA-256 invocation but still counts as one *logical*
        hash operation, so counter-based figures are unchanged; carried odd
        nodes are never hashed and never enter the cache.  The resulting
        tree is bit-identical with or without a cache.
    """

    def __init__(
        self,
        leaf_hashes: Sequence[bytes],
        hash_function: Optional[HashFunction] = None,
        node_cache: Optional[MutableMapping[Tuple[bytes, bytes], bytes]] = None,
    ):
        if len(leaf_hashes) == 0:
            raise ValueError("a Merkle tree needs at least one leaf")
        self._hash = hash_function or HashFunction()
        self.levels: List[List[bytes]] = [list(leaf_hashes)]
        # The cache is only consulted during construction; it is deliberately
        # not stored on the instance so the engine's tables can be freed once
        # the owning construction drops them.
        self._build(node_cache)

    # ---------------------------------------------------------------- build
    def _build(self, cache: Optional[MutableMapping[Tuple[bytes, bytes], bytes]]) -> None:
        combine = self._hash.combine
        current = self.levels[0]
        while len(current) > 1:
            parents: List[bytes] = []
            if cache is None:
                for position in range(0, len(current) - 1, 2):
                    parents.append(combine(current[position], current[position + 1]))
            else:
                lookup = cache.get
                hits = 0
                for position in range(0, len(current) - 1, 2):
                    key = (current[position], current[position + 1])
                    value = lookup(key)
                    if value is None:
                        value = combine(*key)
                        cache[key] = value
                    else:
                        hits += 1
                    parents.append(value)
                if hits:
                    self._hash.note_cached(hits)
            if len(current) % 2 == 1:
                # Odd-node carry: the last node joins the next layer unchanged.
                parents.append(current[-1])
            self.levels.append(parents)
            current = parents

    # ------------------------------------------------------------ accessors
    @property
    def leaf_count(self) -> int:
        return len(self.levels[0])

    @property
    def height(self) -> int:
        """Number of levels, including the leaf level."""
        return len(self.levels)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    @property
    def node_count(self) -> int:
        """Total number of nodes across all levels."""
        return sum(len(level) for level in self.levels)

    def leaf_hash(self, index: int) -> bytes:
        return self.levels[0][index]

    # --------------------------------------------------------------- proofs
    def membership_proof(self, leaf_index: int) -> MembershipProof:
        """Authentication path proving that leaf ``leaf_index`` is in the tree."""
        nodes = membership_proof_nodes(leaf_index, self.leaf_count)
        return MembershipProof(
            leaf_index=leaf_index,
            leaf_count=self.leaf_count,
            siblings=tuple((level, index, self.levels[level][index]) for level, index in nodes),
        )

    def range_proof(self, start: int, end: int) -> RangeProof:
        """Proof for the contiguous leaf range ``[start, end]`` (inclusive)."""
        nodes = range_proof_nodes(start, end, self.leaf_count)
        return RangeProof(
            start=start,
            end=end,
            leaf_count=self.leaf_count,
            supplements=tuple((level, index, self.levels[level][index]) for level, index in nodes),
        )

    # --------------------------------------------------------- verification
    @staticmethod
    def root_from_membership(
        leaf_hash: bytes,
        proof: MembershipProof,
        hash_function: Optional[HashFunction] = None,
    ) -> bytes:
        """Recompute the root implied by a membership proof."""
        hashes = hash_function or HashFunction()
        sizes = level_sizes(proof.leaf_count)
        sibling_map: Dict[Tuple[int, int], bytes] = {
            (level, index): value for level, index, value in proof.siblings
        }
        index = proof.leaf_index
        current = leaf_hash
        for level in range(len(sizes) - 1):
            size = sizes[level]
            if index == size - 1 and size % 2 == 1:
                index //= 2
                continue
            sibling = index + 1 if index % 2 == 0 else index - 1
            try:
                sibling_hash = sibling_map[(level, sibling)]
            except KeyError:
                raise ValueError(
                    f"membership proof is missing the sibling at level {level}, index {sibling}"
                ) from None
            current = (
                hashes.combine(current, sibling_hash)
                if index % 2 == 0
                else hashes.combine(sibling_hash, current)
            )
            index //= 2
        return current

    @staticmethod
    def root_from_range(
        leaf_hashes: Sequence[bytes],
        proof: RangeProof,
        hash_function: Optional[HashFunction] = None,
    ) -> bytes:
        """Recompute the root implied by a range proof.

        ``leaf_hashes`` must be the hashes of the leaves ``start..end`` in
        order; every other hash the computation needs must appear in the
        proof's supplements, otherwise a :class:`ValueError` is raised.
        """
        if len(leaf_hashes) != proof.end - proof.start + 1:
            raise ValueError(
                f"expected {proof.end - proof.start + 1} leaf hashes, got {len(leaf_hashes)}"
            )
        hashes = hash_function or HashFunction()
        sizes = level_sizes(proof.leaf_count)
        values: Dict[Tuple[int, int], bytes] = {
            (0, proof.start + offset): value for offset, value in enumerate(leaf_hashes)
        }
        for level, index, value in proof.supplements:
            if not (0 <= level < len(sizes)) or not (0 <= index < sizes[level]):
                raise ValueError(f"range proof refers to nonexistent node ({level}, {index})")
            key = (level, index)
            if key in values and values[key] != value:
                raise ValueError(f"range proof contradicts recomputed node {key}")
            values.setdefault(key, value)

        known = {index for level, index in values if level == 0}
        for level in range(len(sizes) - 1):
            size = sizes[level]
            parents: set[int] = set()
            for index in sorted(known):
                parent = index // 2
                if parent in parents:
                    continue
                left = 2 * parent
                right = 2 * parent + 1
                if right >= size:
                    # Carried node: parent value equals the single child's value.
                    if (level, left) not in values:
                        raise ValueError(
                            f"cannot recompute node ({level + 1}, {parent}): missing child"
                        )
                    values[(level + 1, parent)] = values[(level, left)]
                else:
                    if (level, left) not in values or (level, right) not in values:
                        raise ValueError(
                            f"cannot recompute node ({level + 1}, {parent}): missing child hash"
                        )
                    values[(level + 1, parent)] = hashes.combine(
                        values[(level, left)], values[(level, right)]
                    )
                parents.add(parent)
            known = parents
        return values[(len(sizes) - 1, 0)]
