"""Array-backed Merkle forest arena and level-order batched construction.

The IFMH construction (paper section 3.1, step 2) builds one FMH-tree per
subdomain, and every one of those trees has the *same shape*: each
subdomain's sorted list holds all ``n`` records bracketed by the two
boundary tokens, so every tree is a Merkle tree over exactly ``n + 2``
leaves.  Sharing nodes between those trees removes the redundant SHA-256
work, but a tree-at-a-time build still pays Python per-node overhead --
one method call, one tuple key and one dict probe per logical node, times
Theta(n^3) logical nodes.

This module removes that overhead with two pieces:

* :class:`MerkleArena` -- a flat node store: one ``(count, 32)`` uint8
  digest matrix plus two integer child-index arrays.  A node is an integer;
  structure shared between subdomain trees is shared by index, so the whole
  forest costs Theta(distinct nodes) memory instead of Theta(total nodes)
  object references.

* :class:`ForestHasher` -- a level-order batched builder.  The forest is
  represented as a 2-D matrix of digest indices (one row per tree, one
  column per node of the current level) and advanced one level at a time
  across *all* trees at once: pair keys are formed vectorially, cells equal
  to the cell one row above are deduplicated without touching Python (in
  subdomain order adjacent trees differ by a single transposition, so
  almost every cell is such a repeat), and the few genuinely new pairs per
  level are hashed in one bulk pass
  (:func:`repro.crypto.hashing.sha256_many`) over a contiguous preimage
  buffer.

Counting semantics: every pair slot of every level of every tree is one
*logical* hash operation (what Fig. 5a/7a report), exactly as in a
per-tree build, while only the first occurrence of a ``(left, right)``
digest pair costs a *physical* SHA-256 invocation.  Roots, levels, proofs
and counters are bit-for-bit the values the per-tree
:class:`~repro.merkle.mh_tree.MerkleTree` build produces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.hashing import DIGEST_SIZE, HashFunction
from repro.merkle.mh_tree import (
    MembershipProof,
    MerkleTree,
    RangeProof,
    level_sizes,
    membership_proof_nodes,
    range_proof_nodes,
)

__all__ = [
    "MerkleArena",
    "ArenaMerkleTree",
    "ForestHasher",
    "DeltaForestHasher",
]

#: 8-byte big-endian length prefix of one digest, replicating the
#: unambiguous ``H(len(x) | x | len(y) | y)`` framing of
#: :meth:`repro.crypto.hashing.HashFunction.combine` for two-digest parents.
_DIGEST_LENGTH_PREFIX = DIGEST_SIZE.to_bytes(8, "big")

#: Bytes of one two-digest combine preimage (two prefixes + two digests).
_PAIR_PREIMAGE_SIZE = 2 * (8 + DIGEST_SIZE)

#: Upper bound on ``rows * level_width`` per processed chunk of the forest
#: matrix (bounds peak memory of the vectorized level step).
_CHUNK_ELEMENTS = 8_000_000


class MerkleArena:
    """Finalized flat node store for a forest of Merkle trees.

    ``digests`` is a ``(count, 32)`` uint8 matrix; ``left`` / ``right``
    hold the child node indices of internal nodes and ``-1`` for leaves.
    Carried odd nodes (the paper's carry rule) are not separate nodes: a
    carried node appears in several levels of a tree under the same index.
    """

    __slots__ = ("digests", "left", "right")

    def __init__(self, digests: np.ndarray, left: np.ndarray, right: np.ndarray):
        if digests.shape[0] != left.shape[0] or left.shape[0] != right.shape[0]:
            raise ValueError("digest and child arrays disagree on node count")
        self.digests = digests
        self.left = left
        self.right = right

    def __len__(self) -> int:
        return self.digests.shape[0]

    def digest_bytes(self, index: int) -> bytes:
        """The 32-byte digest of one node."""
        return self.digests[index].tobytes()

    # -------------------------------------------------------------- codecs
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The arena's backing arrays, ready for serialization.

        The returned arrays are the live backing store (no copy); artifact
        writers treat them as read-only.
        """
        return {"digests": self.digests, "left": self.left, "right": self.right}

    @classmethod
    def from_arrays(
        cls, digests: np.ndarray, left: np.ndarray, right: np.ndarray
    ) -> "MerkleArena":
        """Rebuild an arena from serialized arrays (shape-validated)."""
        digests = np.ascontiguousarray(digests, dtype=np.uint8)
        left = np.ascontiguousarray(left, dtype=np.int64)
        right = np.ascontiguousarray(right, dtype=np.int64)
        if digests.ndim != 2 or digests.shape[1] != DIGEST_SIZE:
            raise ValueError(
                f"arena digest matrix must be (count, {DIGEST_SIZE}), got {digests.shape}"
            )
        count = digests.shape[0]
        for name, child in (("left", left), ("right", right)):
            if child.ndim != 1 or child.shape[0] != count:
                raise ValueError(f"arena {name}-child array does not match {count} nodes")
            if child.size and (child.min() < -1 or child.max() >= count):
                raise ValueError(f"arena {name}-child array references nonexistent nodes")
        return cls(digests=digests, left=left, right=right)

    # ------------------------------------------------------------ traversal
    def index_levels(self, root_index: int, leaf_count: int) -> List[np.ndarray]:
        """Node-index levels (bottom-up: leaves first) of one tree.

        The tree shape is fully determined by ``leaf_count`` (see
        :func:`repro.merkle.mh_tree.level_sizes`), so the levels are
        reconstructed top-down from the child indices: paired parents
        expand into two children, and when a level has odd size its last
        node is the carried node of the level below (same index).
        """
        sizes = level_sizes(leaf_count)
        levels = [np.array([root_index], dtype=np.int64)]
        for level in range(len(sizes) - 1, 0, -1):
            parents = levels[-1]
            child_size = sizes[level - 1]
            paired = child_size // 2
            children = np.empty(child_size, dtype=np.int64)
            children[0 : 2 * paired : 2] = self.left[parents[:paired]]
            children[1 : 2 * paired : 2] = self.right[parents[:paired]]
            if child_size % 2 == 1:
                children[-1] = parents[-1]
            levels.append(children)
        levels.reverse()
        return levels

    def byte_levels(self, root_index: int, leaf_count: int) -> List[List[bytes]]:
        """The tree's levels as lists of digest bytes (MerkleTree layout)."""
        result: List[List[bytes]] = []
        for indices in self.index_levels(root_index, leaf_count):
            flat = self.digests[indices].tobytes()
            result.append(
                [flat[i * DIGEST_SIZE : (i + 1) * DIGEST_SIZE] for i in range(len(indices))]
            )
        return result


class ArenaMerkleTree(MerkleTree):
    """:class:`MerkleTree` view over an arena-resident tree.

    Exposes the node-object API (``root``, proofs, ``levels``) of a tree
    built leaf-up, and its proofs build no digest lists: a proof walks the
    root paths of the leaves it proves through the arena's child arrays
    and reads the digests it carries with one gather.  Which ``(level,
    position)`` nodes a proof carries comes from the same rule
    :class:`MerkleTree` uses (:func:`~repro.merkle.mh_tree.range_proof_nodes`,
    :func:`~repro.merkle.mh_tree.membership_proof_nodes`), so verification
    objects are bit-identical.  ``levels`` still builds (and caches) the
    whole tree as lists of bytes; it is the reference that tests compare
    against, and nothing on the query path reads it.
    """

    def __init__(
        self,
        arena: MerkleArena,
        root_index: int,
        leaf_count: int,
        hash_function: Optional[HashFunction] = None,
    ):
        # Deliberately does not call MerkleTree.__init__: nothing is hashed
        # and no levels are stored.
        self._hash = hash_function or HashFunction()
        self._arena = arena
        self._root_index = root_index
        self._leaf_count = leaf_count
        self._materialized: Optional[List[List[bytes]]] = None

    # ------------------------------------------------------------ accessors
    @property
    def arena(self) -> MerkleArena:
        """The shared arena this view reads from (artifact export)."""
        return self._arena

    @property
    def root_index(self) -> int:
        """Arena node index of this tree's root (artifact export)."""
        return self._root_index

    @property
    def levels(self) -> List[List[bytes]]:  # type: ignore[override]
        """Every level as digest bytes, built on first use and cached (tests)."""
        if self._materialized is None:
            self._materialized = self._arena.byte_levels(self._root_index, self._leaf_count)
        return self._materialized

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def height(self) -> int:
        return len(level_sizes(self._leaf_count))

    @property
    def root(self) -> bytes:
        return self._arena.digest_bytes(self._root_index)

    @property
    def node_count(self) -> int:
        return sum(level_sizes(self._leaf_count))

    def leaf_hash(self, index: int) -> bytes:
        if not -self._leaf_count <= index < self._leaf_count:
            raise IndexError("leaf index out of range")
        return self._arena.digest_bytes(self._root_path(index % self._leaf_count)[0])

    # --------------------------------------------------------------- proofs
    def membership_proof(self, leaf_index: int) -> MembershipProof:
        nodes = membership_proof_nodes(leaf_index, self._leaf_count)
        return MembershipProof(
            leaf_index=leaf_index,
            leaf_count=self._leaf_count,
            siblings=self._proof_entries(nodes, leaf_index, leaf_index),
        )

    def range_proof(self, start: int, end: int) -> RangeProof:
        nodes = range_proof_nodes(start, end, self._leaf_count)
        return RangeProof(
            start=start,
            end=end,
            leaf_count=self._leaf_count,
            supplements=self._proof_entries(nodes, start, end),
        )

    def _root_path(self, leaf: int) -> List[int]:
        """Arena node index at every level of ``leaf``'s root path, leaves first.

        Walks down from the root through the child arrays.  Level ``L``
        holds ``(last >> L) + 1`` nodes, so an even position equal to
        ``last >> L`` is the last node of an odd level: carried, it keeps
        its parent's index.
        """
        left, right = self._arena.left, self._arena.right
        last = self._leaf_count - 1
        node = self._root_index
        path = [node] * (last.bit_length() + 1)
        for level in range(last.bit_length() - 1, -1, -1):
            position = leaf >> level
            if position & 1:
                node = right.item(node)
            elif position != last >> level:
                node = left.item(node)
            path[level] = node
        return path

    def _proof_entries(
        self, nodes: List[Tuple[int, int]], low_leaf: int, high_leaf: int
    ) -> Tuple[Tuple[int, int, bytes], ...]:
        """``(level, position, digest)`` of every proof node in ``nodes``.

        Each node is a child of a node on the root path of ``low_leaf`` or
        ``high_leaf``, so one walk per end and one gather from the digest
        matrix read them all.
        """
        if not nodes:
            return ()
        arena = self._arena
        low = self._root_path(low_leaf)
        high = low if high_leaf == low_leaf else self._root_path(high_leaf)
        indices = []
        for level, index in nodes:
            parent = (low if index >> 1 == low_leaf >> (level + 1) else high)[level + 1]
            indices.append((arena.right if index & 1 else arena.left).item(parent))
        flat = arena.digests.take(indices, axis=0).tobytes()
        return tuple(
            (level, index, flat[offset : offset + DIGEST_SIZE])
            for (level, index), offset in zip(nodes, range(0, len(flat), DIGEST_SIZE))
        )


class _NodeStore:
    """Growable backing arrays for digests and child indices."""

    __slots__ = ("digests", "left", "right", "size")

    def __init__(self, capacity: int = 1024):
        self.digests = np.empty((capacity, DIGEST_SIZE), dtype=np.uint8)
        self.left = np.full(capacity, -1, dtype=np.int64)
        self.right = np.full(capacity, -1, dtype=np.int64)
        self.size = 0

    def reserve(self, count: int) -> int:
        """Grow to fit ``count`` more nodes; return the first new index."""
        start = self.size
        needed = start + count
        if needed > 1 << 32:
            # Pair-cache keys pack two node indices into one int64
            # ((left << 32) | right); past 2^32 nodes they would collide.
            raise OverflowError("Merkle arena exceeds 2^32 nodes")
        capacity = self.digests.shape[0]
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            digests = np.empty((capacity, DIGEST_SIZE), dtype=np.uint8)
            digests[:start] = self.digests[:start]
            left = np.full(capacity, -1, dtype=np.int64)
            left[:start] = self.left[:start]
            right = np.full(capacity, -1, dtype=np.int64)
            right[:start] = self.right[:start]
            self.digests, self.left, self.right = digests, left, right
        self.size = needed
        return start

    def append_pair_nodes(
        self, left_index: np.ndarray, right_index: np.ndarray, hash_function: HashFunction
    ) -> int:
        """Reserve, hash and store one parent node per ``(left, right)`` pair.

        Assembles the ``H(len(x) | x | len(y) | y)`` two-digest preimages
        into one contiguous buffer, hashes them in a single bulk pass and
        writes digests plus child indices into the reserved slots; returns
        the first new index.  Shared by the full level-order builder and
        the changed-path delta builder so the pair framing exists in
        exactly one place.
        """
        count = int(left_index.shape[0])
        start = self.reserve(count)
        digests = self.digests
        buffer = np.empty((count, _PAIR_PREIMAGE_SIZE), dtype=np.uint8)
        prefix = np.frombuffer(_DIGEST_LENGTH_PREFIX, dtype=np.uint8)
        buffer[:, 0:8] = prefix
        buffer[:, 8 : 8 + DIGEST_SIZE] = digests[left_index]
        buffer[:, 8 + DIGEST_SIZE : 16 + DIGEST_SIZE] = prefix
        buffer[:, 16 + DIGEST_SIZE :] = digests[right_index]
        # Buffer rows go to the bulk hasher directly (hashlib accepts any
        # C-contiguous buffer) -- no per-row memoryview slicing.
        new_digests = hash_function.digest_batch(buffer)
        digests[start : start + count] = np.frombuffer(
            b"".join(new_digests), dtype=np.uint8
        ).reshape(count, DIGEST_SIZE)
        self.left[start : start + count] = left_index
        self.right[start : start + count] = right_index
        return start


class ForestHasher:
    """Level-order batched construction of many equal-shape Merkle trees.

    One instance lives for one ADS construction.  Leaf preimages are
    interned once (:meth:`intern_leaves`); the forest is then built level
    by level across all trees at once (:meth:`build_forest`), and
    :meth:`finalize` freezes the node store into a :class:`MerkleArena`
    that the per-subdomain :class:`ArenaMerkleTree` views share.

    ``workers > 1`` builds the forest's contiguous row shards in forked
    worker processes and merges them deterministically
    (:mod:`repro.merkle.parallel`); roots, digests and both hash counters
    are bit-identical at any worker count, so the knob is purely a
    wall-clock decision and never part of the system configuration.
    """

    def __init__(self, workers: int = 1) -> None:
        self._store = _NodeStore()
        #: ``digest -> node index`` for leaf digests, so equal-valued leaves
        #: share one node and pair identity by index is identity by value.
        self._digest_index: Dict[bytes, int] = {}
        #: ``(left_index << 32) | right_index -> parent index``.
        self._pair_cache: Dict[int, int] = {}
        #: Globally distinct internal nodes (== ``len(_pair_cache)`` after
        #: serial builds; the parallel merge counts without the dict).
        self._distinct_pairs = 0
        #: Leaf digest requests already counted (logically and physically)
        #: by :meth:`intern_leaves` and not yet credited against a forest's
        #: per-(tree, leaf) logical accounting.
        self._uncredited_leaf_ops = 0
        self._interned_payloads = 0
        self._leaf_requests = 0
        self._workers = max(1, int(workers))
        #: Set after a parallel build: the pair cache no longer mirrors the
        #: store, so further forest builds on this instance are refused.
        self._sealed = False
        self._arena: Optional[MerkleArena] = None

    # ------------------------------------------------------------------ API
    def intern_leaves(self, payloads: Sequence[bytes], hash_function: HashFunction) -> np.ndarray:
        """Digest and intern leaf preimages; return their node indices.

        Every payload is physically hashed exactly once (one bulk pass);
        payloads whose digests collide in value share one arena node so
        that pair consing stays value-exact.
        """
        if self._arena is not None:
            raise RuntimeError("the forest has been finalized; no more leaves can be interned")
        digests = hash_function.digest_batch(payloads)
        self._uncredited_leaf_ops += len(digests)
        self._interned_payloads += len(digests)
        indices = np.empty(len(digests), dtype=np.int64)
        index_of = self._digest_index
        store = self._store
        for position, digest in enumerate(digests):
            known = index_of.get(digest)
            if known is None:
                known = store.reserve(1)
                store.digests[known] = np.frombuffer(digest, dtype=np.uint8)
                index_of[digest] = known
            indices[position] = known
        return indices

    def build_forest(self, leaf_matrix: np.ndarray, hash_function: HashFunction) -> np.ndarray:
        """Build every tree of the forest; return per-tree root node indices.

        ``leaf_matrix`` has one row per tree and one leaf node index per
        column (all trees share one leaf count, the IFMH invariant).  The
        matrix is processed in row chunks; within a chunk each level is
        advanced with three vectorized passes (pair keys, repeat-of-row-
        above dedup, parent scatter/forward-fill) and one bulk hash over
        the level's genuinely new pairs.
        """
        if self._arena is not None:
            raise RuntimeError("the forest has been finalized; no more trees can be built")
        if self._sealed:
            raise RuntimeError(
                "this forest hasher already built a forest in parallel; its pair "
                "cache no longer mirrors the store, so build with a new instance"
            )
        if leaf_matrix.ndim != 2:
            raise ValueError("leaf_matrix must be 2-D (trees x leaves)")
        tree_count, leaf_count = leaf_matrix.shape
        if leaf_count == 0:
            raise ValueError("a Merkle tree needs at least one leaf")
        # Logical accounting for the leaf level: one operation per
        # (tree, leaf) slot, exactly like one digest request per leaf of
        # every tree; the interned first occurrences were already counted.
        self._leaf_requests += tree_count * leaf_count
        credited = min(self._uncredited_leaf_ops, tree_count * leaf_count)
        self._uncredited_leaf_ops -= credited
        hash_function.note_cached(tree_count * leaf_count - credited)

        if (
            self._workers > 1
            and leaf_count > 1
            and not self._pair_cache
            and self._distinct_pairs == 0
        ):
            from repro.merkle.parallel import (
                build_forest_sharded,
                fork_available,
                shard_bounds,
            )

            bounds = shard_bounds(tree_count, leaf_count, self._workers)
            if len(bounds) > 1 and fork_available():
                self._sealed = True
                return build_forest_sharded(self, leaf_matrix, bounds, hash_function)

        roots = np.empty(tree_count, dtype=np.int64)
        chunk_rows = max(1, _CHUNK_ELEMENTS // leaf_count)
        for start in range(0, tree_count, chunk_rows):
            current = leaf_matrix[start : start + chunk_rows].astype(np.int64, copy=True)
            width = leaf_count
            while width > 1:
                paired = width // 2
                current = self._advance_level(current, paired, width - 2 * paired, hash_function)
                width = paired + (width - 2 * paired)
            roots[start : start + current.shape[0]] = current[:, 0]
        return roots

    def finalize(self) -> MerkleArena:
        """Freeze the node store into the arena shared by all tree views.

        The intern and pair tables are dropped -- only the flat digest and
        child arrays survive, which is what the lazy views need.
        """
        if self._arena is None:
            size = self._store.size
            self._arena = MerkleArena(
                digests=self._store.digests[:size],
                left=self._store.left[:size],
                right=self._store.right[:size],
            )
            self._digest_index = {}
        return self._arena

    def stats(self) -> Dict[str, int]:
        """Interned leaves, leaf-pool hits and distinct internal nodes."""
        return {
            "leaf_pool_entries": self._interned_payloads,
            "leaf_pool_hits": self._leaf_requests - self._interned_payloads,
            "leaf_pool_misses": self._interned_payloads,
            "distinct_internal_nodes": self._distinct_pairs,
        }

    # ------------------------------------------------------------ internals
    def _advance_level(
        self, current: np.ndarray, paired: int, odd: int, hash_function: HashFunction
    ) -> np.ndarray:
        """One level step for a chunk: pair, dedup, bulk-hash, scatter."""
        rows = current.shape[0]
        keys = (current[:, 0 : 2 * paired : 2] << np.int64(32)) | current[:, 1 : 2 * paired : 2]
        # A cell equal to the cell one row above is the same (left, right)
        # pair and therefore the same parent; only "fresh" cells need the
        # pair cache.  Adjacent subdomain trees differ by one transposition,
        # so fresh cells are Theta(1) per row.
        fresh = np.empty((rows, paired), dtype=bool)
        fresh[0, :] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        fresh_rows, fresh_cols = np.nonzero(fresh)
        fresh_keys = keys[fresh_rows, fresh_cols]

        cache = self._pair_cache
        cache_get = cache.get
        fresh_parents = np.empty(fresh_keys.shape[0], dtype=np.int64)
        new_keys: List[int] = []
        new_first = self._store.size
        next_new = new_first
        for position, key in enumerate(fresh_keys.tolist()):
            parent = cache_get(key)
            if parent is None:
                parent = next_new
                next_new += 1
                cache[key] = parent
                new_keys.append(key)
            fresh_parents[position] = parent
        if new_keys:
            self._hash_new_pairs(new_keys, hash_function)
        hash_function.note_cached(rows * paired - len(new_keys))

        # Scatter the fresh parents, then forward-fill repeats down columns.
        parents = np.zeros((rows, paired), dtype=np.int64)
        parents[fresh_rows, fresh_cols] = fresh_parents
        if rows > 1:
            last_fresh = np.where(fresh, np.arange(rows)[:, None], 0)
            np.maximum.accumulate(last_fresh, axis=0, out=last_fresh)
            parents = parents[last_fresh, np.arange(paired)[None, :]]
        if odd:
            parents = np.concatenate([parents, current[:, -1:]], axis=1)
        return parents

    def _hash_new_pairs(self, new_keys: List[int], hash_function: HashFunction) -> None:
        """Bulk-hash the level's new pairs and append them to the store."""
        self._distinct_pairs += len(new_keys)
        key_array = np.asarray(new_keys, dtype=np.int64)
        self._store.append_pair_nodes(
            key_array >> np.int64(32), key_array & np.int64(0xFFFFFFFF), hash_function
        )


#: Bits reserved for the tree index in the delta builder's packed
#: ``(column, tree)`` entry keys; forests are far below 2^40 trees.
_TREE_BITS = 40


class DeltaForestHasher:
    """Changed-path rebuild of an equal-shape Merkle forest against a seed arena.

    The incremental-update path (:mod:`repro.ifmh.updates`) knows the *new*
    forest's leaf matrix only in change-point form: tree 0's full leaf row
    plus, for every later tree, the cells that differ from the tree before
    it (adjacent subdomains differ by a couple of cells).  This builder
    advances all trees one level at a time exactly like
    :class:`ForestHasher`, but it represents every level sparsely as sorted
    ``(column, tree, node)`` change entries, so the work per level is
    proportional to the number of *changed* cells -- Theta(trees * log n)
    for a single-record update -- instead of the full ``trees x width``
    matrix.

    Pairs already present in the seed arena are reused by index (no SHA-256
    runs); only pairs that exist in no seeded tree are hashed, in one bulk
    pass per level, and appended to the node store.  The finalized arena
    therefore *extends* the seed arena: every old node keeps its index, so
    lazy views over the previous forest remain valid, and the appended tail
    is exactly what a delta artifact ships.
    """

    def __init__(
        self,
        seed: MerkleArena,
        pair_tables: Optional[tuple] = None,
    ) -> None:
        count = len(seed)
        self._seed_size = count
        self._store = _NodeStore(capacity=max(1024, count))
        self._store.reserve(count)
        self._store.digests[:count] = seed.digests
        self._store.left[:count] = seed.left
        self._store.right[:count] = seed.right
        if pair_tables is not None:
            # Sorted pair tables carried over from the previous update
            # (see :meth:`sorted_pair_tables`) -- skips the argsort.
            self._seed_keys, self._seed_parents = pair_tables
        else:
            # Seed pair table in vectorized form: sorted packed (left,
            # right) keys of every internal node, probed with searchsorted.
            internal = np.nonzero(seed.left >= 0)[0]
            keys = (seed.left[internal] << np.int64(32)) | seed.right[internal]
            order = np.argsort(keys, kind="stable")
            self._seed_keys = keys[order]
            self._seed_parents = internal[order]
        # Pairs appended during this build, in the same sorted-key form.
        self._new_keys = np.empty(0, dtype=np.int64)
        self._new_parents = np.empty(0, dtype=np.int64)
        self._leaf_index: Optional[Dict[bytes, int]] = None
        self._arena: Optional[MerkleArena] = None

    def sorted_pair_tables(self) -> tuple:
        """Merged sorted ``(keys, parents)`` covering seed plus new pairs.

        Hand these to the next update's :class:`DeltaForestHasher` so it
        starts with ready-made lookup tables.
        """
        if self._new_keys.shape[0] == 0:
            return self._seed_keys, self._seed_parents
        slots = np.searchsorted(self._seed_keys, self._new_keys)
        keys = np.insert(self._seed_keys, slots, self._new_keys)
        parents = np.insert(self._seed_parents, slots, self._new_parents)
        return keys, parents

    # ------------------------------------------------------------------ API
    def intern_leaf(self, payload: bytes, hash_function: HashFunction) -> int:
        """Digest one new leaf payload and return its (deduplicated) node index.

        Matches :meth:`ForestHasher.intern_leaves` semantics: the payload is
        hashed once; if a leaf with the same digest already exists in the
        seeded store it is reused so pair consing stays value-exact.
        """
        if self._arena is not None:
            raise RuntimeError("the forest has been finalized; no more leaves can be interned")
        if self._leaf_index is None:
            store = self._store
            leaves = np.nonzero(store.left[: store.size] < 0)[0]
            self._leaf_index = {
                store.digests[int(index)].tobytes(): int(index) for index in leaves
            }
        digest = hash_function.digest(payload)
        known = self._leaf_index.get(digest)
        if known is None:
            known = self._store.reserve(1)
            self._store.digests[known] = np.frombuffer(digest, dtype=np.uint8)
            self._leaf_index[digest] = known
        return int(known)

    def leaf_index_of(self, digest: bytes) -> Optional[int]:
        """Node index of an existing leaf digest (``None`` when absent)."""
        store = self._store
        if self._leaf_index is None:
            leaves = np.nonzero(store.left[: store.size] < 0)[0]
            self._leaf_index = {
                store.digests[int(index)].tobytes(): int(index) for index in leaves
            }
        return self._leaf_index.get(digest)

    def build(
        self,
        base_row: np.ndarray,
        change_tree: np.ndarray,
        change_col: np.ndarray,
        change_value: np.ndarray,
        tree_count: int,
        hash_function: HashFunction,
    ) -> np.ndarray:
        """Build every tree of the change-point forest; return root indices.

        ``base_row`` is tree 0's full leaf row (node indices, length = the
        shared leaf count); ``(change_tree, change_col, change_value)``
        lists the cells where tree ``t >= 1`` differs from tree ``t - 1``.
        Redundant entries (a listed cell whose value does not actually
        change) are tolerated and compressed away.
        """
        if self._arena is not None:
            raise RuntimeError("the forest has been finalized; no more trees can be built")
        width = int(base_row.shape[0])
        if width < 1:
            raise ValueError("a Merkle tree needs at least one leaf")
        if tree_count < 1:
            raise ValueError("the forest needs at least one tree")
        if np.any(change_tree < 1) or np.any(change_tree >= tree_count):
            raise ValueError("change entries must reference trees 1..tree_count-1")
        tree_bits = np.int64(_TREE_BITS)
        columns = np.concatenate(
            [np.arange(width, dtype=np.int64), np.asarray(change_col, dtype=np.int64)]
        )
        trees = np.concatenate(
            [np.zeros(width, dtype=np.int64), np.asarray(change_tree, dtype=np.int64)]
        )
        values = np.concatenate(
            [np.asarray(base_row, dtype=np.int64), np.asarray(change_value, dtype=np.int64)]
        )
        order = np.argsort((columns << tree_bits) | trees, kind="stable")
        columns, trees, values = columns[order], trees[order], values[order]

        while width > 1:
            paired = width // 2
            odd = width - 2 * paired
            entry_keys = (columns << tree_bits) | trees
            in_pair = columns < 2 * paired
            # Candidate parent cells: one per changed child cell, deduped.
            candidate_keys = np.unique(
                ((columns[in_pair] >> 1) << tree_bits) | trees[in_pair]
            )
            cand_col = candidate_keys >> tree_bits
            cand_tree = candidate_keys & ((np.int64(1) << tree_bits) - 1)
            # Child values at (2c, t) / (2c+1, t): latest change entry with
            # that column and tree <= t.  Every column has a tree-0 entry,
            # so the searchsorted probe always lands inside the column.
            left_at = np.searchsorted(
                entry_keys, ((cand_col * 2) << tree_bits) | cand_tree, side="right"
            )
            right_at = np.searchsorted(
                entry_keys, ((cand_col * 2 + 1) << tree_bits) | cand_tree, side="right"
            )
            left_value = values[left_at - 1]
            right_value = values[right_at - 1]
            parent_value = self._resolve_pairs(left_value, right_value, hash_function)

            next_columns = cand_col
            next_trees = cand_tree
            next_values = parent_value
            if odd:
                carried = columns == width - 1
                next_columns = np.concatenate(
                    [next_columns, np.full(int(carried.sum()), paired, dtype=np.int64)]
                )
                next_trees = np.concatenate([next_trees, trees[carried]])
                next_values = np.concatenate([next_values, values[carried]])
                order = np.argsort(
                    (next_columns << tree_bits) | next_trees, kind="stable"
                )
                next_columns = next_columns[order]
                next_trees = next_trees[order]
                next_values = next_values[order]
            # Compress: drop entries whose value equals the previous entry
            # of the same column (no actual change; tree-0 entries survive
            # because they open their column).
            keep = np.empty(next_columns.shape[0], dtype=bool)
            keep[0] = True
            np.not_equal(next_values[1:], next_values[:-1], out=keep[1:])
            keep[1:] |= next_columns[1:] != next_columns[:-1]
            columns = next_columns[keep]
            trees = next_trees[keep]
            values = next_values[keep]
            width = paired + odd

        roots = np.repeat(values, np.diff(np.append(trees, tree_count)))
        if roots.shape[0] != tree_count:  # pragma: no cover - internal invariant
            raise RuntimeError("delta forest produced a malformed root sequence")
        return roots

    def finalize(self) -> MerkleArena:
        """Freeze the extended node store into an arena (seed nodes first)."""
        if self._arena is None:
            size = self._store.size
            self._arena = MerkleArena(
                digests=self._store.digests[:size],
                left=self._store.left[:size],
                right=self._store.right[:size],
            )
            self._leaf_index = None
        return self._arena

    @property
    def appended_nodes(self) -> int:
        """Nodes added on top of the seed arena (delta-artifact tail size)."""
        return self._store.size - self._seed_size

    # ------------------------------------------------------------ internals
    def _resolve_pairs(
        self, left_value: np.ndarray, right_value: np.ndarray, hash_function: HashFunction
    ) -> np.ndarray:
        """Map ``(left, right)`` child pairs to parent node indices.

        Pairs found in the seed arena (or appended earlier in this build)
        are cache hits; the rest are hashed in one bulk pass and appended.
        """
        pair_keys = (left_value << np.int64(32)) | right_value
        parents = np.empty(pair_keys.shape[0], dtype=np.int64)
        missing = np.ones(pair_keys.shape[0], dtype=bool)
        for keys, targets in ((self._seed_keys, self._seed_parents), (self._new_keys, self._new_parents)):
            if keys.shape[0] == 0:
                continue
            at = np.searchsorted(keys, pair_keys)
            at[at == keys.shape[0]] = keys.shape[0] - 1
            hit = missing & (keys[at] == pair_keys)
            parents[hit] = targets[at[hit]]
            missing &= ~hit
        miss_keys = pair_keys[missing]
        if miss_keys.shape[0]:
            order = np.argsort(miss_keys, kind="stable")
            sorted_miss = miss_keys[order]
            first = np.empty(sorted_miss.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(sorted_miss[1:], sorted_miss[:-1], out=first[1:])
            group = np.cumsum(first) - 1
            fresh_keys = sorted_miss[first]
            start = self._store.append_pair_nodes(
                fresh_keys >> np.int64(32),
                fresh_keys & np.int64(0xFFFFFFFF),
                hash_function,
            )
            fresh_parents = np.arange(
                start, start + fresh_keys.shape[0], dtype=np.int64
            )
            scattered = np.empty(sorted_miss.shape[0], dtype=np.int64)
            scattered[order] = fresh_parents[group]
            parents[missing] = scattered
            merged = np.concatenate([self._new_keys, fresh_keys])
            merged_parents = np.concatenate([self._new_parents, fresh_parents])
            order = np.argsort(merged, kind="stable")
            self._new_keys = merged[order]
            self._new_parents = merged_parents[order]
            hash_function.note_cached(pair_keys.shape[0] - fresh_keys.shape[0])
        else:
            hash_function.note_cached(pair_keys.shape[0])
        return parents
