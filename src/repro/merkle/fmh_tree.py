"""The Function Merkle Hash tree (FMH-tree).

One FMH-tree is built per subdomain, over that subdomain's sorted function
list bracketed by the two special boundary tokens ``f_min`` and ``f_max``
(paper section 3.1, step 2).  Leaf ``0`` is the ``f_min`` token, leaf
``i + 1`` is the ``i``-th item of the sorted list, and the last leaf is the
``f_max`` token.  The tree's root becomes the subdomain node's hash in the
IMH-tree.

The tree is generic over the *items* it authenticates: anything exposing a
canonical ``to_bytes()`` works.  The IFMH construction passes the records
corresponding to the sorted functions (the paper uses records and functions
interchangeably), so the whole record -- id, attributes and label -- is
bound by the root hash.

The FMH-tree also knows how to produce the *function verification object*
(FV) for a result window: a contiguous Merkle range proof covering the
window plus its two boundary leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol, Sequence, runtime_checkable

from repro.crypto.hashing import HashFunction
from repro.merkle.mh_tree import MerkleTree, RangeProof
from repro.queryproc.window import ResultWindow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.merkle.engine import MerkleBuildEngine

__all__ = ["FMHTree", "MIN_TOKEN", "MAX_TOKEN", "BoundaryEntry", "Hashable"]

#: Canonical byte encodings of the two boundary tokens.  They are public
#: constants: the verifying client hashes them locally, so a malicious
#: server cannot substitute a real record for a token or vice versa.
MIN_TOKEN = b"repro:fmh:min-token"
MAX_TOKEN = b"repro:fmh:max-token"


@runtime_checkable
class Hashable(Protocol):
    """Anything with a canonical byte encoding (records, functions, ...)."""

    def to_bytes(self) -> bytes:
        """Canonical encoding used as the Merkle leaf pre-image."""


@dataclass(frozen=True)
class BoundaryEntry:
    """One boundary of a result window as shipped inside a VO.

    Either a real neighbouring item (``item`` set) or one of the two
    tokens (``token`` set to ``"min"`` or ``"max"``).
    """

    leaf_index: int
    item: Optional[Hashable] = None
    token: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.item is None) == (self.token is None):
            raise ValueError("a boundary entry is either an item or a token, not both")
        if self.token is not None and self.token not in ("min", "max"):
            raise ValueError(f"unknown boundary token {self.token!r}")

    @property
    def is_token(self) -> bool:
        return self.token is not None

    def leaf_bytes(self) -> bytes:
        """The bytes whose hash is this boundary's leaf."""
        if self.token == "min":
            return MIN_TOKEN
        if self.token == "max":
            return MAX_TOKEN
        return self.item.to_bytes()


class FMHTree:
    """Merkle tree over ``[f_min] + sorted items + [f_max]``.

    Parameters
    ----------
    sorted_items:
        The subdomain's sorted function/record list.
    hash_function:
        Counting SHA-256 wrapper (a fresh uncounted one by default).
    engine:
        Optional shared-structure construction engine
        (:class:`repro.merkle.engine.MerkleBuildEngine`).  When given, leaf
        digests are interned in the engine's pool and internal nodes are
        hash-consed across every tree built with the same engine; the
        resulting tree (root, levels, proofs) is bit-identical either way.
    """

    def __init__(
        self,
        sorted_items: Sequence[Hashable],
        hash_function: Optional[HashFunction] = None,
        engine: Optional["MerkleBuildEngine"] = None,
    ):
        self._hash = hash_function or HashFunction()
        self.sorted_items = list(sorted_items)
        if engine is None:
            leaf_hashes = [self._hash.digest(MIN_TOKEN)]
            leaf_hashes.extend(self._hash.digest(item.to_bytes()) for item in self.sorted_items)
            leaf_hashes.append(self._hash.digest(MAX_TOKEN))
            self.tree = MerkleTree(leaf_hashes, hash_function=self._hash)
        else:
            hash_function = self._hash
            leaf_hashes = [engine.token_digest(MIN_TOKEN, hash_function)]
            leaf_hashes.extend(
                engine.leaf_digest(item, hash_function) for item in self.sorted_items
            )
            leaf_hashes.append(engine.token_digest(MAX_TOKEN, hash_function))
            self.tree = MerkleTree(
                leaf_hashes, hash_function=hash_function, node_cache=engine.node_cache
            )

    @classmethod
    def from_prebuilt(
        cls,
        sorted_items: Sequence[Hashable],
        tree: MerkleTree,
        hash_function: HashFunction,
    ) -> "FMHTree":
        """Wrap an already-built Merkle tree (the batched construction path).

        ``sorted_items`` may be any read-only sequence (e.g. a lazy
        :class:`repro.itree.permutation.PermutedView` over the shared
        permutation array) and is *not* copied; ``tree`` is typically an
        arena-backed view that reads each proof from the arena's child
        arrays and holds no digest lists.
        The resulting object is observationally identical to one built
        through :meth:`__init__` over the same items.
        """
        self = cls.__new__(cls)
        self._hash = hash_function
        self.sorted_items = sorted_items
        self.tree = tree
        return self

    # ------------------------------------------------------------ accessors
    @property
    def root(self) -> bytes:
        return self.tree.root

    @property
    def item_count(self) -> int:
        return len(self.sorted_items)

    @property
    def leaf_count(self) -> int:
        return self.tree.leaf_count

    @property
    def node_count(self) -> int:
        return self.tree.node_count

    def leaf_index_of_position(self, position: int) -> int:
        """Leaf index of the sorted-list position (offset by the min token)."""
        return position + 1

    # ----------------------------------------------------------------- FV
    def window_proof(self, window: ResultWindow) -> tuple[BoundaryEntry, BoundaryEntry, RangeProof]:
        """Boundary entries and range proof for a result window.

        The proven leaf range covers the window plus its immediate left and
        right neighbours, which may be the ``f_min`` / ``f_max`` tokens.
        """
        if window.size != self.item_count:
            raise ValueError(
                f"window refers to a list of {window.size} items, "
                f"but this FMH-tree holds {self.item_count}"
            )
        left = self._boundary_for_position(window.left_boundary_position)
        right = self._boundary_for_position(window.right_boundary_position)
        proof = self.tree.range_proof(left.leaf_index, right.leaf_index)
        return left, right, proof

    def _boundary_for_position(self, position: int) -> BoundaryEntry:
        if position < 0:
            return BoundaryEntry(leaf_index=0, token="min")
        if position >= self.item_count:
            return BoundaryEntry(leaf_index=self.leaf_count - 1, token="max")
        return BoundaryEntry(
            leaf_index=self.leaf_index_of_position(position),
            item=self.sorted_items[position],
        )

    # --------------------------------------------------------- verification
    @staticmethod
    def root_from_window(
        result_items: Sequence[Hashable],
        left: BoundaryEntry,
        right: BoundaryEntry,
        proof: RangeProof,
        hash_function: Optional[HashFunction] = None,
    ) -> bytes:
        """Recompute the FMH root from a window's items, boundaries and proof.

        The verifier hashes the boundary bytes and every result item
        itself; only off-range hashes come from the proof.  Any substituted,
        dropped or reordered item therefore changes the recomputed root.
        """
        if left.leaf_index != proof.start or right.leaf_index != proof.end:
            raise ValueError(
                f"window boundaries sit at leaves ({left.leaf_index}, {right.leaf_index}) "
                f"but the range proof covers leaves [{proof.start}, {proof.end}]: "
                "the proof does not anchor this window"
            )
        hashes = hash_function or HashFunction()
        leaf_hashes = [hashes.digest(left.leaf_bytes())]
        leaf_hashes.extend(hashes.digest(item.to_bytes()) for item in result_items)
        leaf_hashes.append(hashes.digest(right.leaf_bytes()))
        expected = proof.end - proof.start + 1
        if len(leaf_hashes) != expected:
            raise ValueError(
                f"window carries {len(leaf_hashes)} leaves but the proof covers {expected}"
            )
        return MerkleTree.root_from_range(leaf_hashes, proof, hash_function=hashes)
