"""I-tree nodes.

A node starts life as a *subdomain node* (a leaf describing one region of
the weight space).  When an intersection hyperplane is found to cut its
region, the node is converted in place into an *intersection node* with two
fresh subdomain children -- this mirrors the paper's insertion algorithm,
which rewrites the dequeued node rather than re-linking its parent.

Every node also carries a ``hash_value`` attribute (initially ``None``, the
paper's "invalid" marker) that the IMH-tree construction fills in bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.geometry.domain import Region
from repro.geometry.functions import Hyperplane, LinearFunction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.merkle.fmh_tree import FMHTree

__all__ = ["ITreeNode"]


@dataclass
class ITreeNode:
    """A node of the I-tree (subdomain leaf or intersection internal node)."""

    region: Region
    hyperplane: Optional[Hyperplane] = None
    above: Optional["ITreeNode"] = None
    below: Optional["ITreeNode"] = None
    parent: Optional["ITreeNode"] = field(default=None, repr=False)
    #: Filled for subdomain nodes once the functions have been sorted.
    witness: Optional[tuple[float, ...]] = None
    #: The leaf's functions in ascending score order.  After finalization
    #: this is a lazy :class:`repro.itree.permutation.PermutedView` over the
    #: tree's shared permutation array (list semantics for reads); the
    #: plain-list default only exists pre-finalization.
    sorted_functions: Sequence[LinearFunction] = field(default_factory=list)
    #: Merkle hash, ``None`` until the IMH propagation computes it
    #: (the paper's "0 / invalid" default).
    hash_value: Optional[bytes] = None
    #: FMH-tree attached to subdomain nodes by the IFMH construction (step 2).
    #: Neighbouring subdomains' trees share leaf digests and internal nodes
    #: in the construction engine's arena, but each leaf still owns an
    #: independent ``FMHTree`` view of its list.
    fmh_tree: Optional["FMHTree"] = None
    #: Lazily cached ``(coefficient_matrix, constant_vector)`` numpy pair over
    #: the sorted functions, filled by :meth:`repro.ifmh.IFMHTree.leaf_scores`
    #: so server-side scoring is a single matvec.
    score_cache: object = None
    #: Per-subdomain signature in multi-signature mode.
    signature: Optional[bytes] = None
    #: Stable identifier assigned to subdomain leaves after construction.
    subdomain_id: Optional[int] = None

    # ------------------------------------------------------------ queries
    @property
    def is_subdomain(self) -> bool:
        """True for leaves (subdomain nodes)."""
        return self.hyperplane is None

    @property
    def is_intersection(self) -> bool:
        """True for internal nodes (intersection nodes)."""
        return self.hyperplane is not None

    @property
    def children(self) -> tuple[Optional["ITreeNode"], Optional["ITreeNode"]]:
        return self.above, self.below

    # ----------------------------------------------------------- mutation
    def convert_to_intersection(
        self,
        hyperplane: Hyperplane,
        above_region: Region,
        below_region: Region,
    ) -> tuple["ITreeNode", "ITreeNode"]:
        """Turn this subdomain leaf into an intersection node with two leaves.

        Returns the two new children ``(above, below)``.
        """
        if self.is_intersection:
            raise ValueError("only subdomain nodes can be converted")
        self.hyperplane = hyperplane
        self.above = ITreeNode(region=above_region, parent=self)
        self.below = ITreeNode(region=below_region, parent=self)
        # A converted node no longer represents a single subdomain.
        self.witness = None
        self.sorted_functions = []
        return self.above, self.below

    # ---------------------------------------------------------- traversal
    def iter_subtree(self) -> Iterator["ITreeNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.is_intersection:
                stack.append(node.below)
                stack.append(node.above)

    def depth(self) -> int:
        """Distance to the root (root has depth 0)."""
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def branch_for(self, weights: Sequence[float]) -> "ITreeNode":
        """The child on whose side the weight vector lies (intersection nodes)."""
        if self.is_subdomain:
            raise ValueError("subdomain nodes have no branches")
        if self.hyperplane.side_value(weights) >= 0:
            return self.above
        return self.below
