"""I-tree construction and search.

Two construction paths are available:

* The **incremental** path follows the paper's insertion algorithm (section
  3.1, step 1): for every pair of functions, the intersection ``I_{i,j}`` is
  inserted with a breadth-first walk from the root; subdomain nodes whose
  region it cuts are converted into intersection nodes, and intersection
  nodes whose region it cuts forward the insertion to both children.  It
  works for any dimension and builds the paper's tree shape (the figures
  use it).

* The **bulk** path (univariate configuration only) computes all pairwise
  breakpoints in one vectorized numpy pass, sorts them once, and assembles a
  *balanced* I-tree directly -- no per-hyperplane BFS and no repeated
  ``splits()`` engine calls.  The resulting partition is identical to the
  incremental path's; the tree *shape* is the balanced one, which equals
  what the incremental insertion would produce when fed the same hyperplanes
  in median-first order
  (:func:`repro.reference.balanced_incremental_itree`, which the property
  tests check bit-identical structure and hashes against).

After construction, every leaf's functions are sorted at an interior witness
point -- vectorized over all leaves at once on the bulk path.

Search descends one root-to-leaf path, choosing the *above* child when
``f_i(X) - f_j(X) >= 0`` and the *below* child otherwise, and records the
trace (the visited intersection nodes, the direction taken and the sibling
not taken) -- exactly the nodes the one-signature verification object needs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.core.errors import ConstructionError, QueryProcessingError
from repro.geometry.arrangement import pairwise_hyperplanes, univariate_breakpoints
from repro.geometry.domain import ABOVE, BELOW, Constraint, Domain, Region
from repro.geometry.engine import IntervalEngine, SplitEngine, make_engine
from repro.geometry.functions import COEFFICIENT_TOLERANCE, Hyperplane, LinearFunction
from repro.geometry.sorting import sort_functions_at
from repro.itree.nodes import ITreeNode
from repro.itree.permutation import LazySplicedPermutation, SharedFunctionOrder
from repro.metrics.counters import Counters

__all__ = ["ITree", "SearchStep", "SearchTrace", "BulkPlanState", "BUILDERS"]

#: Supported construction strategies (``"auto"`` resolves to one of the rest).
BUILDERS = ("incremental", "bulk", "auto")

#: Leaves scored per vectorized chunk when finalizing a bulk-built tree
#: (bounds peak memory to ``chunk * n_functions`` floats).
_FINALIZE_CHUNK = 2048


def _functions_by_index(functions: Sequence[LinearFunction]) -> list[LinearFunction]:
    """Functions in ascending ``index`` order, with duplicates rejected.

    The shared permutation stores positions into this ordering; two
    functions with the same ``index`` would make the global order ambiguous
    and silently corrupt every leaf's sorted view (the I-tree mirror of the
    duplicate-record-id check in :class:`repro.ifmh.ifmh_tree.IFMHTree`).
    """
    ordered = sorted(functions, key=lambda f: f.index)
    for previous, current in zip(ordered, ordered[1:]):
        if previous.index == current.index:
            raise ConstructionError(
                f"duplicate function index {current.index}; every function must "
                "carry a unique index for the shared sorted order to be "
                "well-defined"
            )
    return ordered


@dataclass(frozen=True)
class BulkPlanState:
    """The bulk builder's kept-breakpoint plan, in sorted array form.

    Stashed on bulk-built (and bulk-published, artifact-loaded) trees so the
    incremental-update path (:mod:`repro.ifmh.updates`) can splice new
    breakpoints into the plan instead of re-deriving it from the node
    objects.  Column ``k`` of every array describes the ``k``-th kept
    breakpoint in ascending order: its crossing value, the two function
    (record) ids of the pair, and the hyperplane's 1-D normal/offset --
    exactly the fields of the :class:`~repro.geometry.functions.Hyperplane`
    the tree's ``k``-th (by breakpoint order) intersection node carries.
    """

    breakpoints: np.ndarray
    hyper_i: np.ndarray
    hyper_j: np.ndarray
    hyper_normal: np.ndarray
    hyper_offset: np.ndarray

    @classmethod
    def from_hyperplanes(
        cls, breakpoints: np.ndarray, hyperplanes: Sequence[Hyperplane]
    ) -> "BulkPlanState":
        count = len(hyperplanes)
        return cls(
            breakpoints=np.ascontiguousarray(breakpoints, dtype=np.float64),
            hyper_i=np.fromiter((h.i for h in hyperplanes), dtype=np.int64, count=count),
            hyper_j=np.fromiter((h.j for h in hyperplanes), dtype=np.int64, count=count),
            hyper_normal=np.fromiter(
                (h.normal[0] for h in hyperplanes), dtype=np.float64, count=count
            ),
            hyper_offset=np.fromiter(
                (h.offset for h in hyperplanes), dtype=np.float64, count=count
            ),
        )


@dataclass(frozen=True)
class SearchStep:
    """One internal node visited on a root-to-leaf search path."""

    node: ITreeNode
    took_above: bool

    @property
    def sibling(self) -> ITreeNode:
        """The child that was *not* taken."""
        return self.node.below if self.took_above else self.node.above

    @property
    def taken(self) -> ITreeNode:
        """The child that was taken."""
        return self.node.above if self.took_above else self.node.below


@dataclass
class SearchTrace:
    """Result of a subdomain search: the leaf plus the path that led to it."""

    leaf: ITreeNode
    steps: list[SearchStep] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.steps)

    def visited_nodes(self) -> int:
        """Nodes touched by the search (path nodes plus their siblings).

        This matches the paper's server-cost metric: the queue built during
        the search contains every node on the path and each node's sibling.
        """
        return 2 * len(self.steps) + 1


class ITree:
    """The intersection tree over a set of score functions."""

    def __init__(
        self,
        functions: Sequence[LinearFunction],
        domain: Domain,
        engine: Optional[SplitEngine] = None,
        counters: Optional[Counters] = None,
        builder: str = "auto",
    ):
        if not functions:
            raise ConstructionError("cannot build an I-tree over an empty function set")
        dimensions = {f.dimension for f in functions}
        if len(dimensions) != 1:
            raise ConstructionError(f"functions disagree on dimension: {sorted(dimensions)}")
        if dimensions.pop() != domain.dimension:
            raise ConstructionError("function dimension does not match the domain")
        if builder not in BUILDERS:
            raise ConstructionError(f"unknown builder {builder!r}; expected one of {BUILDERS}")
        self.functions = list(functions)
        self.domain = domain
        self.engine = engine or make_engine(domain)
        self.counters = counters or Counters()
        if builder == "auto":
            builder = "bulk" if self._bulk_supported() else "incremental"
        elif builder == "bulk" and not self._bulk_supported():
            raise ConstructionError(
                f"the {builder!r} builder requires a 1-D domain and an IntervalEngine"
            )
        self.builder = builder
        self.root = ITreeNode(region=Region.full(domain))
        self._insertion_checks = 0
        #: One shared 2-D permutation array covering every leaf's sorted
        #: order (set by leaf finalization; leaves hold lazy views into it).
        self.shared_order: Optional[SharedFunctionOrder] = None
        #: Sorted kept-breakpoint plan (bulk builds only; derived lazily for
        #: bulk-published artifact loads).  ``None`` for incremental shapes.
        self.bulk_state: Optional[BulkPlanState] = None
        #: Change points of the shared permutation -- ``(rows, cols, vals)``
        #: of the cells where row ``t`` differs from row ``t - 1`` (bulk
        #: builds only).  The incremental-update path consumes these instead
        #: of re-diffing the dense matrix.
        self.perm_change = None
        #: Set only on artifact-loaded trees (see :meth:`from_arrays`).
        self._lazy_leaf_data = None
        self._subdomain_count: Optional[int] = None
        self._node_count: Optional[int] = None
        if builder == "bulk":
            self._bulk_build()
        else:
            self._build(pairwise_hyperplanes(self.functions))

    @classmethod
    def bulk_build(
        cls,
        functions: Sequence[LinearFunction],
        domain: Domain,
        engine: Optional[SplitEngine] = None,
        counters: Optional[Counters] = None,
    ) -> "ITree":
        """Build a balanced I-tree with the vectorized fast path (d = 1)."""
        return cls(functions, domain, engine=engine, counters=counters, builder="bulk")

    def _bulk_supported(self) -> bool:
        return self.domain.dimension == 1 and isinstance(self.engine, IntervalEngine)

    # ----------------------------------------------- build (incremental BFS)
    def _build(self, hyperplanes: Iterable[Hyperplane]) -> None:
        for hyperplane in hyperplanes:
            self._insert(hyperplane)
        self._finalize_leaves()

    def _insert(self, hyperplane: Hyperplane) -> None:
        """Insert one intersection with the paper's BFS procedure."""
        queue: deque[ITreeNode] = deque([self.root])
        while queue:
            node = queue.popleft()
            self._insertion_checks += 1
            if not self.engine.splits(node.region, hyperplane):
                continue
            if node.is_subdomain:
                above_region, below_region = self.engine.split(node.region, hyperplane)
                node.convert_to_intersection(hyperplane, above_region, below_region)
            else:
                queue.append(node.above)
                queue.append(node.below)

    def _finalize_leaves(self) -> None:
        """Sort the functions of every leaf and assign stable subdomain ids.

        The per-leaf sorted lists are packed into one shared 2-D
        permutation array (see :class:`SharedFunctionOrder`); every leaf
        keeps a lazy view with the exact order ``sort_functions_at``
        produced, so downstream behaviour is unchanged.
        """
        leaves = []
        for node in self.root.iter_subtree():
            if node.is_subdomain:
                node.witness = self.engine.witness(node.region)
                leaves.append((node, sort_functions_at(self.functions, node.witness)))
        ordered_functions = _functions_by_index(self.functions)
        count = len(ordered_functions)
        # One vectorized position lookup for every leaf at once: with indices
        # proven unique, searchsorted over the ascending index array maps each
        # function's index straight to its global position.
        sorted_indices = np.fromiter(
            (f.index for f in ordered_functions), dtype=np.int64, count=count
        )
        index_matrix = np.fromiter(
            (f.index for _node, sorted_list in leaves for f in sorted_list),
            dtype=np.int64,
            count=len(leaves) * count,
        ).reshape(len(leaves), count)
        permutation = np.searchsorted(sorted_indices, index_matrix).astype(np.int32)
        self.shared_order = SharedFunctionOrder(ordered_functions, permutation)
        for row, (node, _sorted_list) in enumerate(leaves):
            node.sorted_functions = self.shared_order.view(row)
        self._assign_subdomain_ids()

    def _assign_subdomain_ids(self) -> None:
        """Stable ids in pre-order traversal order (shared by both builders).

        Also caches the node and subdomain counts: the tree is immutable
        after construction, and the counts are read per benchmark run.
        """
        subdomain_id = 0
        node_count = 0
        for node in self.root.iter_subtree():
            node_count += 1
            if node.is_subdomain:
                node.subdomain_id = subdomain_id
                subdomain_id += 1
        self._subdomain_count = subdomain_id
        self._node_count = node_count

    # ------------------------------------------------- build (bulk, d = 1)
    def _bulk_plan(self) -> tuple[np.ndarray, list[Hyperplane]]:
        """Sorted, deduplicated breakpoints plus their hyperplanes.

        Replicates the incremental path's pruning exactly: hyperplanes whose
        slope difference is below the engine tolerance never split, nor do
        breakpoints outside the open domain interval or within tolerance of
        an already-kept breakpoint (those land on an existing boundary).
        """
        tolerance = self.engine.tolerance
        slope_tolerance = max(tolerance, COEFFICIENT_TOLERANCE)
        breakpoints, left, right, normals, offsets = univariate_breakpoints(
            self.functions, slope_tolerance
        )
        low, high = self.domain.lower[0], self.domain.upper[0]
        inside = (breakpoints > low + tolerance) & (breakpoints < high - tolerance)
        # Candidate columns stay in pairwise (insertion) order here.
        candidates = (
            breakpoints[inside],
            left[inside],
            right[inside],
            normals[inside],
            offsets[inside],
        )
        order = np.argsort(candidates[0], kind="stable")
        sorted_breakpoints = candidates[0][order]
        # All comparisons below use the exact float forms of
        # IntervalEngine.splits (``low + tol < bp < high - tol``) so the kept
        # set agrees with the incremental builder bit for bit.
        if len(sorted_breakpoints) == 0 or np.all(
            sorted_breakpoints[1:] > sorted_breakpoints[:-1] + tolerance
        ):
            # Fast path: no two candidates within tolerance, so every
            # insertion order keeps all of them.
            breakpoints, left, right, normals, offsets = (c[order] for c in candidates)
        else:
            # Tolerance chains: which near-duplicates survive depends on the
            # insertion order, so replay the incremental path's drop rule
            # (a breakpoint is dropped iff it lands within tolerance of its
            # containing leaf's boundaries, i.e. of its kept neighbours) in
            # the same pairwise order -- the kept *set* then matches the
            # incremental builder exactly.
            import bisect

            kept_values: list[float] = []
            kept_positions: list[int] = []
            for position, value in enumerate(candidates[0].tolist()):
                slot = bisect.bisect_left(kept_values, value)
                predecessor = kept_values[slot - 1] if slot else low
                successor = kept_values[slot] if slot < len(kept_values) else high
                if predecessor + tolerance < value < successor - tolerance:
                    kept_values.insert(slot, value)
                    kept_positions.insert(slot, position)
            breakpoints, left, right, normals, offsets = (c[kept_positions] for c in candidates)
        indices = [f.index for f in self.functions]
        hyperplanes = [
            Hyperplane(i=indices[p], j=indices[q], normal=(normal,), offset=offset)
            for p, q, normal, offset in zip(
                left.tolist(), right.tolist(), normals.tolist(), offsets.tolist()
            )
        ]
        return breakpoints, hyperplanes

    def _bulk_build(self) -> None:
        """Assemble a balanced tree directly from the sorted breakpoints.

        Produces exactly the tree that :meth:`_build` would produce when fed
        the kept hyperplanes in median-first order, without any BFS walks or
        redundant ``splits()`` probes.
        """
        breakpoints, hyperplanes = self._bulk_plan()
        self.bulk_state = BulkPlanState.from_hyperplanes(breakpoints, hyperplanes)
        count = len(hyperplanes)
        leaves: list[Optional[ITreeNode]] = [None] * (count + 1)
        stack: list[tuple[ITreeNode, int, int]] = [(self.root, 0, count)]
        while stack:
            node, low, high = stack.pop()
            if low >= high:
                leaves[low] = node
                continue
            mid = (low + high) // 2
            hyperplane = hyperplanes[mid]
            # check=False: the planner vetted every breakpoint at insertion
            # time; re-validating against the final (narrower) bounds here
            # could reject 1-ulp-of-tolerance gaps the incremental insertion
            # would have accepted.
            above_region, below_region = self.engine.split(node.region, hyperplane, check=False)
            above, below = node.convert_to_intersection(hyperplane, above_region, below_region)
            self._insertion_checks += 1
            # The child covering the smaller interval side holds the smaller
            # breakpoints: ``above`` is right of the breakpoint for positive
            # slopes and left of it for negative ones.
            left_child, right_child = (
                (below, above) if hyperplane.normal[0] > 0 else (above, below)
            )
            stack.append((left_child, low, mid))
            stack.append((right_child, mid + 1, high))
        self._finalize_leaves_bulk([leaf for leaf in leaves if leaf is not None])

    def _finalize_leaves_bulk(self, leaves: Sequence[ITreeNode]) -> None:
        """Vectorized leaf finalization: score every leaf witness in one pass.

        Bit-compatible with :meth:`_finalize_leaves`: witnesses come from the
        engine, per-element score arithmetic matches
        :meth:`LinearFunction.evaluate` for d = 1, and the stable argsort over
        index-ordered functions reproduces ``sort_functions_at`` exactly.
        """
        ordered_functions = _functions_by_index(self.functions)
        slopes = np.array([f.coefficients[0] for f in ordered_functions], dtype=float)
        constants = np.array([f.constant for f in ordered_functions], dtype=float)
        for leaf in leaves:
            leaf.witness = self.engine.witness(leaf.region)
        witnesses = np.array([leaf.witness[0] for leaf in leaves], dtype=float)
        # The argsort rows ARE the shared permutation: stored once as a 2-D
        # integer array instead of Theta(leaves) Python lists of references.
        permutation = np.empty((len(leaves), len(ordered_functions)), dtype=np.int32)
        for start in range(0, len(leaves), _FINALIZE_CHUNK):
            chunk = slice(start, start + _FINALIZE_CHUNK)
            scores = witnesses[chunk, None] * slopes[None, :] + constants[None, :]
            permutation[chunk] = np.argsort(scores, axis=1, kind="stable")
        self.shared_order = SharedFunctionOrder(ordered_functions, permutation)
        self.perm_change = _permutation_change_points(permutation)
        for row, leaf in enumerate(leaves):
            leaf.sorted_functions = self.shared_order.view(row)
        self._assign_subdomain_ids()

    # --------------------------------------------------------------- codecs
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize the tree's structure into flat arrays (artifact export).

        The tree is written in pre-order (the :meth:`ITreeNode.iter_subtree`
        order: node, above-subtree, below-subtree).  ``node_is_leaf`` has
        one entry per node; hyperplane columns have one entry per
        intersection node (in pre-order-internal order) and the leaf
        columns one entry per subdomain (in pre-order-leaf order, which is
        subdomain-id order).  Regions are *not* stored: they are fully
        determined by the descent and rebuilt bit-identically by
        :meth:`from_arrays`.
        """
        if self.shared_order is None:
            raise ConstructionError("cannot serialize an unfinalized I-tree")
        if self._lazy_leaf_data is not None:
            # Re-publishing a loaded tree: every leaf must be materialized
            # so its witness and sorted view can be read back out.
            for leaf in self.loaded_leaf_nodes:
                self.materialize_leaf(leaf)
        flags: list[int] = []
        hyper_i: list[int] = []
        hyper_j: list[int] = []
        hyper_normal: list[tuple[float, ...]] = []
        hyper_offset: list[float] = []
        leaf_witness: list[tuple[float, ...]] = []
        leaf_row: list[int] = []
        for node in self.root.iter_subtree():
            if node.is_subdomain:
                flags.append(1)
                leaf_witness.append(node.witness)
                leaf_row.append(node.sorted_functions.row_index)
            else:
                flags.append(0)
                hyper_i.append(node.hyperplane.i)
                hyper_j.append(node.hyperplane.j)
                hyper_normal.append(node.hyperplane.normal)
                hyper_offset.append(node.hyperplane.offset)
        return encode_tree_arrays(
            {
                "node_is_leaf": flags,
                "hyper_i": hyper_i,
                "hyper_j": hyper_j,
                "hyper_normal": hyper_normal,
                "hyper_offset": hyper_offset,
                "leaf_witness": leaf_witness,
                "leaf_row": leaf_row,
            },
            self.domain.dimension,
            self.shared_order.permutation,
            self.perm_change,
        )

    @classmethod
    def from_arrays(
        cls,
        functions: Sequence[LinearFunction],
        domain: Domain,
        arrays: Dict[str, np.ndarray],
        *,
        engine: Optional[SplitEngine] = None,
        counters: Optional[Counters] = None,
        builder: str = "auto",
    ) -> "ITree":
        """Rebuild a finalized tree from :meth:`to_arrays` output.

        No geometry engine runs and nothing is hashed.  The node skeleton
        (structure + hyperplanes -- everything a search touches) is built
        eagerly; per-leaf state (region, witness, sorted-function view) is
        *lazy*: :meth:`materialize_leaf` derives it on first use with the
        same arithmetic the construction-time splits used (the interval
        rule of :class:`~repro.geometry.engine.IntervalEngine` for d = 1,
        plain constraint accumulation for the LP configuration), so every
        materialized region's constraint set -- and therefore every
        multi-signature subdomain digest -- is bit-identical to the
        original build's.  Queries touch a handful of subdomains, so a
        cold-started server never pays for the other hundred thousand;
        intermediate node regions stay ``None`` (nothing reads them after
        construction).  Loaded nodes are exposed in pre-order via
        :attr:`loaded_internal_nodes` / :attr:`loaded_leaf_nodes` so the
        IFMH layer can attach stored hashes without another traversal.
        """
        self = cls.__new__(cls)
        self.functions = list(functions)
        self.domain = domain
        self.engine = engine or make_engine(domain)
        self.counters = counters or Counters()
        self.builder = builder
        self._insertion_checks = 0
        ordered_functions = _functions_by_index(self.functions)
        permutation = _decode_permutation(arrays)
        self.shared_order = SharedFunctionOrder(ordered_functions, permutation)
        self.bulk_state = None
        self.perm_change = None
        if builder == "bulk" and domain.dimension == 1:
            if "perm_delta_col" in arrays:
                # The artifact's row-delta permutation encoding *is* the
                # change-point list the update path wants.
                counts = np.asarray(arrays["perm_delta_counts"], dtype=np.int64)
                self.perm_change = (
                    np.repeat(np.arange(1, counts.shape[0] + 1, dtype=np.int64), counts),
                    np.asarray(arrays["perm_delta_col"], dtype=np.int64),
                    np.asarray(arrays["perm_delta_val"], dtype=np.int64),
                )
            elif isinstance(permutation, np.ndarray):
                self.perm_change = _permutation_change_points(permutation)
            # Re-derive the sorted kept-breakpoint plan from the stored
            # hyperplane columns (same floats, same -offset/slope arithmetic
            # as IntervalEngine._breakpoint), so loaded bulk trees stay
            # eligible for incremental updates.
            normals = np.asarray(arrays["hyper_normal"], dtype=np.float64).reshape(-1)
            offsets = np.asarray(arrays["hyper_offset"], dtype=np.float64)
            breakpoints = -offsets / normals
            order = np.argsort(breakpoints, kind="stable")
            self.bulk_state = BulkPlanState(
                breakpoints=breakpoints[order],
                hyper_i=np.asarray(arrays["hyper_i"], dtype=np.int64)[order],
                hyper_j=np.asarray(arrays["hyper_j"], dtype=np.int64)[order],
                hyper_normal=normals[order],
                hyper_offset=offsets[order],
            )

        flags = np.asarray(arrays["node_is_leaf"], dtype=np.uint8).tolist()
        hyper_i = np.asarray(arrays["hyper_i"], dtype=np.int64).tolist()
        hyper_j = np.asarray(arrays["hyper_j"], dtype=np.int64).tolist()
        hyper_normal = np.asarray(arrays["hyper_normal"], dtype=np.float64).tolist()
        hyper_offset = np.asarray(arrays["hyper_offset"], dtype=np.float64).tolist()
        leaf_witness = np.asarray(arrays["leaf_witness"], dtype=np.float64).tolist()
        leaf_row = np.asarray(arrays["leaf_row"], dtype=np.int64).tolist()
        internal_count = len(hyper_offset)
        leaf_count = len(leaf_row)
        if len(flags) != internal_count + leaf_count:
            raise ConstructionError(
                f"I-tree arrays disagree: {len(flags)} nodes vs "
                f"{internal_count} internal + {leaf_count} leaves"
            )
        if leaf_count != permutation.shape[0]:
            raise ConstructionError(
                f"I-tree arrays disagree: {leaf_count} leaves vs "
                f"{permutation.shape[0]} permutation rows"
            )

        # Hot loop: one node object per array entry, nothing else.  The
        # fast constructors skip (frozen) dataclass __init__ machinery; the
        # values come straight from the validated arrays.
        new_hyperplane = Hyperplane.__new__
        set_frozen = object.__setattr__
        root = ITreeNode(region=Region.full(domain))
        internal_nodes: list[ITreeNode] = []
        leaf_nodes: list[ITreeNode] = []
        stack = [root]
        pop = stack.pop
        push = stack.append
        internal_cursor = 0
        leaf_cursor = 0
        for is_leaf in flags:
            if not stack:
                raise ConstructionError("I-tree node flags describe a malformed tree")
            node = pop()
            if is_leaf:
                node.subdomain_id = leaf_cursor
                leaf_nodes.append(node)
                leaf_cursor += 1
                continue
            hyperplane = new_hyperplane(Hyperplane)
            set_frozen(hyperplane, "i", hyper_i[internal_cursor])
            set_frozen(hyperplane, "j", hyper_j[internal_cursor])
            set_frozen(hyperplane, "normal", tuple(hyper_normal[internal_cursor]))
            set_frozen(hyperplane, "offset", hyper_offset[internal_cursor])
            internal_cursor += 1
            node.hyperplane = hyperplane
            internal_nodes.append(node)
            node.above = above = ITreeNode(region=None, parent=node)
            node.below = below = ITreeNode(region=None, parent=node)
            # Pre-order: the above subtree is consumed before the below one.
            push(below)
            push(above)
        if stack or internal_cursor != internal_count or leaf_cursor != leaf_count:
            raise ConstructionError("I-tree arrays describe a malformed tree")
        self.root = root
        self.loaded_internal_nodes = internal_nodes
        self.loaded_leaf_nodes = leaf_nodes
        self._lazy_leaf_data = (leaf_witness, leaf_row)
        self._subdomain_count = leaf_count
        self._node_count = len(flags)
        return self

    def materialize_leaf(self, leaf: ITreeNode) -> None:
        """Fill a lazily loaded subdomain's region, witness and sorted view.

        No-op for eagerly built trees and already-materialized leaves.  The
        region is replayed down the leaf's root path with exactly the
        arithmetic of the original construction, so its constraint tuple
        (and interval bounds for d = 1) is bit-identical to the eager
        build's.
        """
        data = getattr(self, "_lazy_leaf_data", None)
        if data is None or leaf.witness is not None:
            return
        witnesses, rows = data
        path: list[ITreeNode] = []
        node = leaf
        while node.parent is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        domain = self.domain
        univariate = domain.dimension == 1
        if univariate:
            low, high = domain.lower[0], domain.upper[0]
        else:
            low = high = float("nan")
        constraints: tuple = ()
        set_frozen = object.__setattr__
        new_constraint = Constraint.__new__
        parent = self.root
        for child in path:
            hyperplane = parent.hyperplane
            took_above = parent.above is child
            if univariate:
                # Replicates IntervalEngine.split exactly (same float ops).
                slope = hyperplane.normal[0]
                breakpoint = -hyperplane.offset / slope
                if slope > 0:
                    if took_above:
                        low = breakpoint
                    else:
                        high = breakpoint
                elif took_above:
                    high = breakpoint
                else:
                    low = breakpoint
            constraint = new_constraint(Constraint)
            set_frozen(constraint, "hyperplane", hyperplane)
            set_frozen(constraint, "side", ABOVE if took_above else BELOW)
            constraints = constraints + (constraint,)
            parent = child
        region = Region.__new__(Region)
        set_frozen(region, "domain", domain)
        set_frozen(region, "constraints", constraints)
        set_frozen(region, "interval_low", low)
        set_frozen(region, "interval_high", high)
        subdomain_id = leaf.subdomain_id
        leaf.region = region
        leaf.sorted_functions = self.shared_order.view(rows[subdomain_id])
        # The witness doubles as the done-marker, so it is assigned last:
        # a concurrent materialization that observes it non-None must be
        # able to read every other leaf field (execute_batch is threaded).
        leaf.witness = tuple(witnesses[subdomain_id])

    # ------------------------------------------------------------ accessors
    @property
    def insertion_checks(self) -> int:
        """Number of node-vs-intersection checks performed during the build."""
        return self._insertion_checks

    def leaves(self) -> Iterable[ITreeNode]:
        """All subdomain (leaf) nodes."""
        for node in self.root.iter_subtree():
            if node.is_subdomain:
                yield node

    def internal_nodes(self) -> Iterable[ITreeNode]:
        """All intersection (internal) nodes."""
        for node in self.root.iter_subtree():
            if node.is_intersection:
                yield node

    @property
    def subdomain_count(self) -> int:
        """Number of subdomain leaves (cached at construction time)."""
        if self._subdomain_count is None:
            self._subdomain_count = sum(1 for _ in self.leaves())
        return self._subdomain_count

    @property
    def node_count(self) -> int:
        """Total node count (cached at construction time)."""
        if self._node_count is None:
            self._node_count = sum(1 for _ in self.root.iter_subtree())
        return self._node_count

    def height(self) -> int:
        """Length of the longest root-to-leaf path (root alone = 0)."""
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_subdomain:
                best = max(best, depth)
            else:
                stack.append((node.above, depth + 1))
                stack.append((node.below, depth + 1))
        return best

    # --------------------------------------------------------------- search
    def search(self, weights: Sequence[float], counters: Optional[Counters] = None) -> SearchTrace:
        """Find the subdomain containing ``weights`` and record the path."""
        if not self.domain.contains(weights):
            raise QueryProcessingError(
                f"weight vector {tuple(weights)} lies outside the published domain"
            )
        counters = counters if counters is not None else self.counters
        node = self.root
        steps: list[SearchStep] = []
        counters.add_node()  # the root is always inspected
        while node.is_intersection:
            took_above = node.hyperplane.side_value(weights) >= 0
            counters.add_comparison()
            steps.append(SearchStep(node=node, took_above=took_above))
            node = node.above if took_above else node.below
            # The search enqueues the taken child and its sibling (paper 3.2).
            counters.add_node(2)
        return SearchTrace(leaf=node, steps=steps)

    def locate(self, weights: Sequence[float]) -> ITreeNode:
        """Convenience wrapper returning only the subdomain leaf."""
        return self.search(weights).leaf


#: Rows diffed per chunk when extracting permutation change points (bounds
#: the transient boolean matrix to a few MB however large the build is).
_CHANGE_POINT_CHUNK = 8192


def _permutation_change_points(
    permutation: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, vals)`` of the cells where row ``t`` differs from
    ``t - 1`` -- the representation the incremental-update path consumes
    (and, shifted, what the artifact's row-delta encoding stores).

    Computed eagerly at build time (a ~1% scan of a bulk build) so the
    first incremental update never pays a dense diff; the chunking keeps
    the transient comparison matrix small at any scale.
    """
    total = permutation.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if total <= 1:
        return empty, empty, empty
    rows_out: list = []
    cols_out: list = []
    vals_out: list = []
    for start in range(1, total, _CHANGE_POINT_CHUNK):
        stop = min(start + _CHANGE_POINT_CHUNK, total)
        block = permutation[start:stop]
        changed = block != permutation[start - 1 : stop - 1]
        change_rows, change_cols = np.nonzero(changed)
        rows_out.append(change_rows + start)
        cols_out.append(change_cols.astype(np.int64))
        vals_out.append(block[changed].astype(np.int64))
    return (
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
    )


def encode_tree_arrays(
    columns: Dict[str, Sequence],
    dimension: int,
    permutation,
    change_points=None,
) -> Dict[str, np.ndarray]:
    """The artifact arrays of an I-tree, from its pre-order columns.

    ``columns`` holds the seven structure columns :meth:`ITree.to_arrays`
    documents (``node_is_leaf`` ... ``leaf_row``) as lists or arrays: a
    node walk of a live tree produces lists, an incremental update already
    holds the arrays (:meth:`repro.ifmh.ifmh_tree.IFMHTree.to_arrays`).
    Both go through this one routine, so the keys, their order and their
    dtypes cannot drift apart; the shared permutation follows under the
    encoding :func:`_encode_permutation` picks.
    """
    hyper_count = len(columns["hyper_offset"])
    leaf_count = len(columns["leaf_row"])
    arrays = {
        "node_is_leaf": np.asarray(columns["node_is_leaf"], dtype=np.uint8),
        "hyper_i": np.asarray(columns["hyper_i"], dtype=np.int64),
        "hyper_j": np.asarray(columns["hyper_j"], dtype=np.int64),
        "hyper_normal": np.asarray(columns["hyper_normal"], dtype=np.float64).reshape(
            hyper_count, dimension
        ),
        "hyper_offset": np.asarray(columns["hyper_offset"], dtype=np.float64),
        "leaf_witness": np.asarray(columns["leaf_witness"], dtype=np.float64).reshape(
            leaf_count, dimension
        ),
        "leaf_row": np.asarray(columns["leaf_row"], dtype=np.int64),
    }
    arrays.update(_encode_permutation(permutation, change_points))
    return arrays


def _encode_permutation(permutation, change_points=None) -> dict[str, np.ndarray]:
    """Row-delta encoding of the shared permutation array (artifact export).

    Adjacent subdomains of the 1-D arrangement differ by a single adjacent
    transposition, so consecutive permutation rows are almost identical and
    the dense ``(leaves, n)`` matrix -- by far the largest part of a
    thousand-record artifact -- compresses to the first row plus the
    per-row changed cells.  Rows are compared in storage order whatever the
    builder produced; when the delta form would not actually be smaller
    (tiny trees, adversarial orders) the dense matrix is stored as
    ``permutation`` instead, and the decoder accepts either.  A caller that
    already holds the change points (bulk builds cache them, incremental
    updates carry them) passes them in; otherwise they are derived here.

    With change points in hand only the shape and row 0 are read, so a
    row-lazy :class:`~repro.itree.permutation.LazySplicedPermutation` is
    densified only when the dense form is what gets stored.
    """
    rows, width = permutation.shape
    if rows > 1:
        if change_points is None:
            permutation = np.ascontiguousarray(permutation, dtype=np.int32)
            change_points = _permutation_change_points(permutation)
        change_rows, change_cols, change_vals = change_points
        delta_cells = change_cols.shape[0]
        if 2 * delta_cells + rows + width < rows * width // 2:
            return {
                "perm_row0": np.array(permutation[0], dtype=np.int32),
                "perm_delta_counts": np.bincount(
                    change_rows - 1, minlength=rows - 1
                ).astype(np.int64),
                "perm_delta_col": change_cols.astype(np.int32),
                "perm_delta_val": change_vals.astype(np.int32),
            }
    return {"permutation": np.ascontiguousarray(permutation, dtype=np.int32)}


def _decode_permutation(arrays: dict) -> np.ndarray:
    """Rebuild the dense permutation matrix from either stored encoding."""
    if "permutation" in arrays:
        permutation = arrays["permutation"]
        if isinstance(permutation, LazySplicedPermutation):
            # Incremental updates hand their row-lazy permutation through
            # the same reconstruction path; it stays lazy.
            return permutation
        return np.ascontiguousarray(permutation, dtype=np.int32)
    row0 = np.ascontiguousarray(arrays["perm_row0"], dtype=np.int32)
    counts = np.asarray(arrays["perm_delta_counts"], dtype=np.int64)
    columns = np.ascontiguousarray(arrays["perm_delta_col"], dtype=np.int64)
    values = np.ascontiguousarray(arrays["perm_delta_val"], dtype=np.int32)
    rows = counts.shape[0] + 1
    permutation = np.empty((rows, row0.shape[0]), dtype=np.int32)
    permutation[0] = row0
    bounds = np.empty(rows, dtype=np.int64)
    bounds[0] = 0
    np.cumsum(counts, out=bounds[1:])
    starts = bounds.tolist()
    for row in range(1, rows):
        previous = permutation[row - 1]
        current = permutation[row]
        current[:] = previous
        start, stop = starts[row - 1], starts[row]
        if start != stop:
            current[columns[start:stop]] = values[start:stop]
    return permutation
