"""I-tree construction and search.

Two builders assemble the tree:

* The **incremental** builder follows the paper's insertion algorithm
  (section 3.1, step 1): for every pair of functions, the intersection
  ``I_{i,j}`` is inserted with a breadth-first walk from the root; subdomain
  nodes whose region it cuts are converted into intersection nodes, and
  intersection nodes whose region it cuts forward the insertion to both
  children.  It works for any dimension and builds the paper's tree shape
  (the figures use it).  Every leaf's functions are then sorted at an
  interior witness point.

* The **bulk** builder (univariate configuration only) computes all
  pairwise breakpoints in one vectorized numpy pass, sorts them once, and
  emits the *balanced* tree over them directly as pre-order columns
  (:func:`balanced_preorder`, :func:`preorder_columns`) with every leaf's
  sorted order from one vectorized argsort (:func:`sorted_rows`).  The
  node skeleton is then created from those columns by the same loader an
  artifact load uses (:meth:`ITree.from_arrays`), and leaves fill their
  region, witness and sorted view on first use
  (:meth:`ITree.materialize_leaf`).  The partition is identical to the
  incremental builder's; the tree *shape* is the balanced one, which equals
  what the incremental insertion produces when fed the same hyperplanes in
  median-first order (:func:`repro.reference.balanced_incremental_itree`,
  which the tests check column for column and leaf for leaf).

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
        self._insertion_checks = 0
        #: One shared 2-D permutation array covering every leaf's sorted
        #: order (leaves hold lazy views into it).
        self.shared_order: Optional[SharedFunctionOrder] = None
        #: Sorted kept-breakpoint plan (bulk builds and bulk-built artifact
        #: loads).  ``None`` for incremental shapes.
        self.bulk_state: Optional[BulkPlanState] = None
        #: Change points of the shared permutation -- ``(rows, cols, vals)``
        #: of the cells where row ``t`` differs from row ``t - 1`` (bulk
        #: shapes only).  The incremental-update path and the publish
        #: consume these instead of re-diffing the dense matrix.
        self.perm_change = None
        #: The pre-order columns the node skeleton was loaded from
        #: (:func:`tree_columns`); ``None`` for incremental builds.
        self.columns: Optional[Dict[str, np.ndarray]] = None
        if builder == "incremental":
            self.root = ITreeNode(region=Region.full(domain))
            self._build(pairwise_hyperplanes(self.functions))
        else:
            # The balanced tree as pre-order columns, every interval's sort
            # in one argsort, then the artifact loader's node skeleton.
            plan = self._bulk_plan()
            ordered_functions = _functions_by_index(self.functions)
            witnesses = interval_witnesses(plan.breakpoints, domain.lower[0], domain.upper[0])
            permutation = sorted_rows(
                witnesses,
                np.array([f.coefficients[0] for f in ordered_functions], dtype=float),
                np.array([f.constant for f in ordered_functions], dtype=float),
            )
            _skeleton, columns = preorder_columns(plan, witnesses)
            self.bulk_state = plan
            self._insertion_checks = int(plan.breakpoints.shape[0])  # one per split
            self._load_columns(
                columns,
                SharedFunctionOrder(ordered_functions, permutation),
                _permutation_change_points(permutation),
            )

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
        permutation array (see :class:`SharedFunctionOrder`), one row per
        leaf in pre-order; every leaf keeps a lazy view with the exact order
        ``sort_functions_at`` produced, so downstream behaviour is unchanged.
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
        """Stable ids in pre-order traversal order, as the column loader
        assigns them; also counts the nodes and subdomains once."""
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
    def _bulk_plan(self) -> BulkPlanState:
        """Sorted, deduplicated breakpoints plus their hyperplane fields.

        Replicates the incremental path's pruning exactly: hyperplanes whose
        slope difference is below the engine tolerance never split, nor do
        breakpoints outside the open domain interval or within tolerance of
        an already-kept breakpoint (those land on an existing boundary).
        Which near-duplicates survive depends on the pairwise insertion
        order; :func:`replay_tolerance` decides it cluster by cluster.
        """
        tolerance = self.engine.tolerance
        slope_tolerance = max(tolerance, COEFFICIENT_TOLERANCE)
        breakpoints, left, right, normals, offsets = univariate_breakpoints(
            self.functions, slope_tolerance
        )
        low, high = self.domain.lower[0], self.domain.upper[0]
        # The exact float form of IntervalEngine.splits (``low + tol < bp <
        # high - tol``), so the kept set agrees with the incremental builder
        # bit for bit.  Candidates stay in pairwise (insertion) order.
        inside = (breakpoints > low + tolerance) & (breakpoints < high - tolerance)
        breakpoints, left, right, normals, offsets = (
            column[inside] for column in (breakpoints, left, right, normals, offsets)
        )
        members = np.arange(breakpoints.shape[0], dtype=np.int64)
        cluster_of, sizes = tolerance_clusters(breakpoints, tolerance)
        kept = members[replay_tolerance(breakpoints, members, cluster_of, sizes, low, high, tolerance)]
        kept = kept[np.argsort(breakpoints[kept], kind="stable")]
        indices = np.fromiter(
            (f.index for f in self.functions), dtype=np.int64, count=len(self.functions)
        )
        return BulkPlanState(
            breakpoints=breakpoints[kept],
            hyper_i=indices[left[kept]],
            hyper_j=indices[right[kept]],
            hyper_normal=normals[kept],
            hyper_offset=offsets[kept],
        )

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
        :meth:`from_arrays`.  Only an incremental build walks its nodes;
        every other tree writes the columns it was loaded from.
        """
        if self.shared_order is None:
            raise ConstructionError("cannot serialize an unfinalized I-tree")
        columns = self.columns if self.columns is not None else self.walk_columns()
        return encode_tree_arrays(
            columns,
            self.domain.dimension,
            self.shared_order.permutation,
            self.perm_change,
        )

    def walk_columns(self) -> Dict[str, list]:
        """The pre-order columns read off the nodes, every leaf materialised
        (the writer of incremental builds; the tests' check on the rest)."""
        flags: list[int] = []
        hyper_i: list[int] = []
        hyper_j: list[int] = []
        hyper_normal: list[tuple[float, ...]] = []
        hyper_offset: list[float] = []
        leaf_witness: list[tuple[float, ...]] = []
        leaf_row: list[int] = []
        for node in self.root.iter_subtree():
            if node.is_subdomain:
                self.materialize_leaf(node)
                flags.append(1)
                leaf_witness.append(node.witness)
                leaf_row.append(node.sorted_functions.row_index)
            else:
                flags.append(0)
                hyper_i.append(node.hyperplane.i)
                hyper_j.append(node.hyperplane.j)
                hyper_normal.append(node.hyperplane.normal)
                hyper_offset.append(node.hyperplane.offset)
        return {
            "node_is_leaf": flags,
            "hyper_i": hyper_i,
            "hyper_j": hyper_j,
            "hyper_normal": hyper_normal,
            "hyper_offset": hyper_offset,
            "leaf_witness": leaf_witness,
            "leaf_row": leaf_row,
        }

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
        change_points=None,
    ) -> "ITree":
        """Rebuild a finalized tree from :meth:`to_arrays` output.

        No geometry engine runs and nothing is hashed: the node skeleton is
        created by :meth:`_load_columns`, the loader the bulk builder uses
        too.  ``change_points`` (the update path hands in the ones it
        carries) skips re-deriving them from the permutation encoding.
        """
        self = cls.__new__(cls)
        self.functions = list(functions)
        self.domain = domain
        self.engine = engine or make_engine(domain)
        self.counters = counters or Counters()
        self.builder = builder
        self._insertion_checks = 0
        permutation = _decode_permutation(arrays)
        self.bulk_state = None
        if builder == "bulk" and domain.dimension == 1:
            if change_points is None:
                change_points = _decode_change_points(arrays, permutation)
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
        self._load_columns(
            tree_columns(arrays, domain.dimension),
            SharedFunctionOrder(_functions_by_index(self.functions), permutation),
            change_points,
        )
        return self

    def _load_columns(
        self,
        columns: Dict[str, np.ndarray],
        shared_order: SharedFunctionOrder,
        change_points,
    ) -> None:
        """Create the node skeleton from pre-order columns (build and load).

        The skeleton (structure + hyperplanes -- everything a search
        touches) is built eagerly; per-leaf state (region, witness,
        sorted-function view) is *lazy*: :meth:`materialize_leaf` derives it
        on first use with the same arithmetic the incremental builder's
        splits use (the interval rule of
        :class:`~repro.geometry.engine.IntervalEngine` for d = 1, plain
        constraint accumulation for the LP configuration), so every
        materialized region's constraint set -- and therefore every
        multi-signature subdomain digest -- is bit-identical to an eager
        build's.  Queries touch a handful of subdomains, so a server never
        pays for the other hundred thousand; intermediate node regions stay
        ``None`` (nothing reads them after construction).  The nodes are
        exposed in pre-order via :attr:`preorder_internal_nodes` /
        :attr:`preorder_leaf_nodes` so the IFMH layer can attach hashes
        without another traversal.
        """
        flags = columns["node_is_leaf"].tolist()
        hyper_i = columns["hyper_i"].tolist()
        hyper_j = columns["hyper_j"].tolist()
        hyper_normal = columns["hyper_normal"].tolist()
        hyper_offset = columns["hyper_offset"].tolist()
        internal_count = len(hyper_offset)
        leaf_count = columns["leaf_row"].shape[0]
        if len(flags) != internal_count + leaf_count:
            raise ConstructionError(
                f"I-tree arrays disagree: {len(flags)} nodes vs "
                f"{internal_count} internal + {leaf_count} leaves"
            )
        if leaf_count != shared_order.leaf_count:
            raise ConstructionError(
                f"I-tree arrays disagree: {leaf_count} leaves vs "
                f"{shared_order.leaf_count} permutation rows"
            )

        # Hot loop: one node object per array entry, nothing else.  The
        # fast constructors skip (frozen) dataclass __init__ machinery; the
        # values come straight from the validated arrays.
        new_hyperplane = Hyperplane.__new__
        set_frozen = object.__setattr__
        root = ITreeNode(region=Region.full(self.domain))
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
        self.shared_order = shared_order
        self.perm_change = change_points
        self.columns = columns
        self.root = root
        self.preorder_internal_nodes = internal_nodes
        self.preorder_leaf_nodes = leaf_nodes
        self._subdomain_count = leaf_count
        self._node_count = len(flags)

    def materialize_leaf(self, leaf: ITreeNode) -> None:
        """Fill a lazily loaded subdomain's region, witness and sorted view.

        No-op for incremental builds and already-materialized leaves.  The
        region is replayed down the leaf's root path with exactly the
        arithmetic of the incremental builder's splits, so its constraint
        tuple (and interval bounds for d = 1) is bit-identical to an eager
        build's.
        """
        columns = self.columns
        if columns is None or leaf.witness is not None:
            return
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
        leaf.sorted_functions = self.shared_order.view(int(columns["leaf_row"][subdomain_id]))
        # The witness doubles as the done-marker, so it is assigned last:
        # a concurrent materialization that observes it non-None must be
        # able to read every other leaf field (execute_batch is threaded).
        leaf.witness = tuple(columns["leaf_witness"][subdomain_id].tolist())

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
        """Number of subdomain leaves (counted at construction time)."""
        return self._subdomain_count

    @property
    def node_count(self) -> int:
        """Total node count (counted at construction time)."""
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


#: Leaves scored per vectorized chunk of :func:`sorted_rows` (bounds peak
#: memory to ``chunk * n_functions`` floats).
_SORT_CHUNK = 2048


@dataclass(frozen=True)
class _Skeleton:
    """Pre-order layout of the balanced I-tree over ``m`` sorted breakpoints.

    ``flags`` has one entry per node (1 = subdomain leaf); ``internal_mid``
    maps each internal node (pre-order-internal order) to its sorted
    breakpoint index; ``leaf_interval`` maps each leaf (pre-order-leaf
    order, i.e. subdomain-id order) to its left-to-right interval index.
    """

    flags: np.ndarray
    internal_mid: np.ndarray
    leaf_interval: np.ndarray


def balanced_preorder(slopes: np.ndarray) -> _Skeleton:
    """The bulk builder's balanced tree shape over sorted breakpoints.

    Each ``(low, high)`` breakpoint range contributes its median as an
    intersection node; for a positive slope the *above* child covers the
    right (larger-breakpoint) half, for a negative slope the left half.
    The emission order is ``iter_subtree`` pre-order: node, above subtree,
    below subtree.  This is the tree the incremental insertion builds when
    fed the breakpoints median first
    (:func:`repro.reference.balanced_incremental_itree`).
    """
    count = int(slopes.shape[0])
    flags = bytearray(2 * count + 1)
    internal_mid: list[int] = []
    leaf_interval: list[int] = []
    slope_list = slopes.tolist()
    stack = [(0, count)]
    pop = stack.pop
    push = stack.append
    node_id = 0
    while stack:
        low, high = pop()
        if low >= high:
            flags[node_id] = 1
            leaf_interval.append(low)
        else:
            mid = (low + high) // 2
            internal_mid.append(mid)
            # Pre-order: the above subtree is emitted first, so it is pushed last.
            if slope_list[mid] > 0:
                push((low, mid))
                push((mid + 1, high))
            else:
                push((mid + 1, high))
                push((low, mid))
        node_id += 1
    return _Skeleton(
        flags=np.frombuffer(bytes(flags), dtype=np.uint8),
        internal_mid=np.asarray(internal_mid, dtype=np.int64),
        leaf_interval=np.asarray(leaf_interval, dtype=np.int64),
    )


def interval_witnesses(breakpoints: np.ndarray, low: float, high: float) -> np.ndarray:
    """The witness of every interval between consecutive kept breakpoints.

    Left to right; bit-identical to :meth:`IntervalEngine.witness` of the
    interval's region, ``(low + high) / 2.0``.
    """
    bounds = np.concatenate(([low], breakpoints, [high]))
    return (bounds[:-1] + bounds[1:]) / 2.0


def sorted_rows(witnesses: np.ndarray, slopes: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One sorted row per witness: the stable argsort of every score there.

    ``slopes`` / ``constants`` are in index order, so each row lists base
    positions in ascending score order.  The per-element arithmetic
    (``w * slope + constant``) matches :meth:`LinearFunction.evaluate` for
    d = 1 and the stable argsort reproduces ``sort_functions_at`` exactly.
    """
    permutation = np.empty((witnesses.shape[0], slopes.shape[0]), dtype=np.int32)
    for start in range(0, witnesses.shape[0], _SORT_CHUNK):
        chunk = slice(start, start + _SORT_CHUNK)
        scores = witnesses[chunk, None] * slopes[None, :] + constants[None, :]
        permutation[chunk] = np.argsort(scores, axis=1, kind="stable")
    return permutation


def preorder_columns(
    plan: BulkPlanState, witnesses: np.ndarray
) -> tuple[_Skeleton, Dict[str, np.ndarray]]:
    """The balanced tree over ``plan`` as the seven pre-order columns.

    Permutation row ``k`` is interval ``k`` (left to right), so
    ``leaf_row`` is each leaf's interval index.  Shared by the bulk build
    and the incremental update, which therefore emit the same tree.
    """
    skeleton = balanced_preorder(plan.hyper_normal)
    mid = skeleton.internal_mid
    columns = {
        "node_is_leaf": skeleton.flags,
        "hyper_i": plan.hyper_i[mid],
        "hyper_j": plan.hyper_j[mid],
        "hyper_normal": plan.hyper_normal[mid].reshape(-1, 1),
        "hyper_offset": plan.hyper_offset[mid],
        "leaf_witness": witnesses[skeleton.leaf_interval].reshape(-1, 1),
        "leaf_row": skeleton.leaf_interval,
    }
    return skeleton, columns


def tolerance_clusters(values: np.ndarray, tolerance: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster id of every breakpoint candidate, and each cluster's size.

    A cluster is a maximal run (in sorted order) of candidates that the
    tolerance rule lets interact.  Two candidates interact exactly when one
    of the replay's float predicates says so: ``pred + tolerance < value``
    (predecessor side) or ``value < succ - tolerance`` (successor side).  A
    cluster boundary therefore requires BOTH to hold -- computing the gap
    by subtraction is NOT float-equivalent (e.g. with tolerance 0.1:
    fl(1.1) - fl(1.0) > 0.1 yet fl(1.0 + 0.1) == fl(1.1)).  Consecutive
    independence separates whole clusters: fl(a' + t) is monotone in a', so
    any member left of a boundary clears both predicates against any
    member right of it.
    """
    cluster_of = np.empty(values.shape[0], dtype=np.int64)
    if values.shape[0] == 0:
        return cluster_of, np.empty(0, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    starts = np.empty(sorted_values.shape[0], dtype=bool)
    starts[0] = True
    left_values = sorted_values[:-1]
    right_values = sorted_values[1:]
    np.logical_and(
        left_values + tolerance < right_values,
        left_values < right_values - tolerance,
        out=starts[1:],
    )
    cluster_sorted = np.cumsum(starts) - 1
    cluster_of[order] = cluster_sorted
    return cluster_of, np.bincount(cluster_sorted)


def replay_tolerance(
    values: np.ndarray,
    members: np.ndarray,
    cluster_of: np.ndarray,
    sizes: np.ndarray,
    low: float,
    high: float,
    tolerance: float,
) -> np.ndarray:
    """Which candidates the incremental builder keeps (one verdict per member).

    The builder drops a breakpoint iff it lands within tolerance of its
    containing leaf's boundaries, i.e. of its kept neighbours, so which
    near-duplicates survive depends on the insertion order.  ``members``
    (indices into ``values``, in pairwise insertion order) are decided
    cluster by cluster (:func:`tolerance_clusters`): a singleton is always
    kept, and a multi-member cluster is replayed in pairwise order with
    the domain bounds as fallback neighbours.  That is exact because
    interactions never cross a cluster boundary and every candidate clears
    the domain bounds; the full replay over every candidate
    (:func:`repro.reference.full_tolerance_replay`) is the test oracle.
    """
    import bisect

    verdicts = sizes[cluster_of[members]] == 1
    multi = np.nonzero(~verdicts)[0]
    by_cluster: Dict[int, list[int]] = {}
    for position, cluster in zip(multi.tolist(), cluster_of[members[multi]].tolist()):
        by_cluster.setdefault(cluster, []).append(position)
    for positions in by_cluster.values():
        kept_values: list[float] = []
        for position in positions:  # already in pairwise order
            value = float(values[members[position]])
            slot = bisect.bisect_left(kept_values, value)
            predecessor = kept_values[slot - 1] if slot else low
            successor = kept_values[slot] if slot < len(kept_values) else high
            if predecessor + tolerance < value < successor - tolerance:
                kept_values.insert(slot, value)
                verdicts[position] = True
    return verdicts


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


def tree_columns(columns: Dict[str, Sequence], dimension: int) -> Dict[str, np.ndarray]:
    """The seven pre-order structure columns with their artifact dtypes.

    ``columns`` holds ``node_is_leaf`` ... ``leaf_row`` (documented on
    :meth:`ITree.to_arrays`) as lists or arrays; arrays that already carry
    the dtype are returned as they are, not copied.
    """
    hyper_count = len(columns["hyper_offset"])
    leaf_count = len(columns["leaf_row"])
    return {
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


def encode_tree_arrays(
    columns: Dict[str, Sequence],
    dimension: int,
    permutation,
    change_points=None,
) -> Dict[str, np.ndarray]:
    """The artifact arrays of an I-tree, from its pre-order columns.

    Every I-tree publish goes through this one routine -- the columns a
    bulk build, an artifact load or an incremental update holds, and the
    node walk of an incremental build alike -- so the keys, their order
    and their dtypes cannot drift apart; the shared permutation follows
    under the encoding :func:`_encode_permutation` picks.
    """
    arrays = tree_columns(columns, dimension)
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


def _decode_change_points(arrays: dict, permutation):
    """The permutation's change points, from the artifact's row-delta
    encoding when it has one (that encoding *is* the change-point list) or
    from the dense matrix."""
    if "perm_delta_col" in arrays:
        counts = np.asarray(arrays["perm_delta_counts"], dtype=np.int64)
        return (
            np.repeat(np.arange(1, counts.shape[0] + 1, dtype=np.int64), counts),
            np.asarray(arrays["perm_delta_col"], dtype=np.int64),
            np.asarray(arrays["perm_delta_val"], dtype=np.int64),
        )
    if isinstance(permutation, np.ndarray):
        return _permutation_change_points(permutation)
    return None


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
