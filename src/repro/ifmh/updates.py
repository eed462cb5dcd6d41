"""Incremental IFMH updates: changed-path rebuilds against the persisted arena.

A full IFMH construction at n = 1000 costs tens of seconds; changing one
record used to mean paying all of it again.  This module rebuilds only what
a single-record insert or delete invalidates, while staying
**bit-identical** to a from-scratch build of the final dataset (the
differential property harness in
``tests/properties/test_property_updates.py`` proves it):

1. **Breakpoint plan** -- the pairwise crossing candidates of the final
   function set are recomputed in one vectorized pass (cheap), but the
   order-dependent tolerance *replay* that decides which near-coincident
   candidates survive is only re-run inside "dirty" tolerance clusters --
   maximal runs of candidates closer than the engine tolerance that gained
   or lost a member.  Clean clusters keep their old verdicts verbatim;
   dirty clusters are replayed exactly, including rare tolerance-chain
   cascades that flip a pre-existing breakpoint's verdict (the affected
   subdomains then read as changed intervals and are re-sorted).
2. **Permutation splice** -- subdomains whose interval (and therefore
   witness) is unchanged keep their sorted row: the inserted record is
   spliced in at its rank, or the deleted record's column is cut out.  The
   rank is computed with exactly the float comparisons a fresh stable
   argsort performs, but only functions whose score can actually cross the
   touched record's inside the domain pay a per-witness pass -- for the
   rest one sign test at the witness range's endpoints decides every
   subdomain at once.  Only subdomains whose interval changed (the split
   or merged pieces around touched breakpoints) are re-sorted, and the new
   permutation stays **row-lazy**
   (:class:`repro.itree.permutation.LazySplicedPermutation`): rows
   materialize when a query lands on them, the dense matrix only when a
   publish stores the dense encoding (a publish otherwise writes row 0
   plus the change points of step 3).
3. **Changed-path forest hashing** -- the FMH forest is advanced through
   :class:`repro.merkle.arena.DeltaForestHasher`.  The new leaf matrix is
   never materialized: the update derives its change points (tree ``t`` vs
   ``t - 1``) algebraically from the previous epoch's cached change points
   plus the splice descriptors, every node pair already present in the
   persisted arena is reused by index, and only the genuinely new nodes
   are hashed (bulk passes) and *appended* -- old arena rows stay valid,
   which is exactly what delta artifacts ship.
4. **Skeleton + step-3 propagation** -- the balanced I-tree over the new
   breakpoint plan is emitted directly in pre-order array form (no
   geometry engine, no region objects), intersection hashes are recomputed
   in one reverse-pre-order pass (hyperplane encodings cached across
   epochs), and the node-object reconstruction itself is **deferred**: the
   updated tree serves its root hash and signature immediately and runs
   the proven :meth:`repro.ifmh.ifmh_tree.IFMHTree.from_arrays` cold-start
   path on first query touch, exactly like an artifact load.

Batches apply as a sequence of single-record steps (each step is
bit-identical to a fresh build of its intermediate dataset, hence the
final state matches a fresh build of the final dataset); signing happens
once, at the batch's new epoch.

The incremental path covers the paper-scale configuration: univariate
templates under the interval engine, bulk-built (balanced) trees, batched
hashing.  Everything else -- d >= 2 under the LP engine, the incremental
ablation builders, ``batch_hashing=False`` -- falls back to a full rebuild
behind the same :meth:`repro.core.owner.DataOwner.apply_updates` API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConstructionError
from repro.core.records import Dataset, Record
from repro.crypto.hashing import DIGEST_SIZE, sha256
from repro.geometry.arrangement import univariate_breakpoints
from repro.geometry.engine import IntervalEngine
from repro.geometry.functions import COEFFICIENT_TOLERANCE, Hyperplane
from repro.itree.itree import BulkPlanState
from repro.itree.permutation import LazySplicedPermutation
from repro.merkle.arena import DeltaForestHasher, MerkleArena
from repro.merkle.fmh_tree import MAX_TOKEN, MIN_TOKEN

__all__ = ["IncrementalState", "apply_incremental_update", "balanced_preorder"]

#: Rows scored per vectorized chunk of the re-sort pass.
_RANK_CHUNK = 8192

#: Lazy-permutation chains longer than this are densified before stacking
#: another splice on top (bounds per-row materialization cost and keeps
#: long-lived owners from accumulating unbounded splice descriptors).
_MAX_PERMUTATION_DEPTH = 8

#: Error margin factor for the endpoint sign test that exempts a function
#: from the per-witness rank pass (conservative multiple of the worst-case
#: float rounding of a score evaluation).
_SIGN_MARGIN = 32.0 * np.finfo(np.float64).eps


@dataclass
class IncrementalState:
    """Everything the *next* incremental update needs, no node walks.

    Carried on updated trees and derived once (cheaply) from fresh builds
    or artifact loads.  ``permutation`` rows are in left-to-right interval
    order; ``change_*`` are the permutation's change points (row ``t`` vs
    ``t - 1``); ``interval_roots`` maps each interval to its FMH root's
    arena index; ``hyper_bytes`` caches the canonical encodings of the kept
    breakpoints' hyperplanes (aligned with ``plan``), filled on first use.
    """

    plan: BulkPlanState
    permutation: object
    change_rows: np.ndarray
    change_cols: np.ndarray
    change_vals: np.ndarray
    arena: MerkleArena
    interval_roots: np.ndarray
    leaf_map: Dict[int, int]
    min_index: int
    max_index: int
    hyper_bytes: Optional[List[bytes]] = None
    #: Sorted pair-lookup tables of ``arena`` (carried across updates so
    #: the delta hasher skips re-sorting a million keys each time).
    forest_tables: Optional[tuple] = None


# ---------------------------------------------------------------------------
# Balanced-tree pre-order emission (mirrors ITree._bulk_build exactly)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _Skeleton:
    """Pre-order layout of the balanced I-tree over ``m`` sorted breakpoints.

    ``flags`` has one entry per node (1 = subdomain leaf); ``internal_mid``
    maps each internal node (pre-order-internal order) to its sorted
    breakpoint index, ``internal_node``/``above_node``/``below_node`` to its
    own and its children's pre-order node ids; ``leaf_node``/``leaf_interval``
    map each leaf (pre-order-leaf order, i.e. subdomain-id order) to its
    node id and left-to-right interval index.
    """

    flags: np.ndarray
    internal_mid: np.ndarray
    internal_node: np.ndarray
    above_node: np.ndarray
    below_node: np.ndarray
    leaf_node: np.ndarray
    leaf_interval: np.ndarray


def balanced_preorder(slopes: np.ndarray) -> _Skeleton:
    """Emit the bulk builder's balanced tree shape without building nodes.

    Replicates :meth:`repro.itree.itree.ITree._bulk_build` node for node:
    each ``(low, high)`` breakpoint range contributes its median as an
    intersection node; for a positive slope the *above* child covers the
    right (larger-breakpoint) half, for a negative slope the left half.
    The emission order is ``iter_subtree`` pre-order: node, above subtree,
    below subtree.
    """
    count = int(slopes.shape[0])
    total = 2 * count + 1
    flags = bytearray(total)
    internal_mid: List[int] = []
    internal_node: List[int] = []
    above_node = [0] * count
    below_node = [0] * count
    leaf_node: List[int] = []
    leaf_interval: List[int] = []
    slope_list = slopes.tolist()
    # (low, high, parent_internal_cursor, is_above)
    stack: List[Tuple[int, int, int, bool]] = [(0, count, -1, False)]
    pop = stack.pop
    push = stack.append
    node_id = 0
    while stack:
        low, high, parent, is_above = pop()
        if parent >= 0:
            if is_above:
                above_node[parent] = node_id
            else:
                below_node[parent] = node_id
        if low >= high:
            flags[node_id] = 1
            leaf_node.append(node_id)
            leaf_interval.append(low)
            node_id += 1
            continue
        mid = (low + high) // 2
        internal_mid.append(mid)
        internal_node.append(node_id)
        cursor = len(internal_mid) - 1
        # Pre-order: the above subtree is emitted first, so it is pushed last.
        if slope_list[mid] > 0:
            push((low, mid, cursor, False))
            push((mid + 1, high, cursor, True))
        else:
            push((mid + 1, high, cursor, False))
            push((low, mid, cursor, True))
        node_id += 1
    return _Skeleton(
        flags=np.frombuffer(bytes(flags), dtype=np.uint8),
        internal_mid=np.asarray(internal_mid, dtype=np.int64),
        internal_node=np.asarray(internal_node, dtype=np.int64),
        above_node=np.asarray(above_node, dtype=np.int64),
        below_node=np.asarray(below_node, dtype=np.int64),
        leaf_node=np.asarray(leaf_node, dtype=np.int64),
        leaf_interval=np.asarray(leaf_interval, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Vectorized hyperplane encoding
# ---------------------------------------------------------------------------
#: ``encode_str("hyperplane")``: tag, 8-byte length, payload (19 bytes).
_HYPER_STR = b"\x03" + (10).to_bytes(8, "big") + b"hyperplane"


def _encode_hyperplanes(
    hyper_i: np.ndarray,
    hyper_j: np.ndarray,
    hyper_normal: np.ndarray,
    hyper_offset: np.ndarray,
) -> List[bytes]:
    """``Hyperplane.to_bytes()`` for every column, byte-identical, in bulk.

    The canonical encoding's only variable-width parts are the two record
    ids (``encode_int`` uses the minimal signed big-endian width), so the
    planes are grouped by id widths and each group is assembled as one
    fixed-width byte matrix.  Negative or enormous ids (never produced by
    ``Dataset.from_rows``, but legal) fall back to the object encoder.
    """
    count = int(hyper_i.shape[0])
    result: List[bytes] = [b""] * count
    plain = (hyper_i >= 0) & (hyper_j >= 0) & (hyper_i < 2**55) & (hyper_j < 2**55)
    for index in np.nonzero(~plain)[0].tolist():
        result[index] = Hyperplane(
            i=int(hyper_i[index]),
            j=int(hyper_j[index]),
            normal=(float(hyper_normal[index]),),
            offset=float(hyper_offset[index]),
        ).to_bytes()
    rows = np.nonzero(plain)[0]
    if rows.shape[0] == 0:
        return result

    def int_width(values: np.ndarray) -> np.ndarray:
        # max(1, (bit_length + 8) // 8) for non-negative ints: one byte up
        # to 127, two up to 32767, ...
        width = np.ones(values.shape[0], dtype=np.int64)
        for extra in range(1, 8):
            width += values >= np.int64(1) << np.int64(8 * extra - 1)
        return width

    width_i = int_width(hyper_i[rows])
    width_j = int_width(hyper_j[rows])
    normal_be = (
        np.ascontiguousarray(hyper_normal[rows], dtype=">f8").view(np.uint8).reshape(-1, 8)
    )
    offset_be = (
        np.ascontiguousarray(hyper_offset[rows], dtype=">f8").view(np.uint8).reshape(-1, 8)
    )
    group_key = width_i * 16 + width_j
    for key in np.unique(group_key).tolist():
        members = np.nonzero(group_key == key)[0]
        li, lj = key // 16, key % 16
        payload = 19 + (9 + li) + (9 + lj) + 17 + 17
        total = 9 + payload
        matrix = np.empty((members.shape[0], total), dtype=np.uint8)
        matrix[:, 0] = 6  # sequence tag
        matrix[:, 1:9] = np.frombuffer(payload.to_bytes(8, "big"), dtype=np.uint8)
        matrix[:, 9:28] = np.frombuffer(_HYPER_STR, dtype=np.uint8)
        cursor = 28
        for length, values in ((li, hyper_i[rows[members]]), (lj, hyper_j[rows[members]])):
            matrix[:, cursor] = 1  # int tag
            matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
                length.to_bytes(8, "big"), dtype=np.uint8
            )
            for byte in range(length):
                shift = np.int64(8 * (length - 1 - byte))
                matrix[:, cursor + 9 + byte] = (values >> shift) & np.int64(0xFF)
            cursor += 9 + length
        matrix[:, cursor] = 5  # float-vector tag
        matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
            (8).to_bytes(8, "big"), dtype=np.uint8
        )
        matrix[:, cursor + 9 : cursor + 17] = normal_be[members]
        cursor += 17
        matrix[:, cursor] = 2  # float tag
        matrix[:, cursor + 1 : cursor + 9] = np.frombuffer(
            (8).to_bytes(8, "big"), dtype=np.uint8
        )
        matrix[:, cursor + 9 : cursor + 17] = offset_be[members]
        blob = matrix.tobytes()
        for offset_index, member in enumerate(members.tolist()):
            result[int(rows[member])] = blob[
                offset_index * total : (offset_index + 1) * total
            ]
    return result


# ---------------------------------------------------------------------------
# Differential breakpoint plan
# ---------------------------------------------------------------------------
def _plan_update(
    old_state: BulkPlanState,
    final_functions: Sequence,
    final_positions: Dict[int, int],
    engine: IntervalEngine,
    domain_low: float,
    domain_high: float,
    inserted_id: Optional[int],
    deleted_id: Optional[int],
    deleted_function,
) -> Optional[BulkPlanState]:
    """Kept-breakpoint plan of the final function set, resolved differentially.

    Clean tolerance clusters keep their old verdicts verbatim; dirty ones
    (those that gained or lost a member) are replayed exactly, including
    any cascade that flips a pre-existing candidate's verdict -- the
    affected subdomains then simply read as changed intervals downstream.
    """
    tolerance = engine.tolerance
    slope_tolerance = max(tolerance, COEFFICIENT_TOLERANCE)
    values, left, right, normals, offsets = univariate_breakpoints(
        final_functions, slope_tolerance
    )
    # Same exact float comparisons as ITree._bulk_plan's domain filter.
    inside = (values > domain_low + tolerance) & (values < domain_high - tolerance)
    values, left, right, normals, offsets = (
        values[inside],
        left[inside],
        right[inside],
        normals[inside],
        offsets[inside],
    )
    final_ids = np.fromiter(
        (f.index for f in final_functions), dtype=np.int64, count=len(final_functions)
    )
    cand_i = final_ids[left]
    cand_j = final_ids[right]
    is_new_pair = (
        (cand_i == inserted_id) | (cand_j == inserted_id)
        if inserted_id is not None
        else np.zeros(values.shape[0], dtype=bool)
    )

    # Old kept verdicts, matched by pair identity.  Surviving pairs keep
    # their (i, j) tuple: relative dataset order is preserved by deletes
    # and by appending inserts, so the pair of final positions identifies
    # the pair in both the old and the new candidate enumeration.
    span = np.int64(len(final_functions) + 2)
    cand_key = left.astype(np.int64) * span + right.astype(np.int64)
    position = final_positions.get
    kept_key = np.fromiter(
        (
            position(int(i), -1) * span + position(int(j), -1)
            for i, j in zip(old_state.hyper_i, old_state.hyper_j)
        ),
        dtype=np.int64,
        count=old_state.hyper_i.shape[0],
    )
    kept_key_sorted = np.sort(kept_key)
    at = np.searchsorted(kept_key_sorted, cand_key)
    at[at == kept_key_sorted.shape[0]] = max(kept_key_sorted.shape[0] - 1, 0)
    old_kept = np.zeros(values.shape[0], dtype=bool)
    if kept_key_sorted.shape[0]:
        old_kept = (kept_key_sorted[at] == cand_key) & ~is_new_pair

    # Removed candidates (delete only): crossings of the deleted function
    # with every survivor, inside the domain -- they participated in the old
    # tolerance replay, so clusters that lose one are dirty.
    removed_values = np.empty(0, dtype=np.float64)
    if deleted_function is not None:
        pair = univariate_breakpoints(
            [deleted_function, *final_functions], slope_tolerance
        )
        mask = pair[1] == 0  # pairs involving the deleted function
        removed = pair[0][mask]
        removed_values = removed[
            (removed > domain_low + tolerance) & (removed < domain_high - tolerance)
        ]

    kept = old_kept.copy()
    if values.shape[0]:
        union_values = np.concatenate([values, removed_values])
        order = np.argsort(union_values, kind="stable")
        sorted_values = union_values[order]
        cluster_start = np.empty(sorted_values.shape[0], dtype=bool)
        cluster_start[0] = True
        # Two candidates interact exactly when one of the replay's float
        # predicates says so: ``pred + tolerance < value`` (predecessor
        # side) or ``value < succ - tolerance`` (successor side).  A
        # cluster boundary therefore requires BOTH to hold -- computing
        # the gap by subtraction is NOT float-equivalent (e.g. with
        # tolerance 0.1: fl(1.1) - fl(1.0) > 0.1 yet fl(1.0 + 0.1) ==
        # fl(1.1)).  Consecutive independence separates whole clusters:
        # fl(a' + t) is monotone in a', so any member left of the boundary
        # clears both predicates against any member right of it.
        left_values = sorted_values[:-1]
        right_values = sorted_values[1:]
        np.logical_and(
            left_values + tolerance < right_values,
            left_values < right_values - tolerance,
            out=cluster_start[1:],
        )
        cluster_of_sorted = np.cumsum(cluster_start) - 1
        cluster_of = np.empty(union_values.shape[0], dtype=np.int64)
        cluster_of[order] = cluster_of_sorted
        cluster_count = int(cluster_of_sorted[-1]) + 1
        dirty = np.zeros(cluster_count, dtype=bool)
        dirty[cluster_of[values.shape[0] :]] = True  # lost a member
        dirty[cluster_of[: values.shape[0]][is_new_pair]] = True  # gained one
        # Singleton clusters of a new pair need no replay bookkeeping: an
        # isolated candidate is always kept.  Multi-member dirty clusters
        # are replayed in final pairwise order with the bisect rule of
        # ITree._bulk_plan (interactions never cross a > tolerance gap, so
        # per-cluster replay with the domain bounds as fallback neighbours
        # is exact).
        sizes = np.bincount(cluster_of_sorted, minlength=cluster_count)
        member_cluster = cluster_of[: values.shape[0]]
        replay_mask = dirty[member_cluster]
        kept[is_new_pair & replay_mask & (sizes[member_cluster] == 1)] = True
        multi = replay_mask & (sizes[member_cluster] > 1)
        if np.any(multi):
            import bisect

            by_cluster: Dict[int, List[int]] = {}
            for index in np.nonzero(multi)[0].tolist():
                by_cluster.setdefault(int(member_cluster[index]), []).append(index)
            for members in by_cluster.values():
                kept_values: List[float] = []
                for index in members:  # already in final pairwise order
                    value = float(values[index])
                    slot = bisect.bisect_left(kept_values, value)
                    predecessor = kept_values[slot - 1] if slot else domain_low
                    successor = (
                        kept_values[slot] if slot < len(kept_values) else domain_high
                    )
                    verdict = predecessor + tolerance < value < successor - tolerance
                    if verdict:
                        kept_values.insert(slot, value)
                    # The replay's verdict stands for pre-existing
                    # candidates too: a tolerance cascade that drops an old
                    # kept breakpoint merges its two subdomains, and one
                    # that resurrects a dropped candidate splits a
                    # subdomain -- both read downstream as non-matching
                    # interval bounds, i.e. re-sorted subdomains.
                    kept[index] = verdict

    kept_index = np.nonzero(kept)[0]
    order = np.argsort(values[kept_index], kind="stable")
    kept_index = kept_index[order]
    return BulkPlanState(
        breakpoints=values[kept_index],
        hyper_i=cand_i[kept_index],
        hyper_j=cand_j[kept_index],
        hyper_normal=normals[kept_index],
        hyper_offset=offsets[kept_index],
    )


# ---------------------------------------------------------------------------
# Old-state derivation
# ---------------------------------------------------------------------------
def _derive_state(tree) -> Optional[IncrementalState]:
    """The previous epoch's :class:`IncrementalState` (cheap where stashed)."""
    if tree._incremental_state is not None:
        return tree._incremental_state
    itree = tree.itree
    if itree.builder != "bulk" or itree.bulk_state is None:
        return None
    if itree.perm_change is None or itree.shared_order is None:
        return None
    change_rows, change_cols, change_vals = itree.perm_change
    permutation = itree.shared_order.permutation
    if tree._batched_forest is not None and tree._batched_leaf_map is not None:
        arena, roots, row_ids = tree._batched_forest
        interval_roots = np.empty(roots.shape[0], dtype=np.int64)
        interval_roots[row_ids] = roots
        leaf_map, min_index, max_index = tree._batched_leaf_map
        leaf_map = dict(leaf_map)
    elif tree._lazy_forest is not None:
        lazy = getattr(itree, "_lazy_leaf_data", None)
        if lazy is None:
            return None
        arena, _leaf_count, _records, root_indices = tree._lazy_forest
        witnesses, rows = lazy
        rows = np.asarray(rows, dtype=np.int64)
        witness_values = np.asarray(witnesses, dtype=np.float64).reshape(
            rows.shape[0], -1
        )[:, 0]
        order = np.argsort(witness_values, kind="stable")
        if not np.array_equal(rows[order], np.arange(rows.shape[0], dtype=np.int64)):
            # Rows are not stored in interval order (never the case for
            # bulk builds and their round trips) -- the cached change
            # points would not describe interval transitions.
            return None
        interval_roots = np.asarray(root_indices, dtype=np.int64)[order]
        digest_of = {}
        leaves = np.nonzero(arena.left < 0)[0]
        for index in leaves.tolist():
            digest_of[arena.digests[index].tobytes()] = index
        leaf_map = {}
        for record in tree.dataset.records:
            index = digest_of.get(sha256(record.to_bytes()))
            if index is None:  # pragma: no cover - arena always holds them
                return None
            leaf_map[record.record_id] = index
        min_index = digest_of.get(sha256(MIN_TOKEN))
        max_index = digest_of.get(sha256(MAX_TOKEN))
        if min_index is None or max_index is None:  # pragma: no cover
            return None
    else:
        return None
    return IncrementalState(
        plan=itree.bulk_state,
        permutation=permutation,
        change_rows=np.asarray(change_rows, dtype=np.int64),
        change_cols=np.asarray(change_cols, dtype=np.int64),
        change_vals=np.asarray(change_vals, dtype=np.int64),
        arena=arena,
        interval_roots=interval_roots,
        leaf_map=leaf_map,
        min_index=int(min_index),
        max_index=int(max_index),
    )


# ---------------------------------------------------------------------------
# The single-record update
# ---------------------------------------------------------------------------
def apply_incremental_update(
    tree,
    new_dataset: Dataset,
    *,
    inserted: Optional[Record] = None,
    deleted_id: Optional[int] = None,
    epoch: int,
    sign: bool = True,
):
    """Apply one insert *or* one delete to an IFMH tree, incrementally.

    Returns the updated :class:`~repro.ifmh.ifmh_tree.IFMHTree` (deferred,
    like an artifact load, with old-arena structure shared by index), or
    ``None`` when this tree is not eligible for the changed-path fast path
    -- the caller then rebuilds from scratch.  Exactly one of ``inserted``
    / ``deleted_id`` must be given.
    """
    from repro.ifmh.ifmh_tree import IFMHTree

    if (inserted is None) == (deleted_id is None):
        raise ConstructionError("pass exactly one of inserted / deleted_id")
    if tree.template.dimension != 1:
        return None
    if not tree.batch_hashing:
        return None
    engine = tree.config.make_engine(tree.template.domain)
    if not isinstance(engine, IntervalEngine):
        return None
    state = _derive_state(tree)
    if state is None:
        return None

    domain = tree.template.domain
    domain_low, domain_high = domain.lower[0], domain.upper[0]
    final_functions = tree.template.functions_for(new_dataset)
    final_positions = {record.record_id: p for p, record in enumerate(new_dataset.records)}
    deleted_function = None
    if deleted_id is not None:
        deleted_function = tree.template.function_for(
            tree.records_by_id[deleted_id], tree.dataset
        )

    new_plan = _plan_update(
        state.plan,
        final_functions,
        final_positions,
        engine,
        domain_low,
        domain_high,
        inserted.record_id if inserted is not None else None,
        deleted_id,
        deleted_function,
    )
    if new_plan is None:
        return None

    if (
        isinstance(state.permutation, LazySplicedPermutation)
        and state.permutation.depth >= _MAX_PERMUTATION_DEPTH
    ):
        state.permutation = state.permutation.materialize()

    builder = _UpdateBuilder(tree, new_dataset, final_functions, state, new_plan,
                             domain_low, domain_high)
    result = (
        builder.build_insert(inserted)
        if inserted is not None
        else builder.build_delete(deleted_id)
    )
    arrays, root_hash, new_state = result

    updated = IFMHTree.from_update(
        new_dataset,
        tree.template,
        arrays,
        config=tree.config,
        counters=tree.counters,
        engine=engine,
        epoch=epoch,
        root_hash=root_hash,
        subdomain_count=new_plan.breakpoints.shape[0] + 1,
        incremental_state=new_state,
        signer=tree.signer,
    )
    if sign and tree.signer is not None:
        updated._sign(tree.signer)
    return updated


class _UpdateBuilder:
    """Shared machinery of the insert and delete changed-path rebuilds."""

    def __init__(
        self,
        tree,
        new_dataset: Dataset,
        final_functions,
        state: IncrementalState,
        new_plan: BulkPlanState,
        domain_low: float,
        domain_high: float,
    ):
        self.tree = tree
        self.new_dataset = new_dataset
        self.final_functions = final_functions
        self.state = state
        self.new_plan = new_plan
        self.domain_low = domain_low
        self.domain_high = domain_high
        self.hash_function = tree.hash_function

        # Final base order (ascending record id), as SharedFunctionOrder uses.
        self.final_by_index = sorted(final_functions, key=lambda f: f.index)
        self.final_sorted_ids = np.fromiter(
            (f.index for f in self.final_by_index),
            dtype=np.int64,
            count=len(self.final_by_index),
        )
        self.final_slopes = np.array(
            [f.coefficients[0] for f in self.final_by_index], dtype=np.float64
        )
        self.final_constants = np.array(
            [f.constant for f in self.final_by_index], dtype=np.float64
        )
        self.old_sorted_ids = np.fromiter(
            (record_id for record_id in sorted(tree.records_by_id)),
            dtype=np.int64,
            count=len(tree.records_by_id),
        )

        # New interval geometry.
        breakpoints = new_plan.breakpoints
        count = breakpoints.shape[0]
        self.low_bounds = np.empty(count + 1, dtype=np.float64)
        self.high_bounds = np.empty(count + 1, dtype=np.float64)
        self.low_bounds[0] = domain_low
        self.low_bounds[1:] = breakpoints
        self.high_bounds[-1] = domain_high
        self.high_bounds[:-1] = breakpoints
        # Bit-identical to IntervalEngine.witness: (low + high) / 2.0.
        self.witnesses = (self.low_bounds + self.high_bounds) / 2.0

        # Which new boundary is which old kept breakpoint (matched by pair
        # identity; kept breakpoints are strictly increasing, so the value
        # lookup below is unambiguous for survivors).
        old_breaks = state.plan.breakpoints
        old_pair = set(zip(state.plan.hyper_i.tolist(), state.plan.hyper_j.tolist()))
        survivor = np.fromiter(
            (
                (int(i), int(j)) in old_pair
                for i, j in zip(new_plan.hyper_i, new_plan.hyper_j)
            ),
            dtype=bool,
            count=count,
        )
        self.old_rank = np.full(count, -5, dtype=np.int64)
        if count:
            at = np.searchsorted(old_breaks, breakpoints)
            at[at == old_breaks.shape[0]] = max(old_breaks.shape[0] - 1, 0)
            exact = np.zeros(count, dtype=bool)
            if old_breaks.shape[0]:
                exact = old_breaks[at] == breakpoints
            self.old_rank[survivor & exact] = at[survivor & exact]
        lo_rank = np.empty(count + 1, dtype=np.int64)
        hi_rank = np.empty(count + 1, dtype=np.int64)
        lo_rank[0] = -1
        lo_rank[1:] = self.old_rank
        hi_rank[-1] = old_breaks.shape[0]
        hi_rank[:-1] = self.old_rank
        self.unchanged = (lo_rank >= -1) & (hi_rank >= 0) & (hi_rank == lo_rank + 1)
        self.old_interval = np.clip(lo_rank + 1, 0, max(old_breaks.shape[0], 0))

    # ------------------------------------------------------------ scoring
    def _resorted_rows(self, intervals: np.ndarray) -> Dict[int, np.ndarray]:
        """Stable argsort of the final functions at the given new witnesses.

        Bit-identical to ITree._finalize_leaves_bulk: same broadcasted
        ``w * slope + constant`` arithmetic, same stable argsort.
        """
        witness = self.witnesses[intervals]
        overrides: Dict[int, np.ndarray] = {}
        for start in range(0, intervals.shape[0], _RANK_CHUNK):
            chunk = slice(start, start + _RANK_CHUNK)
            scores = (
                witness[chunk, None] * self.final_slopes[None, :]
                + self.final_constants[None, :]
            )
            rows = np.argsort(scores, axis=1, kind="stable").astype(np.int32)
            for offset, interval in enumerate(intervals[chunk].tolist()):
                overrides[interval] = rows[offset]
        return overrides

    def _insert_ranks(self, witnesses: np.ndarray, g_position: int) -> np.ndarray:
        """Sorted slot the inserted function takes at each witness.

        Counts, with exactly the comparisons a stable argsort over the
        final score vector performs, how many other functions sort before
        the inserted one: strictly smaller score, or equal score and
        smaller base position (the stable tie rule).  Functions whose
        score difference to the inserted one keeps a safely-margined sign
        across the whole witness range (score differences are linear in
        the witness) contribute one count to every rank at once; only the
        few whose sign can flip -- or tie -- pay a per-witness pass.
        """
        other = np.ones(self.final_slopes.shape[0], dtype=bool)
        other[g_position] = False
        slopes = self.final_slopes[other]
        constants = self.final_constants[other]
        before_on_tie = np.nonzero(other)[0] < g_position
        g_slope = self.final_slopes[g_position]
        g_constant = self.final_constants[g_position]

        ranks = np.zeros(witnesses.shape[0], dtype=np.int64)
        if witnesses.shape[0] == 0:
            return ranks
        w_lo = float(witnesses.min())
        w_hi = float(witnesses.max())
        d_lo = (w_lo * slopes + constants) - (w_lo * g_slope + g_constant)
        d_hi = (w_hi * slopes + constants) - (w_hi * g_slope + g_constant)
        w_abs = max(abs(w_lo), abs(w_hi))
        scale = (
            w_abs * (np.abs(slopes) + abs(g_slope))
            + np.abs(constants)
            + abs(g_constant)
        )
        margin = _SIGN_MARGIN * scale
        settled = (
            (np.sign(d_lo) == np.sign(d_hi))
            & (np.abs(d_lo) > margin)
            & (np.abs(d_hi) > margin)
        )
        ranks += int(np.count_nonzero(settled & (d_lo < 0)))

        g_scores = witnesses * g_slope + g_constant
        for index in np.nonzero(~settled)[0].tolist():
            scores = witnesses * slopes[index] + constants[index]
            ranks += scores < g_scores
            if before_on_tie[index]:
                ranks += scores == g_scores
        return ranks

    # -------------------------------------------------------------- shared
    def _transition_entries(
        self,
        lazy: LazySplicedPermutation,
        pure_map,
        special: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Change points of the new permutation (row ``k`` vs ``k - 1``).

        ``pure_map(rows, cols, vals)`` vectorially transforms the cached
        old change points of transitions untouched by the splice; the few
        ``special`` transitions (re-sorted neighbours, rank/cut movement)
        are materialized and diffed row by row.
        """
        state = self.state
        interval_count = self.witnesses.shape[0]
        # Old transition t maps to new transition k where both sides are
        # unchanged intervals with consecutive old intervals.
        old_to_new = np.full(state.permutation.shape[0], -1, dtype=np.int64)
        pure_rows: List[np.ndarray] = []
        pure_cols: List[np.ndarray] = []
        pure_vals: List[np.ndarray] = []
        if interval_count > 1:
            ks = np.arange(1, interval_count, dtype=np.int64)
            pure_ks = ks[~special[1:]]
            old_ts = self.old_interval[pure_ks]
            old_to_new[old_ts] = pure_ks
            selected = old_to_new[state.change_rows] >= 0
            if np.any(selected):
                rows = old_to_new[state.change_rows[selected]]
                cols = state.change_cols[selected]
                vals = state.change_vals[selected]
                rows, cols, vals = pure_map(rows, cols, vals)
                pure_rows.append(rows)
                pure_cols.append(cols)
                pure_vals.append(vals)
        special_ks = np.nonzero(special)[0]
        for k in special_ks.tolist():
            if k == 0:
                continue
            row_a = lazy[k - 1]
            row_b = lazy[k]
            cols = np.nonzero(row_a != row_b)[0]
            pure_rows.append(np.full(cols.shape[0], k, dtype=np.int64))
            pure_cols.append(cols.astype(np.int64))
            pure_vals.append(row_b[cols].astype(np.int64))
        if pure_rows:
            rows = np.concatenate(pure_rows)
            cols = np.concatenate(pure_cols)
            vals = np.concatenate(pure_vals)
            order = np.lexsort((cols, rows))
            return rows[order], cols[order], vals[order]
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty

    def _finish(
        self,
        lazy: LazySplicedPermutation,
        change_rows: np.ndarray,
        change_cols: np.ndarray,
        change_vals: np.ndarray,
        leaf_map: Dict[int, int],
        min_index: int,
        max_index: int,
        hasher: DeltaForestHasher,
    ):
        state = self.state
        new_plan = self.new_plan
        # ---- changed-path forest over the change-point leaf matrix
        leaf_of_position = np.fromiter(
            (leaf_map[int(i)] for i in self.final_sorted_ids),
            dtype=np.int64,
            count=self.final_sorted_ids.shape[0],
        )
        base_perm_row = np.asarray(lazy[0], dtype=np.int64)
        width = base_perm_row.shape[0] + 2
        base_row = np.empty(width, dtype=np.int64)
        base_row[0] = min_index
        base_row[-1] = max_index
        base_row[1:-1] = leaf_of_position[base_perm_row]
        roots = hasher.build(
            base_row,
            change_rows,
            change_cols + 1,
            leaf_of_position[change_vals],
            self.witnesses.shape[0],
            self.hash_function,
        )
        arena = hasher.finalize()

        # ---- balanced skeleton + reverse-pre-order step-3 propagation
        skeleton = balanced_preorder(new_plan.hyper_normal)
        hyper_bytes = self._hyper_bytes()
        intersection, root_hash = self._propagate(skeleton, roots, arena, hyper_bytes)

        arrays: Dict[str, np.ndarray] = {
            "node_is_leaf": skeleton.flags,
            "hyper_i": new_plan.hyper_i[skeleton.internal_mid],
            "hyper_j": new_plan.hyper_j[skeleton.internal_mid],
            "hyper_normal": new_plan.hyper_normal[skeleton.internal_mid].reshape(-1, 1),
            "hyper_offset": new_plan.hyper_offset[skeleton.internal_mid],
            "leaf_witness": self.witnesses[skeleton.leaf_interval].reshape(-1, 1),
            "leaf_row": skeleton.leaf_interval,
            "permutation": lazy,
            "leaf_root_index": roots[skeleton.leaf_interval],
            "intersection_hash": np.frombuffer(
                b"".join(intersection), dtype=np.uint8
            ).reshape(len(intersection), DIGEST_SIZE),
        }
        arena_arrays = arena.to_arrays()
        arrays["arena_digests"] = arena_arrays["digests"]
        arrays["arena_left"] = arena_arrays["left"]
        arrays["arena_right"] = arena_arrays["right"]

        new_state = IncrementalState(
            plan=new_plan,
            permutation=lazy,
            change_rows=change_rows,
            change_cols=change_cols,
            change_vals=change_vals,
            arena=arena,
            interval_roots=roots,
            leaf_map=leaf_map,
            min_index=min_index,
            max_index=max_index,
            hyper_bytes=hyper_bytes,
            forest_tables=hasher.sorted_pair_tables(),
        )
        return arrays, root_hash, new_state

    def _hyper_bytes(self) -> List[bytes]:
        """Canonical encodings of the new plan's hyperplanes (cache-reusing).

        Survivor breakpoints reuse the previous epoch's cached bytes; the
        rest -- everything on the first update, a handful afterwards -- go
        through the vectorized bulk encoder.
        """
        new_plan = self.new_plan
        old_bytes = self.state.hyper_bytes
        if old_bytes is None:
            return _encode_hyperplanes(
                new_plan.hyper_i,
                new_plan.hyper_j,
                new_plan.hyper_normal,
                new_plan.hyper_offset,
            )
        count = new_plan.breakpoints.shape[0]
        result: List[bytes] = [b""] * count
        missing = np.nonzero(self.old_rank < 0)[0]
        if missing.shape[0]:
            fresh = _encode_hyperplanes(
                new_plan.hyper_i[missing],
                new_plan.hyper_j[missing],
                new_plan.hyper_normal[missing],
                new_plan.hyper_offset[missing],
            )
            for position, index in enumerate(missing.tolist()):
                result[index] = fresh[position]
        old_rank = self.old_rank.tolist()
        for k in range(count):
            rank = old_rank[k]
            if rank >= 0:
                result[k] = old_bytes[rank]
        return result

    def _propagate(
        self,
        skeleton: _Skeleton,
        roots: np.ndarray,
        arena: MerkleArena,
        hyper_bytes: List[bytes],
    ) -> Tuple[List[bytes], bytes]:
        """Reverse-pre-order step-3 propagation over the new skeleton.

        Returns the intersection digests (pre-order-internal order) and the
        root hash.  One logical and one physical hash per intersection
        node, exactly like the stack walk of IFMHTree._propagate_hashes.
        """
        bind = self.tree.bind_intersections
        leaf_roots = roots[skeleton.leaf_interval]
        leaf_blob = arena.digests[leaf_roots].tobytes()
        total = skeleton.flags.shape[0]
        digests: List[Optional[bytes]] = [None] * total
        for ordinal, node in enumerate(skeleton.leaf_node.tolist()):
            start = ordinal * DIGEST_SIZE
            digests[node] = leaf_blob[start : start + DIGEST_SIZE]
        sha = sha256
        internal_nodes = skeleton.internal_node.tolist()
        above = skeleton.above_node.tolist()
        below = skeleton.below_node.tolist()
        mids = skeleton.internal_mid.tolist()
        prefix = DIGEST_SIZE.to_bytes(8, "big")
        for cursor in range(len(internal_nodes) - 1, -1, -1):
            above_digest = digests[above[cursor]]
            below_digest = digests[below[cursor]]
            if bind:
                plane = hyper_bytes[mids[cursor]]
                preimage = (
                    len(plane).to_bytes(8, "big")
                    + plane
                    + prefix
                    + above_digest
                    + prefix
                    + below_digest
                )
            else:
                preimage = prefix + above_digest + prefix + below_digest
            digests[internal_nodes[cursor]] = sha(preimage)
        count = len(internal_nodes)
        if count:
            self.tree.counters.add_hash(count)
            self.tree.counters.add_physical_hash(count)
            self.hash_function.call_count += count
            self.hash_function.physical_count += count
        intersection = [digests[node] for node in internal_nodes]
        return intersection, digests[0]

    # ------------------------------------------------------------- insert
    def build_insert(self, record: Record):
        state = self.state
        leaf_map = dict(state.leaf_map)
        hasher = DeltaForestHasher(state.arena, pair_tables=state.forest_tables)
        leaf_map[record.record_id] = hasher.intern_leaf(
            record.to_bytes(), self.hash_function
        )
        g_position = int(np.searchsorted(self.old_sorted_ids, record.record_id))

        interval_count = self.witnesses.shape[0]
        intervals = np.arange(interval_count, dtype=np.int64)
        changed = intervals[~self.unchanged]
        overrides = self._resorted_rows(changed) if changed.shape[0] else {}

        ranks = np.zeros(interval_count, dtype=np.int64)
        unchanged_idx = intervals[self.unchanged]
        if unchanged_idx.shape[0]:
            ranks[unchanged_idx] = self._insert_ranks(
                self.witnesses[unchanged_idx], g_position
            )
        lazy = LazySplicedPermutation(
            state.permutation,
            self.old_interval,
            "insert",
            g_position,
            ranks,
            overrides,
        )

        special = np.zeros(interval_count, dtype=bool)
        special[~self.unchanged] = True
        if interval_count > 1:
            # Transitions whose rank moves need a direct row diff; so do
            # transitions bordering a re-sorted interval.
            moved = np.zeros(interval_count, dtype=bool)
            moved[1:] = ranks[1:] != ranks[:-1]
            transition_special = special.copy()
            transition_special[1:] |= special[:-1]
            transition_special |= moved
        else:
            transition_special = special

        def pure_map(rows, cols, vals):
            rank = ranks[rows]
            return (
                rows,
                cols + (cols >= rank),
                vals + (vals >= g_position),
            )

        change_rows, change_cols, change_vals = self._transition_entries(
            lazy, pure_map, transition_special
        )
        return self._finish(
            lazy,
            change_rows,
            change_cols,
            change_vals,
            leaf_map,
            state.min_index,
            state.max_index,
            hasher,
        )

    # ------------------------------------------------------------- delete
    def build_delete(self, record_id: int):
        state = self.state
        leaf_map = dict(state.leaf_map)
        leaf_map.pop(record_id, None)
        hasher = DeltaForestHasher(state.arena, pair_tables=state.forest_tables)
        d_position = int(np.searchsorted(self.old_sorted_ids, record_id))

        # The deleted record's column in every *old* row, tracked through
        # the cached change points: it starts at its slot in row 0 and
        # moves exactly where a change entry writes its base position.
        old_rows = state.permutation.shape[0]
        first_row = np.asarray(state.permutation[0])
        cuts_old = np.empty(old_rows, dtype=np.int64)
        cuts_old[:] = int(np.nonzero(first_row == d_position)[0][0])
        moved = state.change_vals == d_position
        if np.any(moved):
            move_rows = state.change_rows[moved]
            move_cols = state.change_cols[moved]
            order = np.argsort(move_rows, kind="stable")
            move_rows = move_rows[order]
            move_cols = move_cols[order]
            bounds = np.append(move_rows, old_rows)
            for index in range(move_rows.shape[0]):
                cuts_old[bounds[index] : bounds[index + 1]] = move_cols[index]

        interval_count = self.witnesses.shape[0]
        intervals = np.arange(interval_count, dtype=np.int64)
        changed = intervals[~self.unchanged]
        overrides = self._resorted_rows(changed) if changed.shape[0] else {}
        cuts = cuts_old[self.old_interval]
        lazy = LazySplicedPermutation(
            state.permutation,
            self.old_interval,
            "delete",
            d_position,
            cuts,
            overrides,
        )

        special = np.zeros(interval_count, dtype=bool)
        special[~self.unchanged] = True
        if interval_count > 1:
            moved_cut = np.zeros(interval_count, dtype=bool)
            moved_cut[1:] = cuts[1:] != cuts[:-1]
            transition_special = special.copy()
            transition_special[1:] |= special[:-1]
            transition_special |= moved_cut
        else:
            transition_special = special

        def pure_map(rows, cols, vals):
            cut = cuts[rows]
            return (
                rows,
                cols - (cols > cut),
                vals - (vals > d_position),
            )

        change_rows, change_cols, change_vals = self._transition_entries(
            lazy, pure_map, transition_special
        )
        return self._finish(
            lazy,
            change_rows,
            change_cols,
            change_vals,
            leaf_map,
            state.min_index,
            state.max_index,
            hasher,
        )
