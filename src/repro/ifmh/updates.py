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
   candidates survive (:func:`repro.itree.itree.replay_tolerance`, the
   build's routine) is only re-run inside "dirty" tolerance clusters --
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
4. **Columns + step-3 propagation** -- the balanced I-tree over the new
   breakpoint plan is emitted as pre-order columns by
   :func:`repro.itree.itree.preorder_columns` and hashed by
   :func:`repro.ifmh.propagation.propagate_batched` (hyperplane encodings
   cached across epochs) -- the assembly and the propagation a bulk build
   runs -- and the node-object reconstruction itself is **deferred**: the
   updated tree serves its root hash and signature immediately and runs
   the column loader of an artifact load on first query touch.

Batches apply as a sequence of single-record steps (each step is
bit-identical to a fresh build of its intermediate dataset, hence the
final state matches a fresh build of the final dataset); signing happens
once, at the batch's new epoch.

The incremental path covers the paper-scale configuration: univariate
templates under the interval engine, bulk-built (balanced) trees.
Everything else -- d >= 2 under the LP engine, the incremental I-tree
builder -- falls back to a full rebuild behind the same
:meth:`repro.core.owner.DataOwner.apply_updates` API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConstructionError
from repro.core.records import Dataset, Record
from repro.crypto.hashing import sha256
from repro.geometry.arrangement import univariate_breakpoints
from repro.geometry.engine import IntervalEngine
from repro.geometry.functions import COEFFICIENT_TOLERANCE
from repro.ifmh import propagation
from repro.itree.itree import (
    BulkPlanState,
    interval_witnesses,
    preorder_columns,
    replay_tolerance,
    sorted_rows,
    tolerance_clusters,
)
from repro.itree.permutation import LazySplicedPermutation
from repro.merkle.arena import DeltaForestHasher, MerkleArena
from repro.merkle.fmh_tree import MAX_TOKEN, MIN_TOKEN

__all__ = ["IncrementalState", "apply_incremental_update"]

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
) -> BulkPlanState:
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
        cluster_of, sizes = tolerance_clusters(
            np.concatenate([values, removed_values]), tolerance
        )
        dirty = np.zeros(sizes.shape[0], dtype=bool)
        dirty[cluster_of[values.shape[0] :]] = True  # lost a member
        dirty[cluster_of[: values.shape[0]][is_new_pair]] = True  # gained one
        # Dirty clusters are replayed in final pairwise order (a dirty
        # singleton is a new pair, always kept).  The replay's verdict
        # stands for pre-existing candidates too: a tolerance cascade that
        # drops an old kept breakpoint merges its two subdomains, and one
        # that resurrects a dropped candidate splits a subdomain -- both
        # read downstream as non-matching interval bounds, i.e. re-sorted
        # subdomains.
        member_cluster = cluster_of[: values.shape[0]]
        replayed = np.nonzero(dirty[member_cluster])[0]
        kept[replayed] = replay_tolerance(
            values, replayed, member_cluster, sizes, domain_low, domain_high, tolerance
        )

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
    if itree.bulk_state is None or itree.perm_change is None:  # not a bulk shape
        return None
    change_rows, change_cols, change_vals = itree.perm_change
    permutation = itree.shared_order.permutation
    columns = itree.columns
    arena, _leaf_count, _records, root_indices = tree._forest
    rows = columns["leaf_row"]
    order = np.argsort(columns["leaf_witness"][:, 0], kind="stable")
    if not np.array_equal(rows[order], np.arange(rows.shape[0], dtype=np.int64)):
        # Rows are not stored in interval order (never the case for bulk
        # builds and their round trips) -- the cached change points would
        # not describe interval transitions.
        return None
    interval_roots = root_indices[order]
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

    if (
        isinstance(state.permutation, LazySplicedPermutation)
        and state.permutation.depth >= _MAX_PERMUTATION_DEPTH
    ):
        state.permutation = state.permutation.materialize()

    builder = _UpdateBuilder(tree, final_functions, state, new_plan, domain_low, domain_high)
    result = (
        builder.build_insert(inserted)
        if inserted is not None
        else builder.build_delete(deleted_id)
    )
    columns, arena, leaf_roots, intersection, root_hash, new_state = result

    updated = IFMHTree.from_update(
        new_dataset,
        tree.template,
        columns,
        arena=arena,
        root_indices=leaf_roots,
        intersection_hashes=intersection,
        config=tree.config,
        counters=tree.counters,
        engine=engine,
        epoch=epoch,
        root_hash=root_hash,
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
        final_functions,
        state: IncrementalState,
        new_plan: BulkPlanState,
        domain_low: float,
        domain_high: float,
    ):
        self.tree = tree
        self.state = state
        self.new_plan = new_plan
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
        self.witnesses = interval_witnesses(breakpoints, domain_low, domain_high)

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
        """The sorted rows of the given new intervals, as a fresh build sorts them."""
        rows = sorted_rows(self.witnesses[intervals], self.final_slopes, self.final_constants)
        return dict(zip(intervals.tolist(), rows))

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

        # ---- the balanced tree's pre-order columns + step-3 propagation
        skeleton, columns = preorder_columns(new_plan, self.witnesses)
        columns["permutation"] = lazy
        hyper_bytes = self._hyper_bytes()
        leaf_roots = roots[skeleton.leaf_interval]
        intersection, root_hash = propagation.propagate_batched(
            skeleton.flags,
            arena.digests[leaf_roots].tobytes(),
            (
                [hyper_bytes[mid] for mid in skeleton.internal_mid.tolist()]
                if self.tree.bind_intersections
                else None
            ),
            self.hash_function,
        )

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
        return columns, arena, leaf_roots, intersection, root_hash, new_state

    def _hyper_bytes(self) -> List[bytes]:
        """Canonical encodings of the new plan's hyperplanes (cache-reusing).

        Survivor breakpoints reuse the previous epoch's cached bytes; the
        rest -- everything on the first update, a handful afterwards -- go
        through the vectorized bulk encoder.
        """
        new_plan = self.new_plan
        old_bytes = self.state.hyper_bytes
        if old_bytes is None:
            return propagation.encode_hyperplanes(
                new_plan.hyper_i,
                new_plan.hyper_j,
                new_plan.hyper_normal,
                new_plan.hyper_offset,
            )
        count = new_plan.breakpoints.shape[0]
        result: List[bytes] = [b""] * count
        missing = np.nonzero(self.old_rank < 0)[0]
        if missing.shape[0]:
            fresh = propagation.encode_hyperplanes(
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
