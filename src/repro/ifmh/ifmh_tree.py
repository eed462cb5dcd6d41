"""IFMH-tree construction (paper section 3.1, steps 1-4).

Step 1 builds the I-tree (delegated to :class:`repro.itree.ITree`); step 2
builds one FMH-tree per subdomain over its sorted record list -- all of them
at once, level by level, through
:class:`repro.merkle.engine.MerkleBuildEngine`; step 3 propagates hashes
bottom-up through the intersection nodes; step 4 signs the structure,
either once at the root (*one-signature*) or once per subdomain
(*multi-signature*).  :func:`repro.reference.naive_ifmh_tree` builds the
same tree one subdomain at a time, as the reference tests compare against.

A d = 1 bulk build, an artifact load and an incremental update all hold
the tree as pre-order columns: their nodes come from one column loader,
step 3 is one pass over the columns, FMH views attach on a subdomain's
first use, and a publish writes the columns back.  Only incremental-builder
trees (d >= 2, LP) walk their nodes for step 3 and for a publish.

Hardening note: the paper computes an intersection node's hash as
``H(a.h | b.h)``.  That does not bind *which* intersection the node stores,
so a malicious server could present a search path with altered branch
conditions.  By default this implementation binds the intersection
hyperplane into the hash (``H(enc(I_ij) | a.h | b.h)``); a config with
``bind_intersections=False`` gets the exact paper behaviour (exercised by
tests and an ablation benchmark).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import MULTI_SIGNATURE, ONE_SIGNATURE, SystemConfig
from repro.core.errors import ConstructionError
from repro.core.parallel import resolve_worker_count
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.crypto.hashing import DIGEST_SIZE, HashFunction, epoch_bound_combine
from repro.crypto.signer import Signer
from repro.geometry.engine import SplitEngine
from repro.ifmh import propagation
from repro.itree.itree import ITree, SearchTrace, encode_tree_arrays
from repro.itree.nodes import ITreeNode
from repro.itree.permutation import PermutedView
from repro.merkle.arena import ArenaMerkleTree, MerkleArena
from repro.merkle.engine import MerkleBuildEngine
from repro.merkle.fmh_tree import FMHTree, MAX_TOKEN, MIN_TOKEN
from repro.metrics.counters import Counters
from repro.metrics.sizes import DEFAULT_SIZE_MODEL, SizeModel

__all__ = ["IFMHTree", "ONE_SIGNATURE", "MULTI_SIGNATURE"]

#: The builder a deferred update's I-tree reloads under: the incremental
#: update path only ever maintains bulk-built (balanced) trees.
_DEFERRED_BUILDER = "bulk"


class IFMHTree:
    """The Intersection and Function Merkle Hash tree.

    Parameters
    ----------
    dataset / template:
        The outsourced table and its utility-function template; every record
        is interpreted as a linear score function over the template's weight
        domain.
    config:
        The build configuration (:class:`SystemConfig`; the default one when
        omitted).  Its ``scheme`` must be ``"one-signature"`` or
        ``"multi-signature"``; ``bind_intersections`` binds each
        intersection's identity into its node hash (hardened default;
        ``False`` reproduces the paper's exact hash rule), and
        ``build_mode`` picks the I-tree construction strategy (see
        :data:`repro.itree.itree.BUILDERS`): ``"auto"`` takes the vectorized
        balanced bulk build for the univariate interval configuration and
        the paper's incremental insertion elsewhere (d >= 2, custom
        engines).
    signer:
        The data owner's signing key (any :class:`repro.crypto.Signer`).
    hash_function:
        Counting SHA-256 wrapper; supply one wired to the owner's counters
        to measure construction cost.
    engine:
        Geometry engine override (defaults to the right engine for the
        template's dimension).
    counters:
        Owner-side counters (signatures created, hash operations).
    construction_workers:
        Shard the batched forest build across this many forked worker
        processes (``0`` means every available core, ``None``/``1`` stays
        serial).  Roots, proofs and both hash counters are bit-identical
        at any worker count, so this is a wall-clock knob only -- it is
        deliberately *not* part of :class:`SystemConfig` and never affects
        published artifacts.
    """

    def __init__(
        self,
        dataset: Dataset,
        template: UtilityTemplate,
        *,
        config: Optional[SystemConfig] = None,
        signer: Optional[Signer] = None,
        hash_function: Optional[HashFunction] = None,
        engine: Optional[SplitEngine] = None,
        counters: Optional[Counters] = None,
        construction_workers: Optional[int] = None,
        epoch: int = 0,
    ):
        if config is None:
            config = SystemConfig()
        if not config.is_ifmh:
            raise ConstructionError(
                f"unknown IFMH mode {config.scheme!r}; expected "
                f"{ONE_SIGNATURE!r} or {MULTI_SIGNATURE!r}"
            )
        self._init_common(dataset, template, config, counters, hash_function, signer, epoch)
        if engine is None and config.tolerance is not None:
            engine = config.make_engine(template.domain)

        functions = template.functions_for(dataset)
        self.itree = ITree(
            functions,
            template.domain,
            engine=engine,
            counters=self.counters,
            builder=config.build_mode,
        )
        workers = (
            1 if construction_workers is None else resolve_worker_count(construction_workers)
        )
        merkle_engine = MerkleBuildEngine(workers=workers)
        self._attach_forest(*self._build_forest(merkle_engine))
        if self.itree.columns is None:
            self._attach_leaf_hashes(self.itree.leaves())
        self._propagate_hashes()
        #: Hit/size statistics of the construction engine's tables (``None``
        #: on trees that were loaded or updated rather than built).  Only
        #: the snapshot survives: the tables themselves are Theta(n^2 log n)
        #: and useless after construction, so they are dropped with the
        #: engine when this method returns.
        self.merkle_engine_stats: Optional[Dict[str, int]] = merkle_engine.stats()
        self.root_signature: Optional[bytes] = None
        if signer is not None:
            self._sign(signer)

    def _init_common(
        self,
        dataset: Dataset,
        template: UtilityTemplate,
        config: SystemConfig,
        counters: Optional[Counters],
        hash_function: Optional[HashFunction],
        signer: Optional[Signer],
        epoch: int = 0,
    ) -> None:
        """State shared by fresh construction and artifact reconstruction."""
        if len(dataset) == 0:
            raise ConstructionError("cannot build an IFMH-tree over an empty dataset")
        if epoch < 0:
            raise ConstructionError(f"epoch must be >= 0, got {epoch}")
        self.config = config
        self.dataset = dataset
        self.template = template
        self.mode = config.scheme
        self.bind_intersections = config.bind_intersections
        self.counters = counters or Counters()
        self.hash_function = hash_function or HashFunction(self.counters)
        self.signer = signer
        #: ADS epoch: 0 for an initial build, bumped by every applied update
        #: batch and bound into all signed messages from epoch 1 on.
        self.epoch = int(epoch)
        #: ``(arena, fmh_leaf_count, ordered_records, root_indices)``, roots
        #: in subdomain order: a leaf's FMH view attaches from it on first
        #: use.  ``None`` only on the naive reference (list-based trees).
        self._forest = None
        #: Intersection digests in pre-order, ``(internal_nodes, 32)``, on
        #: column-backed trees (bulk builds, loads, updates): what a publish
        #: writes without walking the nodes.
        self._intersection_hashes: Optional[np.ndarray] = None
        #: Multi-signature subdomain signatures in subdomain order, once signed.
        self._leaf_signatures: Optional[List[bytes]] = None
        #: Set by the incremental updater: everything the *next* update
        #: needs without touching (or materializing) the node structures.
        self._incremental_state = None
        self.records_by_id: Dict[int, Record] = {}
        for record in dataset:
            if record.record_id in self.records_by_id:
                raise ConstructionError(
                    f"duplicate record id {record.record_id} in dataset; every record "
                    "must have a unique id for the FMH leaf lists to be well-defined"
                )
            self.records_by_id[record.record_id] = record

    # ------------------------------------------------------------- step 2
    def _build_forest(self, engine: MerkleBuildEngine):
        """Build one FMH-tree per subdomain leaf over its sorted record list.

        Every subdomain's FMH-tree covers the same ``n + 2`` leaves
        (``f_min``, the n records in that subdomain's order, ``f_max``), so
        the whole forest is one integer matrix: row ``t`` holds subdomain
        ``t``'s arena leaf indices, assembled by fancy-indexing the I-tree's
        shared permutation array.  The engine advances all rows one level at
        a time and hashes each level's new preimages in one bulk pass, so
        only structure not seen in any earlier subdomain is physically
        hashed.  Returns the arena and the roots in subdomain order.
        """
        shared = self.itree.shared_order
        hash_function = self.hash_function
        #: Records in base (ascending record-id) order -- position p holds
        #: the record of shared.functions[p], so permutation rows apply.
        ordered_records = [self.records_by_id[f.index] for f in shared.functions]
        payloads = [record.to_bytes() for record in ordered_records]
        payloads.append(MIN_TOKEN)
        payloads.append(MAX_TOKEN)
        leaf_indices = engine.intern_leaf_batch(payloads, hash_function)
        record_leaf_index = leaf_indices[:-2]
        min_index, max_index = int(leaf_indices[-2]), int(leaf_indices[-1])

        columns = self.itree.columns
        # Subdomains in pre-order; the incremental builder numbers its
        # permutation rows in that order too.
        row_ids = (
            columns["leaf_row"]
            if columns is not None
            else np.arange(shared.leaf_count, dtype=np.int64)
        )
        tree_count = row_ids.shape[0]
        leaf_count = len(ordered_records) + 2
        # int32 halves the resident footprint at n = 2000 (the builder
        # widens to int64 chunk by chunk for the shifted pair keys).
        leaf_matrix = np.empty((tree_count, leaf_count), dtype=np.int32)
        leaf_matrix[:, 0] = min_index
        leaf_matrix[:, -1] = max_index
        for start in range(0, tree_count, 65536):
            stop = start + 65536
            leaf_matrix[start:stop, 1:-1] = record_leaf_index[
                shared.permutation[row_ids[start:stop]]
            ]
        roots = engine.build_forest(leaf_matrix, hash_function)
        return engine.finalize_arena(), roots

    def _attach_forest(self, arena: MerkleArena, root_indices) -> None:
        """Keep the forest for first-touch FMH views (every production tree)."""
        ordered_records = [self.records_by_id[key] for key in sorted(self.records_by_id)]
        self._forest = (
            arena,
            len(ordered_records) + 2,
            ordered_records,
            np.asarray(root_indices, dtype=np.int64),
        )

    def _attach_leaf_hashes(self, leaves) -> None:
        """Give subdomain leaves (in subdomain order) their FMH root digests."""
        arena, _fmh_leaf_count, _records, root_indices = self._forest
        digest_size = self.hash_function.digest_size
        root_blob = arena.digests[root_indices].tobytes()
        for position, node in enumerate(leaves):
            node.hash_value = root_blob[position * digest_size : (position + 1) * digest_size]

    def _attach_hashes(self, itree: ITree) -> None:
        """Attach the stored digests and signatures to a column-backed
        I-tree's nodes: one blob slice per node, from its pre-order lists."""
        digest_size = self.hash_function.digest_size
        intersection_blob = self._intersection_hashes.tobytes()
        for position, node in enumerate(itree.preorder_internal_nodes):
            node.hash_value = intersection_blob[
                position * digest_size : (position + 1) * digest_size
            ]
        self._attach_leaf_hashes(itree.preorder_leaf_nodes)
        if self._leaf_signatures is not None:
            for node, signature in zip(itree.preorder_leaf_nodes, self._leaf_signatures):
                node.signature = signature

    # ------------------------------------------------------------- step 3
    def _propagate_hashes(self) -> None:
        """Compute intersection-node hashes bottom-up (paper step 3).

        A column-backed I-tree (the bulk builder) hashes its pre-order
        columns in one pass (:func:`repro.ifmh.propagation.propagate_batched`,
        which incremental updates run too) and attaches the digests like
        an artifact load.  Other tree shapes (the incremental builder) take
        the paper's per-node stack walk.  Digests and both hash counters are
        bit-identical either way.
        """
        columns = self.itree.columns
        if columns is not None:
            arena, _fmh_leaf_count, _records, root_indices = self._forest
            planes = None
            if self.bind_intersections:
                planes = propagation.encode_hyperplanes(
                    columns["hyper_i"],
                    columns["hyper_j"],
                    columns["hyper_normal"][:, 0],
                    columns["hyper_offset"],
                )
            intersections, _root = propagation.propagate_batched(
                columns["node_is_leaf"],
                arena.digests[root_indices].tobytes(),
                planes,
                self.hash_function,
            )
            self._intersection_hashes = _digest_matrix(intersections)
            self._attach_hashes(self.itree)
            return
        stack = [self.itree.root]
        while stack:
            node = stack[-1]
            if node.is_subdomain:
                stack.pop()
                continue
            above, below = node.above, node.below
            missing = [child for child in (above, below) if child.hash_value is None]
            if missing:
                stack.extend(missing)
                continue
            node.hash_value = self._intersection_hash(node)
            stack.pop()

    def _intersection_hash(self, node: ITreeNode) -> bytes:
        if self.bind_intersections:
            return self.hash_function.combine(
                node.hyperplane.to_bytes(), node.above.hash_value, node.below.hash_value
            )
        return self.hash_function.combine(node.above.hash_value, node.below.hash_value)

    # ------------------------------------------------------------- step 4
    def signed_root_message(self) -> bytes:
        """The message the one-signature root signature covers.

        Epoch 0 signs the raw root hash (the paper's rule, unchanged for
        initial builds); later epochs bind the epoch token into the message
        so a stale pre-update root cannot be replayed against a client that
        knows the current epoch.
        """
        if self.epoch == 0:
            return self.root_hash
        return epoch_bound_combine(self.hash_function, self.epoch, self.root_hash)

    def _sign(self, signer: Signer) -> None:
        if self.mode == ONE_SIGNATURE:
            self.root_signature = signer.sign(self.signed_root_message())
            self.counters.add_signature_created()
            return
        signatures = []
        for leaf in self.itree.leaves():
            leaf.signature = signer.sign(self.subdomain_digest(leaf))
            signatures.append(leaf.signature)
            self.counters.add_signature_created()
        self._leaf_signatures = signatures

    def subdomain_digest(self, leaf: ITreeNode) -> bytes:
        """Multi-signature message for a subdomain node.

        The paper hashes the subdomain's inequality set, concatenates the
        result with the subdomain node's hash (its FMH root) and hashes
        again; the final digest is what gets signed.  From epoch 1 on the
        epoch token is combined in as well (see :meth:`signed_root_message`).
        """
        self.itree.materialize_leaf(leaf)
        inequality_hash = self.hash_function.digest(leaf.region.constraint_bytes())
        return epoch_bound_combine(
            self.hash_function, self.epoch, inequality_hash, leaf.hash_value
        )

    # --------------------------------------------------------------- codecs
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Serialize the full ADS into flat arrays (artifact export).

        The result bundles the I-tree structure arrays
        (:func:`repro.itree.itree.encode_tree_arrays`), the FMH forest in
        arena form (``arena_*`` plus one root index per subdomain, in
        subdomain order), every intersection node's hash (pre-order) and --
        in multi-signature mode -- the per-subdomain signatures.

        A column-backed tree -- built by the bulk builder, loaded, or
        incrementally updated -- writes its own columns: no node walk, no
        leaf materialisation, and a deferred update's row-lazy permutation
        is densified only if the dense encoding is the one stored (the
        update stays deferred).  Only an incremental build walks its nodes
        (:meth:`walk_arrays`).
        """
        if self.mode == MULTI_SIGNATURE and self._leaf_signatures is None:
            raise ConstructionError("cannot serialize an unsigned multi-signature tree")
        if self._intersection_hashes is None:
            return self.walk_arrays()
        arena, _fmh_leaf_count, _records, root_indices = self._forest
        payload = self.__dict__.get("_deferred_load")
        if payload is None:
            tree_arrays = self.itree.to_arrays()
        else:
            columns, _engine = payload
            state = self._incremental_state
            tree_arrays = encode_tree_arrays(
                columns,
                self.template.dimension,
                columns["permutation"],
                (state.change_rows, state.change_cols, state.change_vals),
            )
        return self._ads_arrays(
            tree_arrays, arena, root_indices, self._intersection_hashes, self._leaf_signatures
        )

    def walk_arrays(self) -> Dict[str, np.ndarray]:
        """:meth:`to_arrays` read off the nodes, every leaf materialised.

        The writer of incremental builds.  On a column-backed tree it
        recomputes every array from the nodes and the dense permutation,
        which the tests compare with what the columns write.
        """
        leaves = list(self._materialized_leaves())
        arena = leaves[0].fmh_tree.tree.arena
        root_indices = np.fromiter(
            (leaf.fmh_tree.tree.root_index for leaf in leaves),
            dtype=np.int64,
            count=len(leaves),
        )
        intersection_hashes = _digest_matrix(
            [node.hash_value for node in self.itree.root.iter_subtree() if node.is_intersection]
        )
        signatures = (
            [leaf.signature for leaf in leaves] if self.mode == MULTI_SIGNATURE else None
        )
        tree_arrays = encode_tree_arrays(
            self.itree.walk_columns(),
            self.template.dimension,
            self.itree.shared_order.permutation,
        )
        return self._ads_arrays(tree_arrays, arena, root_indices, intersection_hashes, signatures)

    def _ads_arrays(
        self,
        arrays: Dict[str, np.ndarray],
        arena: MerkleArena,
        root_indices: np.ndarray,
        intersection_matrix: np.ndarray,
        signatures: Optional[list],
    ) -> Dict[str, np.ndarray]:
        """Append the forest, intersection hashes and signatures to the
        I-tree arrays -- the one assembly both :meth:`to_arrays` paths use."""
        arena_arrays = arena.to_arrays()
        arrays["arena_digests"] = arena_arrays["digests"]
        # Child indices fit int32 far below the arena's 2^32-node cap; the
        # loader widens back to int64.  Halves the on-disk index volume.
        child_dtype = np.int32 if len(arena) < 2**31 else np.int64
        arrays["arena_left"] = arena_arrays["left"].astype(child_dtype)
        arrays["arena_right"] = arena_arrays["right"].astype(child_dtype)
        arrays["leaf_root_index"] = root_indices.astype(child_dtype)
        arrays["intersection_hash"] = intersection_matrix
        if signatures is not None:
            if any(signature is None for signature in signatures):
                raise ConstructionError("cannot serialize an unsigned multi-signature tree")
            sizes = {len(signature) for signature in signatures}
            if len(sizes) != 1:
                raise ConstructionError("subdomain signatures disagree on size")
            arrays["leaf_signature"] = np.frombuffer(
                b"".join(signatures), dtype=np.uint8
            ).reshape(len(signatures), sizes.pop())
        return arrays

    @classmethod
    def from_arrays(
        cls,
        dataset: Dataset,
        template: UtilityTemplate,
        arrays: Dict[str, np.ndarray],
        *,
        config: SystemConfig,
        root_signature: Optional[bytes] = None,
        builder: str = "auto",
        counters: Optional[Counters] = None,
        engine: Optional[SplitEngine] = None,
        epoch: int = 0,
    ) -> "IFMHTree":
        """Rebuild a fully functional tree from :meth:`to_arrays` output.

        **Nothing is re-hashed**: every digest (subdomain FMH roots,
        intersection hashes, the signed root) comes straight out of the
        loaded arrays, so the fresh counters attached to the returned tree
        stay at zero and subsequent queries produce verification objects
        and cost counters bit-identical to the original in-process build.
        Per-subdomain FMH views (and lazily loaded leaf regions) attach on
        first query touch -- a cold-started server pays for the subdomains
        it serves, not the whole forest.  The private signing key never
        ships in an artifact, so the loaded tree carries signatures but no
        signer.
        """
        if not config.is_ifmh:
            raise ConstructionError(
                f"IFMH arrays require an IFMH scheme, got {config.scheme!r}"
            )
        self = cls.__new__(cls)
        self._init_common(dataset, template, config, counters, None, None, epoch)
        self.merkle_engine_stats = None
        if engine is None:
            engine = config.make_engine(template.domain)
        itree = ITree.from_arrays(
            template.functions_for(dataset),
            template.domain,
            arrays,
            engine=engine,
            counters=self.counters,
            builder=builder,
        )
        leaf_count = len(itree.preorder_leaf_nodes)
        arena = MerkleArena.from_arrays(
            arrays["arena_digests"], arrays["arena_left"], arrays["arena_right"]
        )
        root_index_array = np.asarray(arrays["leaf_root_index"], dtype=np.int64)
        if root_index_array.shape[0] != leaf_count:
            raise ConstructionError(
                "artifact root-index array does not cover every subdomain"
            )
        if root_index_array.size and (
            root_index_array.min() < 0 or root_index_array.max() >= len(arena)
        ):
            raise ConstructionError("artifact root indices reference nonexistent nodes")
        intersection_matrix = np.ascontiguousarray(
            arrays["intersection_hash"], dtype=np.uint8
        )
        if intersection_matrix.shape != (
            len(itree.preorder_internal_nodes),
            self.hash_function.digest_size,
        ):
            raise ConstructionError("artifact hash arrays do not match the I-tree shape")
        if self.mode == MULTI_SIGNATURE:
            matrix = np.ascontiguousarray(arrays["leaf_signature"], dtype=np.uint8)
            if matrix.shape[0] != leaf_count:
                raise ConstructionError(
                    "multi-signature artifact carries a signature count that does "
                    "not match its subdomain count"
                )
            width = matrix.shape[1]
            blob = matrix.tobytes()
            self._leaf_signatures = [
                blob[position * width : (position + 1) * width] for position in range(leaf_count)
            ]
        self._attach_forest(arena, root_index_array)
        self._intersection_hashes = intersection_matrix
        self._attach_hashes(itree)
        self.root_signature = root_signature
        self.itree = itree  # reprolint: disable=RL006 -- a tree still being constructed, not yet shared with any thread
        return self

    # ----------------------------------------------------- deferred updates
    @classmethod
    def from_update(
        cls,
        dataset: Dataset,
        template: UtilityTemplate,
        columns: Dict[str, np.ndarray],
        *,
        arena: MerkleArena,
        root_indices: np.ndarray,
        intersection_hashes: List[bytes],
        config: SystemConfig,
        counters: Optional[Counters],
        engine: Optional[SplitEngine],
        epoch: int,
        root_hash: bytes,
        incremental_state,
        signer: Optional[Signer] = None,
    ) -> "IFMHTree":
        """An incrementally updated tree whose node structures load lazily.

        The changed-path update (:mod:`repro.ifmh.updates`) already holds
        the new tree's pre-order columns (plus its row-lazy permutation),
        forest, intersection digests and root digest; creating the I-tree
        node skeleton eagerly would cost more than the rest of the update.
        It is deferred instead: the first access to :attr:`itree` (a
        search, a metrics walk) runs the same column loader an artifact
        load runs, under a lock, so threads that touch the tree at once see
        either the deferred tree or the loaded one.  Neither one-signature
        signing nor publishing forces it -- the root hash is served from the
        update's propagation pass, and :meth:`to_arrays` writes the columns
        plus the permutation change points carried by ``incremental_state``
        (the :class:`repro.ifmh.updates.IncrementalState` the next update
        starts from).
        """
        self = cls.__new__(cls)
        self._init_common(dataset, template, config, counters, None, signer, epoch)
        self.merkle_engine_stats = None
        self.root_signature = None
        self._incremental_state = incremental_state
        self._attach_forest(arena, root_indices)
        self._intersection_hashes = _digest_matrix(intersection_hashes)
        self._deferred_root_hash = root_hash
        self._deferred_lock = threading.Lock()
        self._deferred_load = (columns, engine)
        return self

    def _materialize_deferred(self) -> None:
        """Create a deferred update's node skeleton (idempotent, thread-safe).

        ``itree`` is set last and the payload dropped after it, so a thread
        that finds ``itree`` set sees a fully attached tree, and one that
        still finds the payload either waits here or reads the payload.
        """
        with self._deferred_lock:
            payload = self.__dict__.get("_deferred_load")
            if payload is None:
                return
            columns, engine = payload
            state = self._incremental_state
            itree = ITree.from_arrays(
                self.template.functions_for(self.dataset),
                self.template.domain,
                columns,
                engine=engine,
                counters=self.counters,
                builder=_DEFERRED_BUILDER,
                change_points=(state.change_rows, state.change_cols, state.change_vals),
            )
            self._attach_hashes(itree)
            self.itree = itree
            del self.__dict__["_deferred_load"]

    def __getattr__(self, name: str):
        # Only ever reached for attributes not yet set: a deferred update
        # has no ``itree`` until something touches the node structures.
        if name == "itree" and "_deferred_lock" in self.__dict__:
            self._materialize_deferred()
            return self.__dict__["itree"]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _ensure_leaf(self, leaf: ITreeNode) -> None:
        """Attach a subdomain's region and FMH view on first use (idempotent)."""
        if leaf.fmh_tree is not None or self._forest is None:
            return
        self.itree.materialize_leaf(leaf)
        arena, fmh_leaf_count, ordered_records, root_indices = self._forest
        view = ArenaMerkleTree(
            arena, int(root_indices[leaf.subdomain_id]), fmh_leaf_count, self.hash_function
        )
        ordered = leaf.sorted_functions
        sorted_records = PermutedView(ordered_records, ordered.row, ordered.row_index)
        leaf.fmh_tree = FMHTree.from_prebuilt(sorted_records, view, self.hash_function)

    def _materialized_leaves(self):
        """All subdomain leaves, forcing lazy attachment (metrics paths)."""
        for leaf in self.itree.leaves():
            self._ensure_leaf(leaf)
            yield leaf

    # ------------------------------------------------------------ accessors
    @property
    def root_hash(self) -> bytes:
        if "_deferred_load" in self.__dict__:
            return self._deferred_root_hash
        if self.itree.root.hash_value is None:
            raise ConstructionError("hash propagation has not run")
        return self.itree.root.hash_value

    @property
    def subdomain_count(self) -> int:
        payload = self.__dict__.get("_deferred_load")
        if payload is not None:
            return int(payload[0]["leaf_row"].shape[0])
        return self.itree.subdomain_count

    @property
    def itree_builder(self) -> str:
        """The I-tree's builder name, read without forcing a deferred reload."""
        if "_deferred_load" in self.__dict__:
            return _DEFERRED_BUILDER
        return self.itree.builder

    @property
    def imh_node_count(self) -> int:
        """Nodes of the IMH-tree (intersection + subdomain nodes)."""
        return self.itree.node_count

    @property
    def fmh_node_count(self) -> int:
        """Total nodes across every FMH-tree."""
        return sum(leaf.fmh_tree.node_count for leaf in self._materialized_leaves())

    @property
    def node_count(self) -> int:
        """All nodes of the combined structure."""
        return self.imh_node_count + self.fmh_node_count

    @property
    def signature_count(self) -> int:
        """Number of signatures the structure carries (Fig. 5a).

        Counts what is actually attached, so artifact-loaded trees (which
        carry signatures but no signer) report the same number as the
        build that published them.
        """
        if self.mode == ONE_SIGNATURE:
            return 0 if self.root_signature is None else 1
        return 0 if self._leaf_signatures is None else self.subdomain_count

    def search(self, weights: Sequence[float], counters: Optional[Counters] = None) -> SearchTrace:
        """Locate the subdomain containing ``weights`` (delegates to the I-tree).

        On artifact-loaded trees the landed subdomain's FMH view and region
        are attached here, so every consumer of the returned trace sees a
        fully materialized leaf.
        """
        trace = self.itree.search(weights, counters=counters)
        self._ensure_leaf(trace.leaf)
        return trace

    def leaf_scores(self, leaf: ITreeNode, weights: Sequence[float]) -> np.ndarray:
        """Scores of a subdomain's sorted functions at ``weights``, as one matvec.

        The leaf's ``(coefficient_matrix, constant_vector)`` pair is built on
        first use and cached on the node, so the per-query hot path is a
        single ``A @ w + b`` instead of a Python loop over score functions.
        The result is ascending (the functions are sorted) and, for the
        univariate configuration, *bit-identical* to
        ``[f.evaluate(weights) for f in leaf.sorted_functions]``.

        For d >= 2 a BLAS matvec can differ from the per-row ``np.dot`` used
        by :meth:`LinearFunction.evaluate` by an ulp, which could flip a
        window boundary on an exact score tie; those dimensions therefore
        evaluate per function (they run at small n under the LP engine, so
        the Python loop is not the bottleneck there).
        """
        if self.template.dimension > 1:
            return np.array(
                [f.evaluate(weights) for f in leaf.sorted_functions], dtype=float
            )
        cached = leaf.score_cache
        if cached is None:
            shared = self.itree.shared_order
            ordered = leaf.sorted_functions
            if shared is not None and isinstance(ordered, PermutedView):
                # One fancy-index into the shared per-function arrays --
                # the same float64 values the per-object rebuild produces.
                matrix = shared.coefficient_matrix[ordered.row]
                constants = shared.constant_vector[ordered.row]
            else:
                matrix = np.array([f.coefficients for f in ordered], dtype=float)
                constants = np.array([f.constant for f in ordered], dtype=float)
            cached = leaf.score_cache = (matrix, constants)
        matrix, constants = cached
        return matrix @ np.asarray(weights, dtype=float) + constants

    # ----------------------------------------------------------------- size
    def size_breakdown(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> Dict[str, int]:
        """Byte-size breakdown of the serialized structure (Fig. 5c)."""
        dimension = self.template.dimension
        intersection_nodes = self.imh_node_count - self.subdomain_count
        imh_bytes = intersection_nodes * (
            size_model.hyperplane_size(dimension)
            + 2 * size_model.pointer_size
            + size_model.hash_size
        ) + self.subdomain_count * (2 * size_model.pointer_size + size_model.hash_size)
        fmh_bytes = self.fmh_node_count * (size_model.hash_size + 3 * size_model.pointer_size)
        record_refs = sum(leaf.fmh_tree.item_count for leaf in self._materialized_leaves())
        list_bytes = record_refs * size_model.pointer_size
        signature_bytes = self.signature_count * size_model.signature_size
        return {
            "imh_bytes": imh_bytes,
            "fmh_bytes": fmh_bytes,
            "sorted_list_bytes": list_bytes,
            "signature_bytes": signature_bytes,
        }

    def size_bytes(self, size_model: SizeModel = DEFAULT_SIZE_MODEL) -> int:
        """Total serialized size in bytes."""
        return sum(self.size_breakdown(size_model).values())


def _digest_matrix(digests: List[bytes]) -> np.ndarray:
    """Digests stacked as one ``(count, 32)`` byte matrix."""
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(len(digests), DIGEST_SIZE)
