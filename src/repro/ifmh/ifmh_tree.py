"""IFMH-tree construction (paper section 3.1, steps 1-4).

Step 1 builds the I-tree (delegated to :class:`repro.itree.ITree`); step 2
builds one FMH-tree per subdomain over its sorted record list -- all of them
at once, level by level, through
:class:`repro.merkle.engine.MerkleBuildEngine`; step 3 propagates hashes
bottom-up through the intersection nodes; step 4 signs the structure,
either once at the root (*one-signature*) or once per subdomain
(*multi-signature*).  :func:`repro.reference.naive_ifmh_tree` builds the
same tree one subdomain at a time, as the reference tests compare against.

Hardening note: the paper computes an intersection node's hash as
``H(a.h | b.h)``.  That does not bind *which* intersection the node stores,
so a malicious server could present a search path with altered branch
conditions.  By default this implementation binds the intersection
hyperplane into the hash (``H(enc(I_ij) | a.h | b.h)``); a config with
``bind_intersections=False`` gets the exact paper behaviour (exercised by
tests and an ablation benchmark).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.config import MULTI_SIGNATURE, ONE_SIGNATURE, SystemConfig
from repro.core.errors import ConstructionError
from repro.core.parallel import resolve_worker_count
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.crypto.hashing import HashFunction, epoch_bound_combine
from repro.crypto.signer import Signer
from repro.geometry.engine import SplitEngine
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
        self._attach_fmh_trees(merkle_engine)
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
        #: Set only on artifact-loaded trees: the shared arena plus the
        #: per-subdomain data needed to attach a leaf's FMH view on first
        #: use (queries touch a handful of subdomains; the rest never pay).
        self._lazy_forest = None
        #: Batched-build forest handles ``(arena, root_indices, row_ids)``
        #: in ``leaves()`` order, kept for the incremental-update path.
        self._batched_forest = None
        self._batched_leaf_map = None
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
    def _attach_fmh_trees(self, engine: MerkleBuildEngine) -> None:
        """Build one FMH-tree per subdomain leaf over its sorted record list.

        Every subdomain's FMH-tree covers the same ``n + 2`` leaves
        (``f_min``, the n records in that subdomain's order, ``f_max``), so
        the whole forest is one integer matrix: row ``t`` holds leaf ``t``'s
        arena leaf indices, assembled by fancy-indexing the I-tree's shared
        permutation array.  The engine advances all rows one level at a
        time and hashes each level's new preimages in one bulk pass, so
        only structure not seen in any earlier subdomain is physically
        hashed.
        """
        shared = self.itree.shared_order
        hash_function = self.hash_function
        records_by_id = self.records_by_id
        leaves = list(self.itree.leaves())
        #: Records in base (ascending record-id) order -- position p holds
        #: the record of shared.functions[p], so permutation rows apply.
        ordered_records = [records_by_id[f.index] for f in shared.functions]
        payloads = [record.to_bytes() for record in ordered_records]
        payloads.append(MIN_TOKEN)
        payloads.append(MAX_TOKEN)
        leaf_indices = engine.intern_leaf_batch(payloads, hash_function)
        record_leaf_index = leaf_indices[:-2]
        min_index, max_index = int(leaf_indices[-2]), int(leaf_indices[-1])
        #: record id -> arena leaf index, free to stash here and exactly
        #: what the incremental-update path needs to splice new leaf rows.
        self._batched_leaf_map = (
            {
                record.record_id: int(index)
                for record, index in zip(ordered_records, record_leaf_index)
            },
            min_index,
            max_index,
        )

        tree_count = len(leaves)
        leaf_count = len(ordered_records) + 2
        row_ids = np.fromiter(
            (leaf.sorted_functions.row_index for leaf in leaves), dtype=np.int64, count=tree_count
        )
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
        arena = engine.finalize_arena()
        self._batched_forest = (arena, roots, row_ids)
        for leaf, root_index in zip(leaves, roots.tolist()):
            view = ArenaMerkleTree(arena, root_index, leaf_count, hash_function=hash_function)
            sorted_records = PermutedView(
                ordered_records, leaf.sorted_functions.row, leaf.sorted_functions.row_index
            )
            leaf.fmh_tree = FMHTree.from_prebuilt(sorted_records, view, hash_function)
            leaf.hash_value = view.root

    # ------------------------------------------------------------- step 3
    def _propagate_hashes(self) -> None:
        """Compute intersection-node hashes bottom-up (paper step 3).

        Bulk-built trees take the level-wise array propagation
        (:func:`repro.ifmh.propagation.propagate_batched`); other tree
        shapes (the incremental builder) take the paper's per-node stack
        walk.  Digests and both hash counters are bit-identical either way.
        """
        from repro.ifmh.propagation import propagate_batched

        if propagate_batched(self):
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
        for leaf in self.itree.leaves():
            leaf.signature = signer.sign(self.subdomain_digest(leaf))
            self.counters.add_signature_created()

    def subdomain_digest(self, leaf: ITreeNode) -> bytes:
        """Multi-signature message for a subdomain node.

        The paper hashes the subdomain's inequality set, concatenates the
        result with the subdomain node's hash (its FMH root) and hashes
        again; the final digest is what gets signed.  From epoch 1 on the
        epoch token is combined in as well (see :meth:`signed_root_message`).
        """
        if self._lazy_forest is not None:
            self._ensure_leaf(leaf)
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

        A deferred update (:meth:`from_update`) is written straight from
        the arrays the update built: no node skeleton, no leaf
        materialisation, and the row-lazy permutation is densified only
        if the dense encoding is the one stored.  The deferred payload is
        left in place, so the tree still rebuilds on first query touch.
        """
        payload = self.__dict__.get("_deferred_load")
        if payload is not None:
            return self._deferred_arrays(payload[0])
        leaves = list(self._materialized_leaves())
        arena = leaves[0].fmh_tree.tree.arena
        root_indices = np.fromiter(
            (leaf.fmh_tree.tree.root_index for leaf in leaves),
            dtype=np.int64,
            count=len(leaves),
        )
        intersection_hashes = [
            node.hash_value for node in self.itree.root.iter_subtree() if node.is_intersection
        ]
        intersection_matrix = np.frombuffer(
            b"".join(intersection_hashes), dtype=np.uint8
        ).reshape(len(intersection_hashes), self.hash_function.digest_size)
        signatures = (
            [leaf.signature for leaf in leaves] if self.mode == MULTI_SIGNATURE else None
        )
        return self._ads_arrays(
            self.itree.to_arrays(), arena, root_indices, intersection_matrix, signatures
        )

    def _deferred_arrays(self, arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """:meth:`to_arrays` of a deferred update, from its own payload."""
        if self.mode == MULTI_SIGNATURE:
            # Signing a multi-signature tree walks its leaves, which rebuilds
            # it: a tree still deferred carries no signatures to write.
            raise ConstructionError("cannot serialize an unsigned multi-signature tree")
        state = self._incremental_state
        tree_arrays = encode_tree_arrays(
            arrays,
            self.template.dimension,
            arrays["permutation"],
            (state.change_rows, state.change_cols, state.change_vals),
        )
        arena = MerkleArena(
            arrays["arena_digests"], arrays["arena_left"], arrays["arena_right"]
        )
        return self._ads_arrays(
            tree_arrays, arena, arrays["leaf_root_index"], arrays["intersection_hash"], None
        )

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
        require_signatures: bool = True,
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
        self._load_arrays(
            arrays,
            builder=builder,
            engine=engine,
            root_signature=root_signature,
            require_signatures=require_signatures,
        )
        return self

    def _load_arrays(
        self,
        arrays: Dict[str, np.ndarray],
        *,
        builder: str,
        engine: Optional[SplitEngine],
        root_signature: Optional[bytes],
        require_signatures: bool,
    ) -> None:
        """Attach the array-form ADS to ``self`` (see :meth:`from_arrays`)."""
        dataset = self.dataset
        template = self.template
        config = self.config
        if engine is None:
            engine = config.make_engine(template.domain)
        functions = template.functions_for(dataset)
        self.itree = ITree.from_arrays(
            functions,
            template.domain,
            arrays,
            engine=engine,
            counters=self.counters,
            builder=builder,
        )
        internal_nodes = self.itree.loaded_internal_nodes
        leaf_nodes = self.itree.loaded_leaf_nodes

        arena = MerkleArena.from_arrays(
            arrays["arena_digests"], arrays["arena_left"], arrays["arena_right"]
        )
        root_index_array = np.asarray(arrays["leaf_root_index"], dtype=np.int64)
        if root_index_array.shape[0] != len(leaf_nodes):
            raise ConstructionError(
                "artifact root-index array does not cover every subdomain"
            )
        if root_index_array.size and (
            root_index_array.min() < 0 or root_index_array.max() >= len(arena)
        ):
            raise ConstructionError("artifact root indices reference nonexistent nodes")
        digest_size = self.hash_function.digest_size
        intersection_matrix = np.ascontiguousarray(
            arrays["intersection_hash"], dtype=np.uint8
        )
        if intersection_matrix.shape != (len(internal_nodes), digest_size):
            raise ConstructionError("artifact hash arrays do not match the I-tree shape")

        # Stored hashes are attached in bulk: one blob slice per node, no
        # tree traversal (the loaders kept pre-order node lists).
        intersection_blob = intersection_matrix.tobytes()
        for position, node in enumerate(internal_nodes):
            start = position * digest_size
            node.hash_value = intersection_blob[start : start + digest_size]
        root_blob = arena.digests[root_index_array].tobytes()
        for position, node in enumerate(leaf_nodes):
            start = position * digest_size
            node.hash_value = root_blob[start : start + digest_size]
        if self.mode == MULTI_SIGNATURE and (
            require_signatures or "leaf_signature" in arrays
        ):
            # The update path reconstructs first and signs at the new epoch
            # afterwards (require_signatures=False); artifact loads always
            # carry the published signatures.
            matrix = np.ascontiguousarray(arrays["leaf_signature"], dtype=np.uint8)
            if matrix.shape[0] != len(leaf_nodes):
                raise ConstructionError(
                    "multi-signature artifact carries a signature count that does "
                    "not match its subdomain count"
                )
            width = matrix.shape[1]
            signature_blob = matrix.tobytes()
            for position, node in enumerate(leaf_nodes):
                node.signature = signature_blob[position * width : (position + 1) * width]

        ordered_records = [self.records_by_id[f.index] for f in self.itree.shared_order.functions]
        self._lazy_forest = (
            arena,
            len(ordered_records) + 2,
            ordered_records,
            root_index_array.tolist(),
        )
        self.root_signature = root_signature

    # ----------------------------------------------------- deferred updates
    @classmethod
    def from_update(
        cls,
        dataset: Dataset,
        template: UtilityTemplate,
        arrays: Dict[str, np.ndarray],
        *,
        config: SystemConfig,
        counters: Optional[Counters],
        engine: Optional[SplitEngine],
        epoch: int,
        root_hash: bytes,
        subdomain_count: int,
        incremental_state,
        signer: Optional[Signer] = None,
    ) -> "IFMHTree":
        """An incrementally updated tree whose node structures load lazily.

        The changed-path update (:mod:`repro.ifmh.updates`) already knows
        the new root digest, subdomain count and every array of the new
        ADS; rebuilding the I-tree node skeleton eagerly would cost more
        than the rest of the update.  It is deferred instead: the first
        access to :attr:`itree` (a search, a metrics walk) triggers the
        same :meth:`from_arrays` reconstruction an artifact load performs.
        Neither one-signature signing nor publishing forces it -- the root
        hash is served from the update's propagation pass, and
        :meth:`to_arrays` writes the update's own arrays plus the
        permutation change points carried by ``incremental_state`` (the
        :class:`repro.ifmh.updates.IncrementalState` the next update
        starts from).
        """
        self = cls.__new__(cls)
        self._init_common(dataset, template, config, counters, None, signer, epoch)
        self.merkle_engine_stats = None
        self.root_signature = None
        self._incremental_state = incremental_state
        self._deferred_load = (arrays, engine)
        self._deferred_root_hash = root_hash
        self._deferred_subdomain_count = int(subdomain_count)
        return self

    def _materialize_deferred(self) -> None:
        """Run the deferred :meth:`from_arrays` reconstruction (idempotent)."""
        payload = self.__dict__.pop("_deferred_load", None)
        if payload is None:
            return
        arrays, engine = payload
        self._load_arrays(
            arrays,
            builder=_DEFERRED_BUILDER,
            engine=engine,
            root_signature=self.root_signature,
            require_signatures=False,
        )

    def __getattr__(self, name: str):
        # Only ever reached for attributes not yet set: a deferred update
        # has no ``itree`` until something touches the node structures.
        if name == "itree" and "_deferred_load" in self.__dict__:
            self._materialize_deferred()
            return self.__dict__["itree"]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _ensure_leaf(self, leaf: ITreeNode) -> None:
        """Attach a lazily loaded subdomain's region and FMH view (idempotent)."""
        if leaf.fmh_tree is not None or self._lazy_forest is None:
            return
        self.itree.materialize_leaf(leaf)
        arena, fmh_leaf_count, ordered_records, root_indices = self._lazy_forest
        view = ArenaMerkleTree(
            arena, root_indices[leaf.subdomain_id], fmh_leaf_count, self.hash_function
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
        if "_deferred_load" in self.__dict__:
            return self._deferred_subdomain_count
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
        if self.signer is None and self._lazy_forest is None:
            return 0
        return self.subdomain_count

    def search(self, weights: Sequence[float], counters: Optional[Counters] = None) -> SearchTrace:
        """Locate the subdomain containing ``weights`` (delegates to the I-tree).

        On artifact-loaded trees the landed subdomain's FMH view and region
        are attached here, so every consumer of the returned trace sees a
        fully materialized leaf.
        """
        trace = self.itree.search(weights, counters=counters)
        if self._lazy_forest is not None:
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
