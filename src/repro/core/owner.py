"""The data owner: key generation, ADS construction and outsourcing.

The data owner holds the only private key in the system.  It builds the
authenticated data structure for its chosen scheme (one-signature IFMH,
multi-signature IFMH or the signature-mesh baseline), packages the database
plus the ADS for the cloud server, and publishes the public parameters
(template, schema, public key, scheme configuration) that any data user
needs in order to verify query results.

Construction is configured by one :class:`repro.core.config.SystemConfig`
object threaded through every layer.  :meth:`DataOwner.publish` writes the
finished ADS to disk as a versioned artifact (:mod:`repro.core.artifact`)
from which :meth:`repro.core.server.Server.from_artifact` cold-starts
without rebuilding or re-hashing anything.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Union

from repro.core.config import SCHEMES, SIGNATURE_MESH, SystemConfig
from repro.core.errors import ConstructionError, JournalError
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.crypto.hashing import HashFunction
from repro.crypto.serialization import verifier_from_payload, verifier_to_payload
from repro.crypto.signer import KeyPair, Verifier, make_signer
from repro.geometry.domain import Domain
from repro.geometry.engine import SplitEngine
from repro.ifmh.ifmh_tree import IFMHTree
from repro.mesh.builder import SignatureMesh
from repro.metrics.counters import Counters
from repro.metrics.sizes import DEFAULT_SIZE_MODEL, SizeModel

__all__ = [
    "SIGNATURE_MESH",
    "SCHEMES",
    "PublicParameters",
    "ServerPackage",
    "UpdateReport",
    "RecoveryReport",
    "DataOwner",
]


@dataclass(frozen=True)
class PublicParameters:
    """Everything a data user needs to verify query results.

    This is public information: the utility-function template (with its
    weight domain), the table schema, the scheme configuration and the data
    owner's *public* verification key.
    """

    template: UtilityTemplate
    attribute_names: tuple[str, ...]
    scheme: str
    signature_algorithm: str
    verifier: Verifier
    bind_intersections: bool = True
    #: Current ADS epoch.  0 for an initial build; every applied update
    #: batch bumps it, and from epoch 1 on the owner binds it into all
    #: signed messages -- a client holding current parameters therefore
    #: rejects results served from a stale (pre-update) ADS even though
    #: their signatures were once genuine.
    epoch: int = 0

    # ---------------------------------------------------------- dict codec
    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe form of the public parameters (artifact header)."""
        template = self.template
        return {
            "template": {
                "attributes": list(template.attributes),
                "domain_lower": list(template.domain.lower),
                "domain_upper": list(template.domain.upper),
                "constant_attribute": template.constant_attribute,
            },
            "attribute_names": list(self.attribute_names),
            "scheme": self.scheme,
            "signature_algorithm": self.signature_algorithm,
            "verifier": verifier_to_payload(self.verifier),
            "bind_intersections": bool(self.bind_intersections),
            "epoch": int(self.epoch),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PublicParameters":
        """Rebuild public parameters from :meth:`to_payload` output."""
        template_data = payload["template"]
        template = UtilityTemplate(
            attributes=tuple(template_data["attributes"]),
            domain=Domain(
                lower=tuple(template_data["domain_lower"]),
                upper=tuple(template_data["domain_upper"]),
            ),
            constant_attribute=template_data["constant_attribute"],
        )
        return cls(
            template=template,
            attribute_names=tuple(payload["attribute_names"]),
            scheme=payload["scheme"],
            signature_algorithm=payload["signature_algorithm"],
            verifier=verifier_from_payload(payload["verifier"]),
            bind_intersections=bool(payload["bind_intersections"]),
            epoch=int(payload.get("epoch", 0)),
        )


@dataclass(frozen=True)
class UpdateReport:
    """Summary of one applied update batch.

    ``strategy`` records which maintenance path ran: ``"incremental"`` for
    the changed-path rebuild against the persisted arena, ``"rebuild"``
    for a full reconstruction (ineligible configurations, forced rebuilds,
    or rare tolerance-cluster cascades).
    """

    inserted: int
    deleted: int
    epoch: int
    strategy: str


@dataclass(frozen=True)
class RecoveryReport:
    """Summary of one :meth:`DataOwner.recover` run.

    ``replayed_batches`` counts the journaled batches applied on top of
    the base artifact; ``torn_tail_discarded`` is true when the journal
    ended in a partial record (crash mid-append) that the reader dropped.
    """

    base_epoch: int
    final_epoch: int
    replayed_batches: int
    torn_tail_discarded: bool


@dataclass(frozen=True)
class ServerPackage:
    """What the data owner uploads to the cloud server.

    Frozen: the package is a hand-off between trust domains, and nothing
    downstream may swap its dataset, ADS or public parameters in place.
    """

    dataset: Dataset
    ads: Union[IFMHTree, SignatureMesh]
    public_parameters: PublicParameters


class DataOwner:
    """The data owner of the three-party outsourcing model.

    Parameters
    ----------
    dataset / template:
        The table to outsource and its published utility-function template.
    config:
        A :class:`repro.core.config.SystemConfig` bundling the scheme, the
        signature algorithm and key size, and every build switch (the
        default one-signature RSA config when omitted).
    engine:
        Geometry engine override (takes precedence over
        ``config.tolerance``).
    rng:
        Seeded random source for reproducible key generation.
    """

    def __init__(
        self,
        dataset: Dataset,
        template: UtilityTemplate,
        *,
        config: Optional[SystemConfig] = None,
        engine: Optional[SplitEngine] = None,
        rng: Optional[random.Random] = None,
        counters: Optional[Counters] = None,
        keypair: Optional[KeyPair] = None,
        construction_workers: Optional[int] = None,
        epoch: int = 0,
    ):
        if config is None:
            config = SystemConfig()
        self.config = config
        self.dataset = dataset
        self.template = template
        self.scheme = config.scheme
        self.bind_intersections = config.bind_intersections
        self.counters = counters or Counters()
        self.keypair = keypair or make_signer(
            config.signature_algorithm, rng=rng, key_bits=config.key_bits
        )
        self.hash_function = HashFunction(self.counters)
        self.journal = None
        self.last_recovery: Optional[RecoveryReport] = None
        self._engine = engine
        # engine=None lets the ADS constructor derive one from the config
        # (honouring config.tolerance); an explicit engine takes precedence.
        if config.is_ifmh:
            self.ads: Union[IFMHTree, SignatureMesh] = IFMHTree(
                dataset,
                template,
                config=config,
                signer=self.keypair.signer,
                hash_function=self.hash_function,
                engine=engine,
                counters=self.counters,
                construction_workers=construction_workers,
                epoch=epoch,
            )
        else:
            self.ads = SignatureMesh(
                dataset,
                template,
                config=config,
                signer=self.keypair.signer,
                hash_function=self.hash_function,
                engine=engine,
                counters=self.counters,
                epoch=epoch,
            )

    @classmethod
    def from_artifact(cls, path, *, keypair: KeyPair, base=None) -> "DataOwner":
        """Restart a data owner from its own published artifact.

        The artifact never carries the private key, so the owner supplies
        its ``keypair`` (which must match the published verification key).
        The reconstructed ADS re-hashes nothing and stays lazy like any
        artifact load; incremental updates pick up right where the
        published epoch left off.
        """
        from repro.core.artifact import load_artifact

        loaded = load_artifact(path, base=base)
        parameters = loaded.public_parameters
        probe = b"repro:owner:keypair-probe"
        if not parameters.verifier.verify(probe, keypair.signer.sign(probe)):  # reprolint: disable=RL002 -- key-possession probe with a fixed local tag, never an ADS message; epoch binding does not apply
            raise ConstructionError(
                "the supplied keypair does not match the artifact's published "
                "verification key"
            )
        self = cls.__new__(cls)
        self.config = loaded.config
        self.dataset = loaded.dataset
        self.template = parameters.template
        self.scheme = loaded.config.scheme
        self.bind_intersections = loaded.config.bind_intersections
        self.counters = loaded.ads.counters
        self.keypair = keypair
        self.hash_function = loaded.ads.hash_function
        self.journal = None
        self.last_recovery = None
        self._engine = None
        self.ads = loaded.ads
        self.ads.signer = keypair.signer
        return self

    # -------------------------------------------------------------- updates
    @property
    def epoch(self) -> int:
        """Current ADS epoch (0 = initial build, +1 per applied batch)."""
        return self.ads.epoch

    def insert(self, record: Record) -> "UpdateReport":
        """Insert one record; equivalent to ``apply_updates(inserts=[record])``."""
        return self.apply_updates(inserts=(record,))

    def delete(self, record_id: int) -> "UpdateReport":
        """Delete one record; equivalent to ``apply_updates(deletes=[record_id])``."""
        return self.apply_updates(deletes=(record_id,))

    def apply_updates(
        self,
        inserts: Sequence[Record] = (),
        deletes: Sequence[int] = (),
        *,
        strategy: str = "auto",
    ) -> "UpdateReport":
        """Apply a batch of record deletes and inserts to the live ADS.

        Deletes are applied first (each id must exist), then inserts are
        appended (each id must be free after the deletes -- so a delete
        plus an insert of the same id replaces the record).  The whole
        batch advances the ADS by **one epoch**; the new epoch is bound
        into every re-signed message, so servers still holding the
        pre-update ADS fail verification against the owner's refreshed
        public parameters.

        ``strategy`` selects the maintenance path:

        * ``"auto"`` (default) -- the changed-path incremental rebuild
          (:mod:`repro.ifmh.updates`) where it applies (univariate bulk
          IFMH builds with batched hashing), a full rebuild elsewhere
          (d >= 2 LP geometry, ablation builders, the signature mesh).
        * ``"incremental"`` -- require the changed-path rebuild; raises
          :class:`~repro.core.errors.ConstructionError` if ineligible.
        * ``"rebuild"`` -- force a full rebuild (ablations, tests).

        Either way the post-update state is **bit-identical** (roots,
        verification objects, verdicts, per-query counters) to a fresh
        :class:`DataOwner` built over the final dataset at the same epoch.
        """
        if strategy not in ("auto", "incremental", "rebuild"):
            raise ConstructionError(
                f"unknown update strategy {strategy!r}; "
                "expected 'auto', 'incremental' or 'rebuild'"
            )
        inserts = list(inserts)
        deletes = list(deletes)
        if not inserts and not deletes:
            raise ConstructionError("an update batch needs at least one insert or delete")
        if len(set(deletes)) != len(deletes):
            raise ConstructionError("duplicate record id in the delete batch")

        records = list(self.dataset.records)
        present = {record.record_id for record in records}
        for record_id in deletes:
            if record_id not in present:
                raise ConstructionError(
                    f"cannot delete record id {record_id}: no such record"
                )
            present.discard(record_id)
        for record in inserts:
            if record.record_id in present:
                raise ConstructionError(
                    f"cannot insert duplicate record id {record.record_id}"
                )
            present.add(record.record_id)
        if len(records) - len(deletes) + len(inserts) == 0:
            raise ConstructionError(
                "updates must leave at least one record; deleting the whole "
                "dataset is not supported (retire the ADS instead)"
            )

        new_epoch = self.epoch + 1
        if self.journal is not None:
            # Write-ahead: the batch is durable before the ADS changes, so a
            # crash anywhere past this line replays it on recovery.
            self.journal.append_batch(
                epoch=new_epoch, inserts=inserts, deletes=deletes, strategy=strategy
            )
        if strategy == "rebuild":
            report = self._rebuild_update(records, deletes, inserts, new_epoch)
        else:
            report = self._incremental_update(records, deletes, inserts, new_epoch)
            if report is None:
                if strategy == "incremental":
                    raise ConstructionError(
                        "incremental updates require a univariate bulk-built IFMH "
                        "tree with batched hashing; use strategy='auto' to fall "
                        "back to a rebuild"
                    )
                report = self._rebuild_update(records, deletes, inserts, new_epoch)
        return report

    def _final_records(
        self, records: list, deletes: Sequence[int], inserts: Sequence[Record]
    ) -> list:
        removed = set(deletes)
        kept = [record for record in records if record.record_id not in removed]
        kept.extend(inserts)
        return kept

    def _rebuild_update(
        self, records: list, deletes: Sequence[int], inserts: Sequence[Record], epoch: int
    ) -> "UpdateReport":
        """Full reconstruction of the final dataset at the new epoch."""
        dataset = Dataset(
            attribute_names=self.dataset.attribute_names,
            records=self._final_records(records, deletes, inserts),
        )
        ads_class = IFMHTree if self.config.is_ifmh else SignatureMesh
        self.ads = ads_class(
            dataset,
            self.template,
            config=self.config,
            signer=self.keypair.signer,
            hash_function=self.hash_function,
            engine=self._engine,
            counters=self.counters,
            epoch=epoch,
        )
        self.dataset = dataset
        return UpdateReport(
            inserted=len(inserts), deleted=len(deletes), epoch=epoch, strategy="rebuild"
        )

    def _incremental_update(
        self, records: list, deletes: Sequence[int], inserts: Sequence[Record], epoch: int
    ) -> Optional["UpdateReport"]:
        """Changed-path maintenance; ``None`` when the ADS is ineligible.

        The batch applies as a sequence of single-record steps -- each step
        is bit-identical to a fresh build of its intermediate dataset, so
        the final state matches a fresh build of the final dataset.  Only
        the last step signs (at the batch's new epoch); intermediate
        signatures would be discarded anyway.
        """
        from repro.ifmh.updates import apply_incremental_update

        if not self.config.is_ifmh:
            return None
        steps: list[tuple[Optional[Record], Optional[int]]] = [
            (None, record_id) for record_id in deletes
        ] + [(record, None) for record in inserts]
        if len(deletes) == len(records) and inserts:
            # The deletes would drain every current record, and single-record
            # steps cannot build an empty intermediate ADS -- front-load one
            # insert whose id is free right now to keep every step non-empty.
            current_ids = {record.record_id for record in records}
            lead = next(
                (
                    position
                    for position, (record, _record_id) in enumerate(steps)
                    if record is not None and record.record_id not in current_ids
                ),
                None,
            )
            if lead is None:
                # Every insert reuses an id being deleted (a whole-dataset
                # replace-in-place): no safe step order exists, rebuild.
                return None
            steps.insert(0, steps.pop(lead))
        tree = self.ads
        dataset = self.dataset
        current_records = list(records)
        for position, (record, record_id) in enumerate(steps):
            last = position == len(steps) - 1
            current_records = (
                [r for r in current_records if r.record_id != record_id]
                if record_id is not None
                else current_records + [record]
            )
            dataset = Dataset(
                attribute_names=self.dataset.attribute_names, records=current_records
            )
            tree = apply_incremental_update(
                tree,
                dataset,
                inserted=record,
                deleted_id=record_id,
                epoch=epoch,
                sign=last,
            )
            if tree is None:
                return None
        self.ads = tree
        self.dataset = dataset
        return UpdateReport(
            inserted=len(inserts),
            deleted=len(deletes),
            epoch=epoch,
            strategy="incremental",
        )

    # ------------------------------------------------------------ durability
    def lineage(self) -> str:
        """Fingerprint of the published verification key (journal binding)."""
        from repro.resilience.journal import lineage_fingerprint

        return lineage_fingerprint(verifier_to_payload(self.keypair.verifier))

    def attach_journal(self, journal) -> None:
        """Route subsequent update batches through a write-ahead journal.

        The journal must belong to this owner's lineage and be exactly
        caught up (its newest batch epoch equals the owner's epoch):
        attaching a stale or foreign journal would either re-log applied
        batches or chain epochs onto the wrong history.
        """
        scan = journal.scan()
        lineage = scan.header.get("lineage")
        if lineage != self.lineage():
            raise JournalError(
                f"journal {journal.path!r} belongs to a different ADS lineage "
                f"({lineage!r}); refusing to attach it to this owner"
            )
        if scan.last_epoch != self.epoch:
            raise JournalError(
                f"journal {journal.path!r} ends at epoch {scan.last_epoch} but "
                f"the owner is at epoch {self.epoch}; recover from the journal "
                "(or prune it) before attaching",
                epoch=self.epoch,
            )
        self.journal = journal

    def enable_journal(self, path, *, fsync: bool = True):
        """Create (or reopen) the write-ahead journal at ``path`` and attach it.

        Returns the attached :class:`repro.resilience.journal.UpdateJournal`.
        """
        from repro.resilience.journal import UpdateJournal

        if os.path.exists(os.fspath(path)):
            journal = UpdateJournal(path, fsync=fsync)
        else:
            journal = UpdateJournal.create(
                path, lineage=self.lineage(), base_epoch=self.epoch, fsync=fsync
            )
        self.attach_journal(journal)
        return journal

    @classmethod
    def recover(cls, journal, base_artifact, *, keypair: KeyPair, base=None) -> "DataOwner":
        """Rebuild the owner after a crash: load the artifact, replay the journal.

        Loads the newest published artifact (``base_artifact``, with
        ``base`` when it is a delta) and replays every committed journal
        batch past the artifact's epoch, in order.  The result is
        **bit-identical** -- roots, verification objects, logical and
        physical hash counters -- to an owner that applied the same batches
        without ever crashing, because replay runs the exact same
        ``apply_updates`` code over the exact same starting state.  A torn
        journal tail (crash mid-append) is discarded: that batch was never
        acknowledged as durable.  The journal is re-attached to the
        recovered owner, and :attr:`last_recovery` summarizes the replay.
        """
        owner = cls.from_artifact(base_artifact, keypair=keypair, base=base)
        scan = journal.scan()
        lineage = scan.header.get("lineage")
        if lineage != owner.lineage():
            raise JournalError(
                f"journal {journal.path!r} belongs to a different ADS lineage "
                f"({lineage!r}); it cannot recover this artifact"
            )
        base_epoch = owner.epoch
        replay = journal.replay_batches(base_epoch)
        for batch in replay:
            report = owner.apply_updates(
                inserts=batch.inserts, deletes=batch.deletes, strategy=batch.strategy
            )
            if report.epoch != batch.epoch:
                raise JournalError(
                    f"replaying journal record {batch.index} advanced the owner "
                    f"to epoch {report.epoch}, expected {batch.epoch}",
                    record_index=batch.index,
                    epoch=batch.epoch,
                )
        if scan.torn_tail:
            journal.truncate_torn_tail()
        owner.journal = journal
        owner.last_recovery = RecoveryReport(
            base_epoch=base_epoch,
            final_epoch=owner.epoch,
            replayed_batches=len(replay),
            torn_tail_discarded=scan.torn_tail,
        )
        return owner

    # ------------------------------------------------------------ publishing
    def public_parameters(self) -> PublicParameters:
        """The public verification parameters handed to data users."""
        return PublicParameters(
            template=self.template,
            attribute_names=self.dataset.attribute_names,
            scheme=self.scheme,
            signature_algorithm=self.keypair.scheme,
            verifier=self.keypair.verifier,
            bind_intersections=self.bind_intersections,
            epoch=self.epoch,
        )

    def outsource(self) -> ServerPackage:
        """The upload package (database + ADS + public parameters)."""
        return ServerPackage(
            dataset=self.dataset,
            ads=self.ads,
            public_parameters=self.public_parameters(),
        )

    def publish(self, path, *, base=None, arena_shards=None):
        """Write the finished ADS to ``path`` as a versioned artifact.

        The artifact is everything a cold-starting server (and any client)
        needs: dataset, flat digest arrays, root indices, permutation
        array, signatures and public parameters -- see
        :mod:`repro.core.artifact` for the format.  Loading it back with
        :meth:`repro.core.server.Server.from_artifact` re-hashes nothing.
        The write is atomic (temp file + fsync + rename), so a crash
        mid-publish never tears an already-published artifact.

        With ``base`` (the path of a previously published artifact of this
        ADS lineage) a **delta artifact** is written instead: unchanged
        arrays are inherited from the base by checksum reference, and the
        append-only Merkle arena ships only its new tail.  Loading a delta
        requires the matching base file; splicing it onto any other base
        raises :class:`~repro.core.errors.ConstructionError`.  A missing
        or corrupt base, or a base that is ``path`` itself, falls back to
        a full publish (chain repair) -- the returned
        :class:`~repro.core.artifact.PublishReport` says which mode was
        written and why.

        With ``arena_shards=k`` (``k >= 2``, IFMH only) the Merkle arena
        -- the bulk of the bundle -- is written as ``k`` contiguous-row
        sidecar files next to the artifact instead of inline; the header
        pins each shard's checksum and loading reassembles them
        transparently.  Sharding composes with neither ``base`` (a delta
        already ships only the arena tail) nor in-memory buffers.

        A publish also marks every journaled batch up to the current
        epoch as durable in the attached write-ahead journal (if any), so
        recovery replays only batches newer than the newest artifact.
        """
        from repro.core.artifact import save_artifact

        report = save_artifact(self, path, base=base, arena_shards=arena_shards)
        if self.journal is not None:
            self.journal.note_published(self.epoch)
        return report

    # --------------------------------------------------------------- metrics
    @property
    def signature_count(self) -> int:
        """Signatures created while building the ADS (Fig. 5a)."""
        return self.ads.signature_count

    def ads_size_bytes(self, size_model: Optional[SizeModel] = None) -> int:
        """Serialized ADS size in bytes (Fig. 5c)."""
        model = size_model or DEFAULT_SIZE_MODEL.with_signature_size(
            self.keypair.signature_size
        )
        return self.ads.size_bytes(model)
