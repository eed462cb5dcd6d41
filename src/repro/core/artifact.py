"""Versioned on-disk ADS artifacts: publish once, cold-start anywhere.

The paper's outsourcing model separates a *one-time* owner-side ADS
construction from a long-lived, heavily-queried server.  This module makes
that separation real on disk: :func:`save_artifact` (usually called as
:meth:`repro.core.owner.DataOwner.publish`) writes a single ``.npz``-backed
bundle holding everything a server or client needs, and
:meth:`repro.core.server.Server.from_artifact` /
:meth:`repro.core.client.Client.from_artifact` reconstruct fully functional
parties from it with **zero re-hashing** -- roots, verification objects,
verdicts and both hash counters are bit-identical to an in-process build.

Format layout (one numpy ``.npz`` archive)
------------------------------------------
``meta``
    UTF-8 JSON header: magic + ``format_version``, the build's
    :class:`~repro.core.config.SystemConfig` echo, the public parameters
    (template, schema, scheme, public verification key), the I-tree builder
    that produced the shape, the owner's root signature (one-signature
    mode), the root-of-roots digest and informational counts.
``checksum``
    32-byte SHA-256 over the meta bytes plus every data array (name, shape
    and raw bytes).  Verified before anything is reconstructed.
``dataset_*``
    Record ids (int64), the attribute-value matrix (float64) and labels.
``ads_*``
    Scheme-specific arrays: for IFMH, the pre-order I-tree structure, the
    shared permutation array, the flat Merkle arena (digest matrix + child
    indices), per-subdomain root indices, intersection hashes and (multi
    mode) per-subdomain signatures; for the mesh, cells, flattened regions
    and the deduplicated pair-signature table.

Sharded arenas
--------------
The Merkle arena dominates artifact size (for IFMH it is Theta(n^2 log n)
digest rows).  ``save_artifact(..., arena_shards=k)`` splits the three
arena arrays into ``k`` contiguous row ranges written as sidecar ``.npz``
files next to the main artifact; the main bundle then omits the arena and
its header pins each sidecar's name, row count and payload checksum.
Because the header itself is covered by the main checksum, swapping or
truncating any shard is caught before reconstruction.  Sharded artifacts
use format version 3; loading transparently reassembles the arena from the
sidecars found next to the artifact.

Versioning policy
-----------------
``format_version`` is bumped on any incompatible layout change; loaders
accept exactly the versions they know (currently ``1``-``3``) and reject
anything newer with a clear error instead of misreading it.  Unknown
trailing arrays are ignored, so purely additive extensions may keep the
version.

Integrity
---------
Loading verifies (a) the whole-payload checksum and (b) that the stored
root-of-roots digest matches one recomputed from the loaded arrays, so a
truncated, bit-flipped or hand-edited artifact fails with
:class:`~repro.core.errors.ConstructionError` rather than serving wrong
answers.  These checks use plain (uncounted) SHA-256: they are file
integrity, not ADS hashing, and the loaded structures' hash counters stay
at zero.  Note the checks are *defence in depth* for operators -- a
malicious server is still caught by client-side verification, exactly as in
the paper's threat model.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from dataclasses import dataclass
import tempfile
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.config import SIGNATURE_MESH, SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner, PublicParameters, ServerPackage
from repro.core.records import Dataset, Record
from repro.ifmh.ifmh_tree import IFMHTree
from repro.mesh.builder import SignatureMesh
from repro.metrics.counters import Counters

__all__ = [
    "ARTIFACT_MAGIC",
    "ARENA_SHARD_MAGIC",
    "ARTIFACT_FORMAT_VERSION",
    "LoadedArtifact",
    "PublishReport",
    "atomic_write_bytes",
    "save_artifact",
    "load_artifact",
    "load_public_parameters",
]

#: Identifies the file as an ADS artifact (first field of the JSON header).
ARTIFACT_MAGIC = "repro-ads-artifact"

#: Identifies a sidecar file holding one contiguous row range of the arena.
ARENA_SHARD_MAGIC = "repro-ads-arena-shard"

#: Current on-disk layout version (see the module docstring for the policy).
#: Version 2 adds the ``epoch`` header field and delta artifacts; version 1
#: files load unchanged (epoch defaults to 0).
ARTIFACT_FORMAT_VERSION = 2

#: Layout version stamped on artifacts whose arena lives in sidecar shards
#: (``save_artifact(..., arena_shards=k)``).  Self-contained publishes stay
#: at :data:`ARTIFACT_FORMAT_VERSION` so older loaders keep reading them.
SHARDED_FORMAT_VERSION = 3

#: Layout versions this loader understands.
SUPPORTED_FORMAT_VERSIONS = (1, 2, 3)

#: npz entry names reserved for the header (everything else is data).
_META_KEY = "meta"
_CHECKSUM_KEY = "checksum"

#: Arrays that only ever *grow* under incremental updates: a delta artifact
#: ships just their appended tail (entry name suffixed ``_tail``).
_APPEND_ONLY = ("ads_arena_digests", "ads_arena_left", "ads_arena_right")

#: Suffix marking a delta entry holding the appended rows of an
#: append-only array.
_TAIL_SUFFIX = "__tail"


@dataclass(frozen=True)
class PublishReport:
    """What :func:`save_artifact` actually wrote.

    ``mode`` is ``"full"`` or ``"delta"``.  When a delta was requested but
    its base artifact turned out to be missing, corrupt or the target file
    itself, the publish *repairs the chain* by writing a full artifact
    instead and records why in ``fallback_reason`` (``None`` for a publish
    that went as requested).
    """

    path: str
    mode: str
    epoch: int
    fallback_reason: Optional[str] = None


@dataclass(frozen=True)
class LoadedArtifact:
    """A fully reconstructed artifact: server package + its build config."""

    package: ServerPackage
    config: SystemConfig
    meta: Dict[str, Any]

    @property
    def dataset(self) -> Dataset:
        return self.package.dataset

    @property
    def ads(self) -> Union[IFMHTree, SignatureMesh]:
        return self.package.ads

    @property
    def public_parameters(self) -> PublicParameters:
        return self.package.public_parameters


# ---------------------------------------------------------------------------
# Integrity digests
# ---------------------------------------------------------------------------
def _payload_checksum(meta_bytes: bytes, arrays: Dict[str, np.ndarray]) -> bytes:
    """SHA-256 over the header and every data array (order-independent)."""
    digest = hashlib.sha256()  # reprolint: disable=RL001 -- integrity checksum, not a paper-counted hash
    digest.update(meta_bytes)
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.digest()


def _ifmh_roots_digest(
    arena_digests: np.ndarray, root_indices: np.ndarray, root_hash: bytes
) -> str:
    """Root-of-roots: every subdomain's FMH root digest plus the tree root."""
    digest = hashlib.sha256()  # reprolint: disable=RL001 -- integrity checksum, not a paper-counted hash
    digest.update(np.ascontiguousarray(arena_digests[root_indices]).tobytes())
    digest.update(root_hash)
    return digest.hexdigest()


def _mesh_roots_digest(signature_matrix: np.ndarray) -> str:
    """Mesh equivalent of the root-of-roots: the unique signature table."""
    return hashlib.sha256(  # reprolint: disable=RL001 -- integrity checksum, not a paper-counted hash
        np.ascontiguousarray(signature_matrix).tobytes()
    ).hexdigest()


# ---------------------------------------------------------------------------
# Atomic persistence
# ---------------------------------------------------------------------------
def atomic_write_bytes(path: Union[str, "os.PathLike[str]"], payload: bytes) -> None:
    """Crash-safe file publish: temp file + fsync + ``os.replace``.

    The payload is written to a temporary file in the *same directory*,
    flushed and fsynced, and only then renamed over ``path`` -- an atomic
    operation on POSIX filesystems.  A crash at any point therefore leaves
    either the complete old file or the complete new file at ``path``,
    never a truncated hybrid; a half-written temp file can never shadow a
    good artifact.  The directory entry is fsynced afterwards (best
    effort) so the rename itself survives a power cut.

    This is the single choke point every artifact/journal persistence path
    must write through (enforced by reprolint RL009).
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "wb") as stream:
            stream.write(payload)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, target)
    except BaseException:
        # The publish failed before the rename: remove the temp file so a
        # crash-looking failure never litters half-written bundles next to
        # good artifacts.
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    try:
        directory_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX directory semantics
        return
    try:
        os.fsync(directory_fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(directory_fd)


def _encode_npz(entries: Dict[str, np.ndarray]) -> bytes:
    """Serialize the artifact entries to ``.npz`` bytes in memory."""
    buffer = io.BytesIO()
    np.savez(buffer, **entries)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------
def _dataset_arrays(dataset: Dataset) -> Dict[str, np.ndarray]:
    return {
        "dataset_record_ids": np.asarray(
            [record.record_id for record in dataset.records], dtype=np.int64
        ),
        "dataset_values": np.asarray(
            [record.values for record in dataset.records], dtype=np.float64
        ).reshape(len(dataset.records), len(dataset.attribute_names)),
        "dataset_labels": np.asarray(
            [record.label for record in dataset.records], dtype=np.str_
        ),
    }


def save_artifact(
    owner: DataOwner,
    path: Union[str, "os.PathLike[str]"],
    *,
    base: Union[str, "os.PathLike[str]", None] = None,
    arena_shards: Optional[int] = None,
) -> PublishReport:
    """Write the owner's finished ADS to ``path`` as a versioned artifact.

    The private signing key never leaves the owner: only signatures and the
    public verification key are written.  Prefer calling this through
    :meth:`repro.core.owner.DataOwner.publish`.

    The write is **atomic**: the bundle is serialized in memory, written to
    a same-directory temp file, fsynced and renamed over ``path``
    (:func:`atomic_write_bytes`), so a crash mid-publish can never tear an
    existing good artifact or leave a truncated file at the target path.

    With ``base`` (a previously published *full* artifact of this lineage)
    a **delta artifact** is written: arrays identical to the base are
    inherited by name, the append-only Merkle arena ships only its new
    tail, and the header pins the base's payload checksum and epoch --
    loading the delta against any other base (or replaying it) raises
    :class:`~repro.core.errors.ConstructionError`.  If the base file is
    missing or corrupt, or is the very file being written, the delta chain
    is *repaired* instead of broken: a full artifact is written and the
    returned :class:`PublishReport` carries the fallback reason.

    With ``arena_shards=k`` (``k >= 2``, IFMH scheme, filesystem paths
    only) the Merkle arena is written as ``k`` contiguous-row sidecar
    files next to the artifact instead of inline -- see the module
    docstring.  Sharded and delta publishes are mutually exclusive: a
    delta ships the arena *tail* inline by construction.
    """
    ads = owner.ads
    if arena_shards is not None:
        shard_count = int(arena_shards)
        if shard_count < 2:
            raise ConstructionError(
                f"arena_shards must be at least 2, got {shard_count}; publish "
                "without arena_shards for a self-contained artifact"
            )
        if base is not None:
            raise ConstructionError(
                "a delta publish (base=...) cannot also shard the arena: the "
                "delta ships only the arena tail, which is already one piece"
            )
        if not isinstance(ads, IFMHTree):
            raise ConstructionError(
                "arena_shards applies only to the IFMH scheme; the signature "
                "mesh has no Merkle arena to shard"
            )
        if hasattr(path, "write"):
            raise ConstructionError(
                "a sharded publish needs a filesystem path: the shard sidecars "
                "are written next to the artifact"
            )
    arrays = _dataset_arrays(owner.dataset)
    for name, array in ads.to_arrays().items():
        arrays[f"ads_{name}"] = array

    meta: Dict[str, Any] = {
        "magic": ARTIFACT_MAGIC,
        "format_version": ARTIFACT_FORMAT_VERSION,
        "config": owner.config.to_dict(),
        "public_parameters": owner.public_parameters().to_payload(),
        "attribute_names": list(owner.dataset.attribute_names),
        "epoch": int(owner.epoch),
        "counts": {
            "records": len(owner.dataset),
        },
    }
    if isinstance(ads, IFMHTree):
        meta["itree_builder"] = ads.itree_builder
        meta["root_signature"] = (
            ads.root_signature.hex() if ads.root_signature is not None else None
        )
        meta["roots_digest"] = _ifmh_roots_digest(
            arrays["ads_arena_digests"], arrays["ads_leaf_root_index"], ads.root_hash
        )
        meta["counts"]["subdomains"] = ads.subdomain_count
        meta["counts"]["arena_nodes"] = int(arrays["ads_arena_digests"].shape[0])
    else:
        meta["roots_digest"] = _mesh_roots_digest(arrays["ads_sig_bytes"])
        meta["counts"]["cells"] = ads.cell_count
        meta["counts"]["signatures"] = ads.signature_count

    if arena_shards is not None:
        # The roots digest and counts above were computed from the full
        # arrays; only now peel the arena off into sidecars.  Sidecars are
        # written first so a crash before the main rename leaves any
        # existing artifact untouched (stray sidecars are harmless).
        arrays, meta["arena_shards"] = _write_arena_shards(
            arrays, path, int(arena_shards)
        )
        meta["format_version"] = SHARDED_FORMAT_VERSION

    mode = "full"
    fallback_reason: Optional[str] = None
    if base is not None and _names_same_file(path, base):
        # A delta written over its own base would replace the lineage's
        # only full artifact with a file that needs it to load.
        fallback_reason = (
            f"delta base {_path_text(base)!r} is the file being written; "
            "a delta cannot replace its own base"
        )
    elif base is not None:
        try:
            arrays, delta_info = _delta_arrays(arrays, base)
        except (FileNotFoundError, ConstructionError) as error:
            # Delta-chain repair: a missing or corrupt base must not leave
            # the lineage unpublishable -- fall back to a self-contained
            # full artifact and report why.
            fallback_reason = f"delta base {_path_text(base)!r} unusable: {error}"
        else:
            meta["delta"] = delta_info
            mode = "delta"

    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    checksum = np.frombuffer(_payload_checksum(meta_bytes, arrays), dtype=np.uint8)
    entries = {
        _META_KEY: np.frombuffer(meta_bytes, dtype=np.uint8),
        _CHECKSUM_KEY: checksum,
        **arrays,
    }
    payload = _encode_npz(entries)
    if hasattr(path, "write"):
        path.write(payload)
        return PublishReport(
            path="<buffer>", mode=mode, epoch=int(owner.epoch), fallback_reason=fallback_reason
        )
    # Serializing to memory first keeps the caller's path verbatim (np.savez
    # appends ".npz" to bare string paths) and lets the on-disk write be one
    # atomic temp-file + fsync + rename publish.
    atomic_write_bytes(path, payload)
    return PublishReport(
        path=os.fspath(path),
        mode=mode,
        epoch=int(owner.epoch),
        fallback_reason=fallback_reason,
    )


def _names_same_file(path, base) -> bool:
    """Whether ``base`` is the existing file a publish to ``path`` replaces."""
    if hasattr(path, "write") or hasattr(base, "read"):
        return False
    try:
        return os.path.samefile(path, base)
    except OSError:  # either file missing: not the same existing file
        return False


def _delta_arrays(
    arrays: Dict[str, np.ndarray], base
) -> tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Reduce the full array set to a delta against a published base file."""
    base_entries = _read_entries(base)
    base_meta = _parse_meta(base_entries, _path_text(base))
    if "delta" in base_meta:
        raise ConstructionError(
            "delta artifacts must be written against a full base artifact, "
            "not against another delta"
        )
    if "arena_shards" in base_meta:
        raise ConstructionError(
            "delta artifacts require a self-contained base; the base was "
            "published with arena_shards and holds no inline arena to append to"
        )
    inherited: list[str] = []
    delta: Dict[str, np.ndarray] = {}
    for name, array in arrays.items():
        base_array = base_entries.get(name)
        stored = np.asarray(array)
        if name in _APPEND_ONLY and base_array is not None:
            base_len = base_array.shape[0]
            if (
                stored.shape[0] >= base_len
                and stored.dtype == base_array.dtype
                and stored.shape[1:] == base_array.shape[1:]
                and np.array_equal(stored[:base_len], base_array)
            ):
                delta[name + _TAIL_SUFFIX] = stored[base_len:]
                continue
        if (
            base_array is not None
            and stored.dtype == base_array.dtype
            and np.array_equal(stored, base_array)
        ):
            inherited.append(name)
            continue
        delta[name] = stored
    return delta, {
        "base_checksum": base_entries[_CHECKSUM_KEY].tobytes().hex(),
        "base_epoch": int(base_meta.get("epoch", 0)),
        "inherited": sorted(inherited),
    }


def _shard_file_name(artifact_name: str, index: int, count: int) -> str:
    """Sidecar name for shard ``index``: ``<stem>.shard00-of-04.npz``."""
    stem = (
        artifact_name[: -len(".npz")]
        if artifact_name.endswith(".npz")
        else artifact_name
    )
    return f"{stem}.shard{index:02d}-of-{count:02d}.npz"


def _write_arena_shards(
    arrays: Dict[str, np.ndarray],
    path: Union[str, "os.PathLike[str]"],
    shard_count: int,
) -> tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Split the arena arrays into contiguous-row sidecar files.

    Every sidecar is itself a checksummed mini-artifact (magic + meta +
    payload checksum over its three array slices), written atomically; the
    returned header info pins each sidecar's name, row count and checksum
    so the main artifact's own checksum transitively covers the shards.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    artifact_name = os.path.basename(target)
    rows = int(arrays[_APPEND_ONLY[0]].shape[0])
    count = max(1, min(shard_count, rows))
    base_rows, extra = divmod(rows, count)
    files: list[str] = []
    row_counts: list[int] = []
    checksums: list[str] = []
    start = 0
    for index in range(count):
        stop = start + base_rows + (1 if index < extra else 0)
        shard_arrays = {
            name: np.ascontiguousarray(arrays[name][start:stop])
            for name in _APPEND_ONLY
        }
        shard_meta = {
            "magic": ARENA_SHARD_MAGIC,
            "format_version": SHARDED_FORMAT_VERSION,
            "artifact": artifact_name,
            "shard_index": index,
            "shard_count": count,
            "row_start": start,
            "row_stop": stop,
        }
        meta_bytes = json.dumps(shard_meta, sort_keys=True).encode()
        checksum = _payload_checksum(meta_bytes, shard_arrays)
        entries = {
            _META_KEY: np.frombuffer(meta_bytes, dtype=np.uint8),
            _CHECKSUM_KEY: np.frombuffer(checksum, dtype=np.uint8),
            **shard_arrays,
        }
        file_name = _shard_file_name(artifact_name, index, count)
        atomic_write_bytes(os.path.join(directory, file_name), _encode_npz(entries))
        files.append(file_name)
        row_counts.append(stop - start)
        checksums.append(checksum.hex())
        start = stop
    remaining = {
        name: array for name, array in arrays.items() if name not in _APPEND_ONLY
    }
    return remaining, {"files": files, "rows": row_counts, "checksums": checksums}


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------
def _path_text(path) -> str:
    return os.fspath(path) if not hasattr(path, "read") else "<buffer>"


def _read_entries(path) -> Dict[str, np.ndarray]:
    try:
        with np.load(path, allow_pickle=False) as bundle:
            return {name: bundle[name] for name in bundle.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as error:
        raise ConstructionError(
            f"cannot read ADS artifact {_path_text(path)!r}: "
            f"file is not a readable artifact bundle ({error})"
        ) from None


def _parse_meta(entries: Dict[str, np.ndarray], path_text: str) -> Dict[str, Any]:
    if _META_KEY not in entries or _CHECKSUM_KEY not in entries:
        raise ConstructionError(
            f"ADS artifact {path_text!r} is missing its header; "
            "the file is truncated or not an artifact"
        )
    meta_bytes = entries[_META_KEY].tobytes()
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConstructionError(
            f"ADS artifact {path_text!r} has a corrupt header ({error})"
        ) from None
    if meta.get("magic") != ARTIFACT_MAGIC:
        raise ConstructionError(
            f"{path_text!r} is not an ADS artifact (bad magic {meta.get('magic')!r})"
        )
    version = meta.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise ConstructionError(
            f"ADS artifact {path_text!r} uses format version {version!r}; "
            f"this build reads versions {SUPPORTED_FORMAT_VERSIONS}"
        )
    arrays = {
        name: array
        for name, array in entries.items()
        if name not in (_META_KEY, _CHECKSUM_KEY)
    }
    expected = entries[_CHECKSUM_KEY].tobytes()
    actual = _payload_checksum(meta_bytes, arrays)
    if expected != actual:
        raise ConstructionError(
            f"ADS artifact {path_text!r} failed its integrity check "
            "(truncated or tampered); refusing to load"
        )
    return meta


def _rebuild_dataset(
    entries: Dict[str, np.ndarray], attribute_names: tuple[str, ...]
) -> Dataset:
    record_ids = np.asarray(entries["dataset_record_ids"], dtype=np.int64).tolist()
    values = np.asarray(entries["dataset_values"], dtype=np.float64).tolist()
    labels = [str(label) for label in entries["dataset_labels"].tolist()]
    records = [
        Record(record_id=record_id, values=tuple(row), label=label)
        for record_id, row, label in zip(record_ids, values, labels)
    ]
    return Dataset(attribute_names=attribute_names, records=records)


def _parse_shard_meta(entries: Dict[str, np.ndarray], path_text: str) -> Dict[str, Any]:
    """Header + integrity check for one arena-shard sidecar file."""
    if _META_KEY not in entries or _CHECKSUM_KEY not in entries:
        raise ConstructionError(
            f"arena shard {path_text!r} is missing its header; "
            "the file is truncated or not a shard"
        )
    meta_bytes = entries[_META_KEY].tobytes()
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ConstructionError(
            f"arena shard {path_text!r} has a corrupt header ({error})"
        ) from None
    if meta.get("magic") != ARENA_SHARD_MAGIC:
        raise ConstructionError(
            f"{path_text!r} is not an arena shard (bad magic {meta.get('magic')!r})"
        )
    arrays = {
        name: array
        for name, array in entries.items()
        if name not in (_META_KEY, _CHECKSUM_KEY)
    }
    if entries[_CHECKSUM_KEY].tobytes() != _payload_checksum(meta_bytes, arrays):
        raise ConstructionError(
            f"arena shard {path_text!r} failed its integrity check "
            "(truncated or tampered); refusing to load"
        )
    return meta


def _read_arena_shards(
    meta: Dict[str, Any], path, path_text: str
) -> Dict[str, np.ndarray]:
    """Reassemble the arena arrays from the sidecars pinned in the header."""
    if hasattr(path, "read"):
        raise ConstructionError(
            f"ADS artifact {path_text!r} stores its arena in sidecar shards "
            "and can only load from a filesystem path"
        )
    info = meta["arena_shards"]
    files = info.get("files") or []
    rows = info.get("rows") or []
    checksums = info.get("checksums") or []
    if not files or not (len(files) == len(rows) == len(checksums)):
        raise ConstructionError(
            f"ADS artifact {path_text!r} has a corrupt arena_shards header; "
            "refusing to load"
        )
    directory = os.path.dirname(os.fspath(path)) or "."
    parts: Dict[str, list] = {name: [] for name in _APPEND_ONLY}
    for index, (file_name, expected_rows, expected_checksum) in enumerate(
        zip(files, rows, checksums)
    ):
        shard_path = os.path.join(directory, file_name)
        try:
            shard_entries = _read_entries(shard_path)
        except FileNotFoundError:
            raise ConstructionError(
                f"ADS artifact {path_text!r}: arena shard {file_name!r} is "
                "missing next to the artifact"
            ) from None
        shard_meta = _parse_shard_meta(shard_entries, file_name)
        # The header pins each sidecar's checksum, so a valid-but-foreign
        # shard (say, from another publish of the same lineage) is refused.
        if shard_entries[_CHECKSUM_KEY].tobytes().hex() != expected_checksum:
            raise ConstructionError(
                f"ADS artifact {path_text!r}: arena shard {file_name!r} does "
                "not match the checksum pinned in the artifact header; "
                "refusing to load"
            )
        if int(shard_meta.get("shard_index", -1)) != index:
            raise ConstructionError(
                f"ADS artifact {path_text!r}: arena shard {file_name!r} "
                f"reports index {shard_meta.get('shard_index')!r}, expected "
                f"{index}; shard files were reordered or renamed"
            )
        for name in _APPEND_ONLY:
            part = shard_entries.get(name)
            if part is None or part.shape[0] != int(expected_rows):
                raise ConstructionError(
                    f"ADS artifact {path_text!r}: arena shard {file_name!r} "
                    f"does not carry the expected {expected_rows} rows of "
                    f"{name!r}; refusing to load"
                )
            parts[name].append(part)
    return {name: np.concatenate(parts[name], axis=0) for name in _APPEND_ONLY}


def _splice_delta(
    entries: Dict[str, np.ndarray],
    meta: Dict[str, Any],
    base,
    path_text: str,
) -> Dict[str, np.ndarray]:
    """Materialize a delta artifact's full array set against its base."""
    info = meta["delta"]
    if base is None:
        raise ConstructionError(
            f"ADS artifact {path_text!r} is a delta; pass the base artifact it "
            "was published against (base=...)"
        )
    base_entries = _read_entries(base)
    base_meta = _parse_meta(base_entries, _path_text(base))
    if "arena_shards" in base_meta:
        raise ConstructionError(
            f"ADS delta artifact {path_text!r} cannot be spliced onto "
            f"{_path_text(base)!r}: a sharded artifact holds no inline arena "
            "and is never a valid delta base"
        )
    actual = base_entries[_CHECKSUM_KEY].tobytes().hex()
    if actual != info.get("base_checksum"):
        raise ConstructionError(
            f"ADS delta artifact {path_text!r} was published against a different "
            f"base than {_path_text(base)!r}; refusing to splice"
        )
    base_epoch = int(base_meta.get("epoch", 0))
    epoch = int(meta.get("epoch", 0))
    if epoch <= base_epoch:
        raise ConstructionError(
            f"ADS delta artifact {path_text!r} carries epoch {epoch}, not newer "
            f"than its base's epoch {base_epoch}; stale or replayed delta"
        )
    spliced: Dict[str, np.ndarray] = {}
    for name in info.get("inherited", []):
        if name not in base_entries:
            raise ConstructionError(
                f"ADS delta artifact {path_text!r} inherits missing base array {name!r}"
            )
        spliced[name] = base_entries[name]
    for name, array in entries.items():
        if name in (_META_KEY, _CHECKSUM_KEY):
            continue
        if name.endswith(_TAIL_SUFFIX):
            stem = name[: -len(_TAIL_SUFFIX)]
            if stem not in base_entries:
                raise ConstructionError(
                    f"ADS delta artifact {path_text!r} appends to missing base "
                    f"array {stem!r}"
                )
            spliced[stem] = np.concatenate([base_entries[stem], array], axis=0)
        else:
            spliced[name] = array
    return spliced


def load_artifact(
    path: Union[str, "os.PathLike[str]"],
    *,
    base: Union[str, "os.PathLike[str]", None] = None,
) -> LoadedArtifact:
    """Load, integrity-check and reconstruct a published ADS artifact.

    Raises :class:`~repro.core.errors.ConstructionError` on truncated,
    tampered or version-incompatible files.  The reconstruction re-hashes
    nothing: the returned package's counters are zero and its structures
    answer queries bit-identically to the build that was published.

    Delta artifacts (published with ``publish(path, base=...)``) require
    the matching base file via ``base``; a wrong base or a delta whose
    epoch is not newer than the base's is refused.

    Sharded artifacts (published with ``arena_shards=k``) are reassembled
    from the sidecar files named in the header, which must sit next to the
    artifact; a missing, tampered or swapped shard is refused.
    """
    path_text = _path_text(path)
    entries = _read_entries(path)
    meta = _parse_meta(entries, path_text)
    if "arena_shards" in meta:
        entries = {**entries, **_read_arena_shards(meta, path, path_text)}
    if "delta" in meta:
        arrays = _splice_delta(entries, meta, base, path_text)
        entries = {**arrays, _META_KEY: entries[_META_KEY], _CHECKSUM_KEY: entries[_CHECKSUM_KEY]}
    config = SystemConfig.from_dict(meta["config"])
    parameters = PublicParameters.from_payload(meta["public_parameters"])
    epoch = int(meta.get("epoch", 0))
    dataset = _rebuild_dataset(entries, tuple(meta["attribute_names"]))
    ads_arrays = {
        name[len("ads_") :]: array
        for name, array in entries.items()
        if name.startswith("ads_")
    }

    if config.scheme == SIGNATURE_MESH:
        mesh = SignatureMesh.from_arrays(
            dataset,
            parameters.template,
            ads_arrays,
            config=config,
            counters=Counters(),
            epoch=epoch,
        )
        if _mesh_roots_digest(ads_arrays["sig_bytes"]) != meta.get("roots_digest"):
            raise ConstructionError(
                f"ADS artifact {path_text!r}: stored signature-table digest does not "
                "match the loaded arrays; refusing to load"
            )
        ads: Union[IFMHTree, SignatureMesh] = mesh
    else:
        root_signature_hex = meta.get("root_signature")
        tree = IFMHTree.from_arrays(
            dataset,
            parameters.template,
            ads_arrays,
            config=config,
            root_signature=(
                bytes.fromhex(root_signature_hex) if root_signature_hex else None
            ),
            builder=meta.get("itree_builder", "auto"),
            counters=Counters(),
            epoch=epoch,
        )
        recomputed = _ifmh_roots_digest(
            ads_arrays["arena_digests"],
            np.asarray(ads_arrays["leaf_root_index"], dtype=np.int64),
            tree.root_hash,
        )
        if recomputed != meta.get("roots_digest"):
            raise ConstructionError(
                f"ADS artifact {path_text!r}: stored root-of-roots digest does not "
                "match the digests recomputed from the loaded arrays; refusing to load"
            )
        ads = tree

    package = ServerPackage(dataset=dataset, ads=ads, public_parameters=parameters)
    return LoadedArtifact(package=package, config=config, meta=meta)


def load_public_parameters(path: Union[str, "os.PathLike[str]"]) -> PublicParameters:
    """Load only the public verification parameters from an artifact.

    Runs the same header and whole-payload integrity checks as
    :func:`load_artifact` but skips the (comparatively expensive) structure
    reconstruction -- this is all a verifying client needs.
    """
    path_text = _path_text(path)
    entries = _read_entries(path)
    meta = _parse_meta(entries, path_text)
    return PublicParameters.from_payload(meta["public_parameters"])


# Re-exported for discoverability next to the loaders.
def save_artifact_bytes(owner: DataOwner) -> bytes:
    """In-memory variant of :func:`save_artifact` (tests, network shipping)."""
    buffer = io.BytesIO()
    save_artifact(owner, buffer)
    return buffer.getvalue()
