"""Published ADS artifacts: save/load round trips and integrity rejection.

The contract under test: ``Server.from_artifact(path)`` answers queries
with records, verification objects, verdicts and per-query counters
bit-identical to a server handed the same ADS in process, re-hashing
nothing on load -- and any truncated, tampered or version-incompatible
file is rejected with :class:`ConstructionError` before it can serve
wrong answers.
"""

import dataclasses
import io
import json
import os
import random
import zipfile

import numpy as np
import pytest

from repro.core.artifact import (
    ARTIFACT_FORMAT_VERSION,
    SHARDED_FORMAT_VERSION,
    SUPPORTED_FORMAT_VERSIONS,
    ARTIFACT_MAGIC,
    _payload_checksum,
    load_artifact,
    load_public_parameters,
    save_artifact_bytes,
)
from repro.core.client import Client
from repro.core.config import SCHEMES, SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner, PublicParameters, ServerPackage
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Record
from repro.core.server import Server
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

from tests.helpers import (
    assert_publish_matches_forced_rebuild,
    assert_queries_bit_identical,
    naive_reference_pair,
)

QUERIES_1D = [
    TopKQuery(weights=(0.35,), k=4),
    RangeQuery(weights=(0.6,), low=1.5, high=7.0),
    KNNQuery(weights=(0.8,), k=3, target=4.0),
    RangeQuery(weights=(0.1,), low=-50.0, high=-40.0),  # empty window
]


def _published_system(scheme, n_records=24, dimension=1, seed=9, **config_kwargs):
    workload = WorkloadConfig(n_records=n_records, dimension=dimension, seed=seed)
    dataset, template = make_dataset(workload), make_template(workload)
    return OutsourcedSystem.setup(
        dataset,
        template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac", **config_kwargs),
        rng=random.Random(seed),
    )


def _publish(system, tmp_path, name="ads.npz"):
    path = tmp_path / name
    system.owner.publish(path)
    return path


def _assert_bit_identical(system, server, client, queries):
    for query in queries:
        warm = system.server.execute(query)
        cold = server.execute(query)
        assert cold.result == warm.result
        assert cold.verification_object == warm.verification_object
        assert cold.counters.snapshot() == warm.counters.snapshot()
        warm_report = system.client.verify(
            query, warm.result, warm.verification_object
        )
        cold_report = client.verify(query, cold.result, cold.verification_object)
        assert cold_report.is_valid, cold_report.failures
        assert cold_report.summary() == warm_report.summary()
        assert cold_report.counters.snapshot() == warm_report.counters.snapshot()


# ------------------------------------------------------------- round trips
@pytest.mark.parametrize("scheme", SCHEMES)
def test_round_trip_is_bit_identical(scheme, tmp_path):
    system = _published_system(scheme)
    path = _publish(system, tmp_path)
    server = Server.from_artifact(path)
    client = Client.from_artifact(path)
    _assert_bit_identical(system, server, client, QUERIES_1D)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_load_rehashes_nothing(scheme, tmp_path):
    system = _published_system(scheme)
    path = _publish(system, tmp_path)
    loaded = load_artifact(path)
    counters = loaded.ads.counters
    assert counters.hash_operations == 0
    assert counters.physical_hash_operations == 0
    assert counters.signatures_created == 0
    if scheme != "signature-mesh":
        assert loaded.ads.root_hash == system.owner.ads.root_hash
        for warm, cold in zip(
            system.owner.ads.itree.leaves(), loaded.ads.itree.leaves()
        ):
            assert cold.hash_value == warm.hash_value
            assert loaded.ads.subdomain_digest(cold) == system.owner.ads.subdomain_digest(warm)
    else:
        assert loaded.ads.signature_count == system.owner.ads.signature_count
        assert [c.identifier for c in loaded.ads.cells] == [
            c.identifier for c in system.owner.ads.cells
        ]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_round_trip_multivariate_lp_configuration(scheme, tmp_path):
    system = _published_system(scheme, n_records=8, dimension=2, seed=4)
    path = _publish(system, tmp_path)
    server = Server.from_artifact(path)
    client = Client.from_artifact(path)
    queries = [
        TopKQuery(weights=(0.4, 0.3), k=3),
        RangeQuery(weights=(0.7, 0.2), low=0.0, high=9.0),
        KNNQuery(weights=(0.25, 0.55), k=2, target=5.0),
    ]
    _assert_bit_identical(system, server, client, queries)


@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature"])
def test_loaded_artifact_answers_like_the_naive_reference(scheme, tmp_path):
    """A cold server from the published arena serves what the naive build serves."""
    system = _published_system(scheme)
    path = _publish(system, tmp_path)
    assert_queries_bit_identical(
        naive_reference_pair(system.owner),
        (Server.from_artifact(path), Client.from_artifact(path)),
        QUERIES_1D,
    )


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("shards", [None, 3])
def test_headers_echoing_the_retired_build_flags_still_load(flag, shards, tmp_path):
    """Artifacts whose config echo carries hash_consing / batch_hashing load as before.

    Older builds echoed both flags; they only chose how the forest was
    hashed, so the loader drops them and serves the same answers.
    """
    system = _published_system("one-signature")
    path = tmp_path / "ads.npz"
    system.owner.publish(path, arena_shards=shards)
    _rewrite_meta(
        path, lambda meta: meta["config"].update(hash_consing=flag, batch_hashing=flag)
    )
    loaded = load_artifact(path)
    assert loaded.meta["config"]["hash_consing"] is flag
    assert loaded.meta["format_version"] == (
        ARTIFACT_FORMAT_VERSION if shards is None else SHARDED_FORMAT_VERSION
    )
    assert loaded.config == system.owner.config
    _assert_bit_identical(
        system, Server(loaded.package), Client(loaded.public_parameters), QUERIES_1D
    )


def test_round_trip_incremental_builder(tmp_path):
    system = _published_system("multi-signature", build_mode="incremental")
    path = _publish(system, tmp_path)
    loaded = load_artifact(path)
    assert loaded.meta["itree_builder"] == "incremental"
    _assert_bit_identical(
        system, Server(loaded.package), Client(loaded.public_parameters), QUERIES_1D
    )


def test_round_trip_single_record_database(tmp_path):
    system = _published_system("one-signature", n_records=1)
    path = _publish(system, tmp_path)
    server = Server.from_artifact(path)
    client = Client.from_artifact(path)
    _assert_bit_identical(
        system, server, client, [TopKQuery(weights=(0.5,), k=1)]
    )


def test_round_trip_with_rsa_verifier(tmp_path):
    """Public-key material survives the codec; verdicts stay valid."""
    workload = WorkloadConfig(n_records=10, dimension=1, seed=2)
    dataset, template = make_dataset(workload), make_template(workload)
    system = OutsourcedSystem.setup(
        dataset,
        template,
        config=SystemConfig(scheme="one-signature", key_bits=512),
        rng=random.Random(0xA11CE),
    )
    path = _publish(system, tmp_path)
    client = Client.from_artifact(path)
    assert client.parameters.verifier.scheme == "rsa"
    query = TopKQuery(weights=(0.5,), k=3)
    execution = Server.from_artifact(path).execute(query)
    report = client.verify(query, execution.result, execution.verification_object)
    assert report.is_valid, report.failures


def test_config_echo_and_counts_in_meta(tmp_path):
    system = _published_system("one-signature")
    loaded = load_artifact(_publish(system, tmp_path))
    assert loaded.config == system.owner.config
    assert loaded.meta["magic"] == ARTIFACT_MAGIC
    assert loaded.meta["format_version"] == ARTIFACT_FORMAT_VERSION
    assert loaded.meta["counts"]["records"] == 24
    assert loaded.meta["counts"]["subdomains"] == system.owner.ads.subdomain_count


def test_outsourced_system_from_artifact(tmp_path):
    system = _published_system("multi-signature")
    cold = OutsourcedSystem.from_artifact(_publish(system, tmp_path))
    assert cold.owner is None
    assert cold.scheme == "multi-signature"
    execution, report = cold.query_and_verify(TopKQuery(weights=(0.4,), k=3))
    assert report.is_valid, report.failures


def test_save_artifact_bytes_round_trips():
    system = _published_system("one-signature", n_records=6)
    blob = save_artifact_bytes(system.owner)
    loaded = load_artifact(io.BytesIO(blob))
    assert loaded.ads.root_hash == system.owner.ads.root_hash


# --------------------------------------------------------------- integrity
def test_truncated_file_rejected(tmp_path):
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ConstructionError, match="artifact"):
        Server.from_artifact(path)


def test_corrupted_run_rejected(tmp_path):
    """A 64-byte corruption anywhere hits array data, an npy header or the
    zip structure -- every one of those must surface as ConstructionError.
    (A single flipped byte can land in non-semantic npy alignment padding,
    which carries no content; runs cannot.)"""
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    data = bytearray(path.read_bytes())
    middle = len(data) // 2
    for offset in range(middle, middle + 64):
        data[offset] ^= 0x5A
    path.write_bytes(bytes(data))
    with pytest.raises(ConstructionError):
        Server.from_artifact(path)


def test_not_an_artifact_rejected(tmp_path):
    path = tmp_path / "not-an-artifact.npz"
    path.write_bytes(b"PK\x03\x04 definitely not a real zip")
    with pytest.raises(ConstructionError):
        Server.from_artifact(path)
    with pytest.raises(ConstructionError):
        Client.from_artifact(path)


def _rezip_with(path, replacements):
    """Rewrite npz members (bypassing zip CRC protection) to test checksums."""
    with zipfile.ZipFile(path) as bundle:
        members = {name: bundle.read(name) for name in bundle.namelist()}
    members.update(replacements)
    with zipfile.ZipFile(path, "w") as bundle:
        for name, payload in members.items():
            bundle.writestr(name, payload)


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _rewrite_meta(path, edit):
    """Apply ``edit`` to an artifact's header and re-seal it with a valid checksum."""
    with np.load(path) as bundle:
        meta = json.loads(bundle["meta"].tobytes().decode("utf-8"))
        arrays = {
            name: bundle[name]
            for name in bundle.files
            if name not in ("meta", "checksum")
        }
    edit(meta)
    blob = json.dumps(meta, sort_keys=True).encode()
    checksum = np.frombuffer(_payload_checksum(blob, arrays), dtype=np.uint8)
    _rezip_with(
        path,
        {
            "meta.npy": _npy_bytes(np.frombuffer(blob, dtype=np.uint8)),
            "checksum.npy": _npy_bytes(checksum),
        },
    )


def test_stale_checksum_after_array_swap_rejected(tmp_path):
    """A consistent zip whose arrays no longer match the stored checksum."""
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    with np.load(path) as bundle:
        digests = bundle["ads_arena_digests"].copy()
    digests[0, 0] ^= 0xFF
    _rezip_with(path, {"ads_arena_digests.npy": _npy_bytes(digests)})
    with pytest.raises(ConstructionError, match="integrity"):
        Server.from_artifact(path)


def test_tampered_meta_rejected(tmp_path):
    """Editing the header (e.g. the config echo) breaks the checksum."""
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    with np.load(path) as bundle:
        meta = json.loads(bundle["meta"].tobytes().decode("utf-8"))
    meta["config"]["bind_intersections"] = False
    blob = json.dumps(meta, sort_keys=True).encode()
    _rezip_with(path, {"meta.npy": _npy_bytes(np.frombuffer(blob, dtype=np.uint8))})
    with pytest.raises(ConstructionError, match="integrity"):
        Client.from_artifact(path)


def test_future_format_version_rejected(tmp_path):
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    _rewrite_meta(
        path, lambda meta: meta.update(format_version=max(SUPPORTED_FORMAT_VERSIONS) + 1)
    )
    with pytest.raises(ConstructionError, match="format version"):
        Server.from_artifact(path)


def test_root_of_roots_mismatch_rejected(tmp_path):
    """A forged roots digest (with a matching payload checksum) is caught."""
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    _rewrite_meta(path, lambda meta: meta.update(roots_digest="00" * 32))
    with pytest.raises(ConstructionError, match="root-of-roots"):
        Server.from_artifact(path)


def test_load_public_parameters_checks_integrity(tmp_path):
    system = _published_system("one-signature", n_records=6)
    path = _publish(system, tmp_path)
    parameters = load_public_parameters(path)
    assert isinstance(parameters, PublicParameters)
    data = bytearray(path.read_bytes())
    third = len(data) // 3
    for offset in range(third, third + 64):
        data[offset] ^= 0x5A
    path.write_bytes(bytes(data))
    with pytest.raises(ConstructionError):
        load_public_parameters(path)


# ------------------------------------------------------------- frozen types
def test_server_package_is_frozen():
    system = _published_system("one-signature", n_records=6)
    package = system.owner.outsource()
    assert isinstance(package, ServerPackage)
    with pytest.raises(dataclasses.FrozenInstanceError):
        package.dataset = None


# --------------------------------------------------------- atomic publish
def test_failed_publish_never_tears_the_old_artifact(tmp_path, monkeypatch):
    """Torn-write regression: a publish that dies mid-write must leave the
    previously published artifact byte-identical and no temp litter."""
    system = _published_system("one-signature", n_records=8)
    path = _publish(system, tmp_path)
    good_bytes = path.read_bytes()
    system.owner.insert(Record(record_id=8, values=(5.0, 1.0)))

    real_replace = os.replace

    def torn_replace(src, dst):
        if str(dst) == str(path):
            raise OSError("simulated crash at the publish rename")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", torn_replace)
    with pytest.raises(OSError, match="simulated crash"):
        system.owner.publish(path)
    monkeypatch.undo()
    assert path.read_bytes() == good_bytes  # old artifact intact, bit for bit
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]
    # The surviving artifact still cold-starts a working replica.
    server = Server.from_artifact(path)
    assert server.epoch == 0


def test_publish_report_modes(tmp_path):
    system = _published_system("one-signature", n_records=8)
    full = system.owner.publish(tmp_path / "epoch0.npz")
    assert (full.mode, full.epoch, full.fallback_reason) == ("full", 0, None)
    assert full.path == str(tmp_path / "epoch0.npz")
    system.owner.insert(Record(record_id=8, values=(5.0, 1.0)))
    delta = system.owner.publish(tmp_path / "epoch1.npz", base=tmp_path / "epoch0.npz")
    assert (delta.mode, delta.epoch, delta.fallback_reason) == ("delta", 1, None)
    server = Server.from_artifact(tmp_path / "epoch1.npz", base=tmp_path / "epoch0.npz")
    assert server.epoch == 1


def test_delta_publish_falls_back_to_full_when_base_missing(tmp_path):
    system = _published_system("one-signature", n_records=8)
    system.owner.publish(tmp_path / "epoch0.npz")
    system.owner.insert(Record(record_id=8, values=(5.0, 1.0)))
    report = system.owner.publish(
        tmp_path / "epoch1.npz", base=tmp_path / "vanished.npz"
    )
    assert report.mode == "full"
    assert "unusable" in report.fallback_reason
    # Chain repair: the fallback artifact is self-contained.
    assert Server.from_artifact(tmp_path / "epoch1.npz").epoch == 1


def test_delta_publish_falls_back_to_full_when_base_corrupt(tmp_path):
    system = _published_system("one-signature", n_records=8)
    base = _publish(system, tmp_path, "epoch0.npz")
    data = bytearray(base.read_bytes())
    for offset in range(len(data) // 2, len(data) // 2 + 64):
        data[offset] ^= 0x5A
    base.write_bytes(bytes(data))
    system.owner.insert(Record(record_id=8, values=(5.0, 1.0)))
    report = system.owner.publish(tmp_path / "epoch1.npz", base=base)
    assert report.mode == "full"
    assert "unusable" in report.fallback_reason
    assert Server.from_artifact(tmp_path / "epoch1.npz").epoch == 1


def test_delta_publish_over_its_own_base_writes_full(tmp_path):
    """``publish(path, base=path)`` must not replace the lineage's only
    full artifact with a delta that needs that very file to load."""
    system = _published_system("one-signature", n_records=40)
    path = _publish(system, tmp_path)
    system.owner.insert(Record(record_id=40, values=(5.0, 1.0)))
    report = system.owner.publish(path, base=path)
    assert report.mode == "full"
    assert "being written" in report.fallback_reason
    assert Server.from_artifact(path).epoch == 1
    restarted = DataOwner.from_artifact(path, keypair=system.owner.keypair)
    assert restarted.epoch == 1
    assert restarted.ads.root_hash == system.owner.ads.root_hash


def test_fresh_build_publishes_without_walking_its_nodes(tmp_path, monkeypatch):
    """A freshly built owner publishes the columns its build assembled: no
    node walk and no leaf materialisation, at a size where either would
    cost more than the write."""
    from repro.itree.itree import ITree
    from repro.itree.nodes import ITreeNode

    workload = WorkloadConfig(n_records=300, dimension=1, seed=1)
    owner = DataOwner(
        make_dataset(workload),
        make_template(workload),
        config=SystemConfig(signature_algorithm="hmac"),
        rng=random.Random(2),
    )

    def refuse(*_args, **_kwargs):
        raise AssertionError("the publish walked the I-tree")

    with monkeypatch.context() as patch:
        patch.setattr(ITree, "materialize_leaf", refuse)
        patch.setattr(ITreeNode, "iter_subtree", refuse)
        assert owner.publish(tmp_path / "ads.npz").mode == "full"
    server = Server.from_artifact(tmp_path / "ads.npz")
    live = Server(owner.outsource())
    query = TopKQuery(weights=(0.37,), k=4)
    assert server.execute(query).verification_object == live.execute(query).verification_object


@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature"])
def test_fresh_and_loaded_publishes_match_the_node_walk(scheme, tmp_path):
    """Built and loaded trees write their columns; the bytes equal the node walk's."""
    workload = WorkloadConfig(n_records=40, dimension=1, seed=3)
    owner = DataOwner(
        make_dataset(workload),
        make_template(workload),
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(4),
    )
    assert "ads_perm_row0" in assert_publish_matches_forced_rebuild(owner)
    path = tmp_path / "ads.npz"
    owner.publish(path)
    loaded = DataOwner.from_artifact(path, keypair=owner.keypair)
    assert_publish_matches_forced_rebuild(loaded)
