"""Shared test oracles.

The repo's correctness bar for every state-preserving transformation --
building through the batched forest engine, publishing and reloading an
artifact, applying incremental updates -- is the same: the transformed
system must be observationally **bit-identical** to a reference system.
The assertion block lives here once so the construction, artifact and
update suites (and any future transformation) use one oracle.
"""

from __future__ import annotations

import io
import zipfile

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner, ServerPackage
from repro.core.server import Server
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE, IFMHTree
from repro.mesh.builder import SignatureMesh
from repro.metrics.counters import Counters
from repro.reference import naive_ifmh_tree


def assert_queries_bit_identical(expected, actual, queries, require_valid=True):
    """Both (server, client) pairs must answer every query identically.

    Checks results, verification objects, per-query server counters,
    verdict summaries and client-side verification counters -- the full
    observable surface of a query round trip.  With ``require_valid``
    (the default) every verdict must also be *valid*: two systems agreeing
    on a rejection is not equivalence.  Coarse-tolerance suites pass
    ``require_valid=False``, because a large engine tolerance legitimately
    merges subdomains whose records genuinely cross -- the scheme then
    rejects some honest answers, identically on both sides.
    """
    expected_server, expected_client = expected
    actual_server, actual_client = actual
    for query in queries:
        expected_execution = expected_server.execute(query)
        actual_execution = actual_server.execute(query)
        assert actual_execution.result == expected_execution.result, query
        assert (
            actual_execution.verification_object
            == expected_execution.verification_object
        ), query
        assert (
            actual_execution.counters.snapshot()
            == expected_execution.counters.snapshot()
        ), query
        expected_report = expected_client.verify(
            query, expected_execution.result, expected_execution.verification_object
        )
        actual_report = actual_client.verify(
            query, actual_execution.result, actual_execution.verification_object
        )
        if require_valid:
            assert actual_report.is_valid, (query, actual_report.failures)
        assert actual_report.summary() == expected_report.summary(), query
        assert (
            actual_report.counters.snapshot() == expected_report.counters.snapshot()
        ), query


def materialized_leaves(itree):
    """Every subdomain leaf of ``itree`` with its region, witness and sorted
    view filled (bulk-built and loaded trees fill them on first use)."""
    for leaf in itree.leaves():
        itree.materialize_leaf(leaf)
        yield leaf


def searched_leaf(itree, weights):
    """The materialized leaf an I-tree search lands on."""
    leaf = itree.search(weights).leaf
    itree.materialize_leaf(leaf)
    return leaf


def assert_ads_state_identical(expected_ads, actual_ads):
    """Owner-side ADS state must match hash for hash (scheme-aware)."""
    assert type(actual_ads) is type(expected_ads)
    if isinstance(expected_ads, SignatureMesh):
        assert actual_ads.cell_count == expected_ads.cell_count
        assert [pair.signature for pair in actual_ads.unique_signatures] == [
            pair.signature for pair in expected_ads.unique_signatures
        ]
        return
    assert actual_ads.root_hash == expected_ads.root_hash
    assert actual_ads.root_signature == expected_ads.root_signature
    for expected_leaf, actual_leaf in zip(
        expected_ads.itree.leaves(), actual_ads.itree.leaves()
    ):
        assert actual_leaf.hash_value == expected_leaf.hash_value
    if expected_ads.mode == MULTI_SIGNATURE:
        for expected_leaf, actual_leaf in zip(
            expected_ads.itree.leaves(), actual_ads.itree.leaves()
        ):
            assert actual_ads.subdomain_digest(actual_leaf) == expected_ads.subdomain_digest(
                expected_leaf
            )
            assert actual_leaf.signature == expected_leaf.signature
    assert expected_ads.mode in (ONE_SIGNATURE, MULTI_SIGNATURE)


def assert_matches_fresh_rebuild(owner: DataOwner, queries, require_valid=True):
    """The update-suite oracle: an updated owner vs a from-scratch build.

    Rebuilds the owner's *current* dataset from scratch -- same config,
    same keypair, same epoch -- and asserts the live (incrementally
    maintained) ADS is bit-identical: owner-side hashes and signatures,
    then the full query surface through fresh server/client pairs.
    """
    fresh = DataOwner(
        owner.dataset,
        owner.template,
        config=owner.config,
        keypair=owner.keypair,
        epoch=owner.epoch,
    )
    assert_ads_state_identical(fresh.ads, owner.ads)
    assert_queries_bit_identical(
        (Server(fresh.outsource()), Client(fresh.public_parameters())),
        (Server(owner.outsource()), Client(owner.public_parameters())),
        queries,
        require_valid=require_valid,
    )
    return fresh


def naive_and_engine_builds(dataset, template, **config_fields):
    """The same IFMH built by the naive reference and by the production engine.

    Returns ``(trees, counters)``, each keyed ``"naive"`` and ``"engine"``;
    ``config_fields`` go to the :class:`SystemConfig` both builds share.
    """
    config = SystemConfig(**config_fields)
    trees, counters = {}, {}
    for name, build in (("naive", naive_ifmh_tree), ("engine", IFMHTree)):
        counters[name] = Counters()
        trees[name] = build(dataset, template, config=config, counters=counters[name])
    return trees, counters


def naive_reference_pair(owner: DataOwner):
    """A (server, client) pair over the naive reference build of ``owner``'s ADS.

    Same dataset, config and signing key; the ADS is
    :func:`repro.reference.naive_ifmh_tree`, which builds every subdomain's
    FMH-tree on its own.  The construction identity suites compare the
    production build's query surface against this pair.
    """
    ads = naive_ifmh_tree(
        owner.dataset, owner.template, config=owner.config, signer=owner.keypair.signer
    )
    package = ServerPackage(
        dataset=owner.dataset, ads=ads, public_parameters=owner.public_parameters()
    )
    return Server(package), Client(owner.public_parameters())


def artifact_members(payload: bytes) -> list:
    """An artifact's ``.npz`` members in write order, as ``(name, bytes)``.

    This is every byte of the bundle except the zip container's own
    entry timestamps, which record the wall clock of the write.
    """
    with zipfile.ZipFile(io.BytesIO(payload)) as bundle:
        return [(info.filename, bundle.read(info)) for info in bundle.infolist()]


def assert_publish_matches_forced_rebuild(owner: DataOwner, base=None, full=True) -> set:
    """Publishing the owner's IFMH tree from its columns == from its node walk.

    A bulk-built, loaded or incrementally updated IFMH tree publishes the
    pre-order columns and hash columns it holds; the node walk
    (:meth:`IFMHTree.walk_arrays`) recomputes every array from the
    materialised nodes, their FMH views and the dense permutation.  With
    ``full`` a full publish, and with ``base`` (a full artifact of the
    lineage) a delta publish, must write the same bytes either way.
    Returns the names of the permutation entries written, so callers can
    check which encoding they covered.
    """

    def publish_all():
        written = []
        if full:
            buffer = io.BytesIO()
            owner.publish(buffer)
            written.append(artifact_members(buffer.getvalue()))
        if base is not None:
            buffer = io.BytesIO()
            report = owner.publish(buffer, base=base)
            assert report.mode == "delta", report.fallback_reason
            written.append(artifact_members(buffer.getvalue()))
        return written

    written = publish_all()
    ads = owner.ads
    if isinstance(ads, IFMHTree):  # a signature mesh has no node walk
        ads.to_arrays = ads.walk_arrays  # publish through the node walk this once
        try:
            walked = publish_all()
        finally:
            del ads.to_arrays
        for fast, forced in zip(written, walked):
            assert [name for name, _ in fast] == [name for name, _ in forced]
            differing = [name for (name, a), (_, b) in zip(fast, forced) if a != b]
            assert differing == []
    names = (name[: -len(".npy")] for members in written for name, _ in members)
    return {name for name in names if name.startswith("ads_perm")}
