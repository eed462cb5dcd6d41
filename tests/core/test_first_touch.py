"""A server that touches every subdomain holds no per-subdomain digest lists.

A cold-started server attaches a subdomain's FMH view on that subdomain's
first query and reads each range proof straight from the shared arena, so
what a long-lived server keeps per touched subdomain is the view itself,
not its tree as lists of bytes.  The sweep below sends a top-k, a range and
a k-NN query to every subdomain of three cold-started servers with
:meth:`repro.merkle.arena.MerkleArena.byte_levels` patched to raise: any
query-path read of the digest lists fails the test.  Every answer must
still equal, VO for VO, what a server handed the in-process ADS returns.
"""

import random

import pytest

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Record
from repro.core.server import Server
from repro.merkle.arena import MerkleArena
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

from tests.helpers import assert_queries_bit_identical


def _owner(scheme):
    workload = WorkloadConfig(n_records=14, dimension=1, seed=5)
    return DataOwner(
        make_dataset(workload),
        make_template(workload),
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(5),
    )


def _sweep(owner):
    """A top-k, a range and a k-NN query at the midpoint of every subdomain."""
    queries = []
    itree = owner.ads.itree
    for leaf in itree.leaves():
        itree.materialize_leaf(leaf)  # an updated tree reloads its leaves lazily
        weights = ((leaf.region.interval_low + leaf.region.interval_high) / 2,)
        queries += [
            TopKQuery(weights=weights, k=3),
            RangeQuery(weights=weights, low=1.5, high=7.0),
            KNNQuery(weights=weights, k=3, target=4.0),
        ]
    return queries


@pytest.fixture
def no_digest_lists(monkeypatch):
    def refuse(self, root_index, leaf_count):
        raise AssertionError("a query built a subdomain's digest lists")

    monkeypatch.setattr(MerkleArena, "byte_levels", refuse)


@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature"])
def test_cold_server_sweep_builds_no_digest_lists(tmp_path, no_digest_lists, scheme):
    owner = _owner(scheme)
    path = tmp_path / "ads.npz"
    owner.publish(path)
    cold = Server.from_artifact(path)
    assert_queries_bit_identical(
        (Server(owner.outsource()), Client(owner.public_parameters())),
        (cold, Client.from_artifact(path)),
        _sweep(owner),
    )
    assert all(leaf.fmh_tree is not None for leaf in cold.ads.itree.leaves())


def test_delta_loaded_server_sweep_builds_no_digest_lists(tmp_path, no_digest_lists):
    owner = _owner("one-signature")
    owner.publish(tmp_path / "epoch0.npz")
    owner.insert(Record(record_id=14, values=(5.0, 1.0)))
    owner.publish(tmp_path / "epoch1.npz", base=tmp_path / "epoch0.npz")
    cold = Server.from_artifact(tmp_path / "epoch1.npz", base=tmp_path / "epoch0.npz")
    assert cold.epoch == 1
    client = Client(owner.public_parameters())
    assert_queries_bit_identical(
        (Server(owner.outsource()), client), (cold, client), _sweep(owner)
    )
    assert all(leaf.fmh_tree is not None for leaf in cold.ads.itree.leaves())
