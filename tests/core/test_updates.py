"""Unit tests for the owner's update API: validation, epochs, edge cases.

The differential correctness of the changed-path rebuild lives in
``tests/properties/test_property_updates.py``; this module covers the API
contract: id validation, batch semantics, the epoch counter, the
documented small-dataset edges, strategy selection and the owner-restart
flow.
"""

import random

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner, UpdateReport
from repro.core.queries import TopKQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.crypto.signer import make_signer
from repro.geometry.domain import Domain

from tests.helpers import assert_matches_fresh_rebuild

_TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)


def _owner(rows, scheme="one-signature", **kwargs):
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    return DataOwner(
        dataset,
        _TEMPLATE,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac", **kwargs),
        rng=random.Random(11),
    )


_ROWS = [(3.9, 2.0), (3.5, 1.0), (3.2, 0.0), (3.8, 3.0), (2.9, 1.0)]


# ----------------------------------------------------------------- validation
def test_insert_duplicate_record_id_raises():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="duplicate record id"):
        owner.insert(Record(record_id=2, values=(1.0, 1.0)))
    assert owner.epoch == 0  # nothing was applied


def test_delete_missing_record_id_raises():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="no such record"):
        owner.delete(99)
    assert owner.epoch == 0


def test_duplicate_delete_ids_in_one_batch_raise():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="duplicate record id in the delete"):
        owner.apply_updates(deletes=[1, 1])


def test_empty_batch_raises():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="at least one insert or delete"):
        owner.apply_updates()


def test_unknown_strategy_raises():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="unknown update strategy"):
        owner.apply_updates(inserts=[Record(record_id=9, values=(1.0, 1.0))], strategy="bogus")


def test_batch_insert_colliding_with_survivor_raises():
    owner = _owner(_ROWS)
    with pytest.raises(ConstructionError, match="duplicate record id"):
        owner.apply_updates(
            inserts=[Record(record_id=0, values=(1.0, 1.0))], deletes=[1]
        )


# --------------------------------------------------------------- small edges
def test_delete_down_to_single_record_works():
    owner = _owner(_ROWS[:2])
    report = owner.delete(0)
    assert len(owner.dataset) == 1
    fresh = assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=1)])
    assert fresh.ads.subdomain_count == owner.ads.subdomain_count == 1
    assert report.epoch == 1


def test_deleting_the_whole_dataset_is_a_documented_error():
    owner = _owner(_ROWS[:1])
    with pytest.raises(ConstructionError, match="at least one record"):
        owner.delete(0)
    # The same guard covers batches that drain everything.
    owner = _owner(_ROWS[:2])
    with pytest.raises(ConstructionError, match="at least one record"):
        owner.apply_updates(deletes=[0, 1])


def test_insert_into_single_record_dataset():
    owner = _owner(_ROWS[:1])
    owner.insert(Record(record_id=1, values=(1.5, 4.0)))
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=2)])


# ------------------------------------------------------------------- batches
def test_batch_replacing_the_only_record_works():
    """Regression: a batch whose deletes drain every current record must
    not crash on an empty intermediate dataset -- an insert with a free id
    is applied first."""
    owner = _owner(_ROWS[:1])
    report = owner.apply_updates(
        inserts=[Record(record_id=1, values=(2.0, 1.0))], deletes=[0]
    )
    assert report.strategy == "incremental"
    assert [record.record_id for record in owner.dataset.records] == [1]
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=1)])


def test_batch_replacing_whole_dataset_in_place_falls_back_to_rebuild():
    """Replacing every record while reusing its id leaves no safe
    single-step order; the batch transparently rebuilds instead."""
    owner = _owner(_ROWS[:2])
    report = owner.apply_updates(
        inserts=[
            Record(record_id=0, values=(2.0, 1.0)),
            Record(record_id=1, values=(4.0, 0.5)),
        ],
        deletes=[0, 1],
    )
    assert report.strategy == "rebuild"
    assert owner.epoch == 1
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=2)])


def test_batch_deletes_then_inserts_replaces_record():
    owner = _owner(_ROWS)
    report = owner.apply_updates(
        inserts=[Record(record_id=2, values=(9.9, 0.5))], deletes=[2]
    )
    assert isinstance(report, UpdateReport)
    assert (report.inserted, report.deleted, report.epoch) == (1, 1, 1)
    assert owner.dataset.by_id(2).values == (9.9, 0.5)
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=3)])


def test_each_batch_bumps_epoch_once():
    owner = _owner(_ROWS)
    owner.apply_updates(
        inserts=[
            Record(record_id=10, values=(1.0, 1.0)),
            Record(record_id=11, values=(2.0, 2.0)),
        ],
        deletes=[0, 1],
    )
    assert owner.epoch == 1
    owner.delete(10)
    assert owner.epoch == 2
    assert owner.public_parameters().epoch == 2


# ----------------------------------------------------------------- strategies
def test_forced_rebuild_strategy_matches_incremental():
    incremental = _owner(_ROWS)
    rebuilt = _owner(_ROWS)
    record = Record(record_id=7, values=(2.2, 3.3))
    left = incremental.insert(record)
    right = rebuilt.apply_updates(inserts=[record], strategy="rebuild")
    assert left.strategy == "incremental"
    assert right.strategy == "rebuild"
    assert incremental.ads.root_hash == rebuilt.ads.root_hash
    assert_matches_fresh_rebuild(incremental, [TopKQuery(weights=(0.5,), k=3)])


def test_incremental_strategy_rejected_for_mesh():
    owner = _owner(_ROWS, scheme="signature-mesh")
    with pytest.raises(ConstructionError, match="incremental updates require"):
        owner.apply_updates(
            inserts=[Record(record_id=7, values=(2.2, 3.3))], strategy="incremental"
        )


def test_mesh_updates_rebuild_and_stay_consistent():
    owner = _owner(_ROWS, scheme="signature-mesh")
    report = owner.insert(Record(record_id=7, values=(2.2, 3.3)))
    assert report.strategy == "rebuild"
    assert owner.epoch == 1
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=3)])


def test_incremental_builder_configuration_falls_back_to_rebuild():
    owner = _owner(_ROWS, build_mode="incremental")
    report = owner.insert(Record(record_id=7, values=(2.2, 3.3)))
    assert report.strategy == "rebuild"
    assert_matches_fresh_rebuild(owner, [TopKQuery(weights=(0.5,), k=3)])


# ------------------------------------------------------------- owner restart
def test_owner_restart_from_artifact_and_update(tmp_path):
    owner = _owner(_ROWS)
    path = tmp_path / "ads.npz"
    owner.publish(path)
    restarted = DataOwner.from_artifact(path, keypair=owner.keypair)
    assert restarted.epoch == 0
    report = restarted.insert(Record(record_id=7, values=(2.2, 3.3)))
    assert report.strategy == "incremental"
    assert restarted.epoch == 1
    assert_matches_fresh_rebuild(restarted, [TopKQuery(weights=(0.5,), k=3)])


def test_owner_restart_rejects_mismatched_keypair(tmp_path):
    owner = _owner(_ROWS)
    path = tmp_path / "ads.npz"
    owner.publish(path)
    stranger = make_signer("hmac", rng=random.Random(999))
    with pytest.raises(ConstructionError, match="does not match"):
        DataOwner.from_artifact(path, keypair=stranger)


# ------------------------------------------------------- deferred reloading
def test_updated_tree_defers_node_reconstruction():
    owner = _owner(_ROWS)
    owner.insert(Record(record_id=7, values=(2.2, 3.3)))
    tree = owner.ads
    assert "_deferred_load" in tree.__dict__  # nothing touched the nodes yet
    assert tree.root_hash  # served without materializing
    assert tree.subdomain_count > 0
    assert "_deferred_load" in tree.__dict__
    tree.search((0.5,))  # first query touch materializes
    assert "_deferred_load" not in tree.__dict__
    assert tree.root_hash == tree.itree.root.hash_value


def test_updated_tree_publishes_without_rebuilding(tmp_path, monkeypatch):
    """A publish writes the update's own arrays: no I-tree skeleton, no
    leaf materialisation, no dense permutation -- and the tree stays
    deferred, so neither the next update nor the next publish pays."""
    import numpy as np

    from repro.core.server import Server
    from repro.itree.itree import ITree
    from repro.itree.permutation import LazySplicedPermutation

    rng = random.Random(3)
    # 40 records: enough subdomains for the row-delta permutation encoding.
    rows = [(round(rng.uniform(0, 8), 2), round(rng.uniform(0, 6), 2)) for _ in range(40)]
    owner = _owner(rows)
    base = tmp_path / "epoch0.npz"
    owner.publish(base)
    owner.insert(Record(record_id=40, values=(2.2, 3.3)))

    def refuse(*_args, **_kwargs):
        raise AssertionError("the publish rebuilt the updated tree")

    with monkeypatch.context() as patch:
        patch.setattr(ITree, "from_arrays", refuse)
        patch.setattr(ITree, "materialize_leaf", refuse)
        patch.setattr(LazySplicedPermutation, "materialize", refuse)
        assert owner.publish(tmp_path / "full.npz").mode == "full"
        assert owner.publish(tmp_path / "delta.npz", base=base).mode == "delta"
    assert "_deferred_load" in owner.ads.__dict__
    with np.load(tmp_path / "full.npz") as bundle:
        assert "ads_perm_row0" in bundle.files

    server = Server.from_artifact(tmp_path / "delta.npz", base=base, expected_epoch=1)
    live = Server(owner.outsource())
    query = TopKQuery(weights=(0.5,), k=3)
    assert (
        server.execute(query).verification_object
        == live.execute(query).verification_object
    )


def test_updated_owner_publishes_and_reloads(tmp_path):
    owner = _owner(_ROWS)
    owner.insert(Record(record_id=7, values=(2.2, 3.3)))
    path = tmp_path / "updated.npz"
    owner.publish(path)
    from repro.core.server import Server

    server = Server.from_artifact(path, expected_epoch=1)
    live = Server(owner.outsource())
    query = TopKQuery(weights=(0.5,), k=3)
    assert (
        server.execute(query).verification_object
        == live.execute(query).verification_object
    )
