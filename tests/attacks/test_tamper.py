"""Tests for the adversary simulation (tampering transforms) and for the
epoch/delta attacks an out-of-date or malicious server can mount against
the update subsystem: serving a pre-update ADS after the owner moved on,
splicing a delta artifact onto the wrong base, and replaying old files."""

import random

import pytest

from repro.attacks.tamper import (
    ATTACK_REGISTRY,
    AttackApplicability,
    all_attacks,
    apply_attack,
)
from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner
from repro.core.protocol import OutsourcedSystem
from repro.core.queries import RangeQuery, TopKQuery
from repro.core.records import Record
from repro.core.results import QueryResult
from repro.core.server import Server


@pytest.fixture()
def system(univariate_dataset, univariate_template):
    return OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )


@pytest.fixture()
def execution(system):
    return system.server.execute(RangeQuery(weights=(0.5,), low=1.0, high=6.0))


def test_registry_contains_all_attack_classes():
    names = set(ATTACK_REGISTRY)
    assert {"drop-record", "truncate-result", "forge-attribute", "inject-record",
            "reorder-result", "substitute-record", "tamper-signature", "tamper-boundary"} == names
    violations = {attack.violates for attack in all_attacks()}
    assert violations == {"completeness", "soundness", "authenticity"}


def test_all_attacks_is_stable_order():
    assert [a.name for a in all_attacks()] == sorted(ATTACK_REGISTRY)


def test_attacks_do_not_mutate_inputs(execution):
    rng = random.Random(0)
    original_records = tuple(execution.result.records)
    original_vo = execution.verification_object
    for attack in all_attacks():
        attack(execution.result, execution.verification_object, rng)
    assert execution.result.records == original_records
    assert execution.verification_object is original_vo


def test_drop_and_truncate_shrink_result(execution):
    rng = random.Random(0)
    for name in ("drop-record", "truncate-result"):
        tampered = ATTACK_REGISTRY[name](execution.result, execution.verification_object, rng)
        assert tampered is not None
        assert len(tampered[0]) == len(execution.result) - 1


def test_inject_grows_result(execution):
    rng = random.Random(0)
    tampered = ATTACK_REGISTRY["inject-record"](execution.result, execution.verification_object, rng)
    assert tampered is not None
    assert len(tampered[0]) == len(execution.result) + 1
    injected_ids = {r.record_id for r in tampered[0]} - {r.record_id for r in execution.result}
    assert len(injected_ids) == 1


def test_forge_changes_one_record(execution):
    rng = random.Random(0)
    tampered = ATTACK_REGISTRY["forge-attribute"](execution.result, execution.verification_object, rng)
    assert tampered is not None
    changed = [
        (a, b) for a, b in zip(execution.result.records, tampered[0].records) if a != b
    ]
    assert len(changed) == 1


def test_reorder_and_substitute_keep_length(execution):
    rng = random.Random(0)
    for name in ("reorder-result", "substitute-record"):
        tampered = ATTACK_REGISTRY[name](execution.result, execution.verification_object, rng)
        assert tampered is not None
        assert len(tampered[0]) == len(execution.result)


def test_signature_and_boundary_attacks_modify_vo_only(system):
    rng = random.Random(0)
    # Top-k windows end at the maximum, so the left boundary is a real record
    # and the boundary-forging attack is applicable.
    execution = system.server.execute(TopKQuery(weights=(0.55,), k=3))
    for name in ("tamper-signature", "tamper-boundary"):
        tampered = ATTACK_REGISTRY[name](execution.result, execution.verification_object, rng)
        assert tampered is not None
        assert tampered[0].records == execution.result.records
        assert tampered[1] is not execution.verification_object


def test_attacks_needing_records_skip_empty_results(system):
    rng = random.Random(0)
    empty = QueryResult(records=())
    execution = system.server.execute(RangeQuery(weights=(0.5,), low=1.0, high=6.0))
    for name in ("drop-record", "truncate-result", "forge-attribute", "inject-record",
                 "reorder-result", "substitute-record"):
        assert ATTACK_REGISTRY[name](empty, execution.verification_object, rng) is None


def test_attack_callable_uses_default_rng(execution):
    attack = ATTACK_REGISTRY["drop-record"]
    assert attack(execution.result, execution.verification_object) is not None


# ---------------------------------------------------------------------------
# Epoch / stale-ADS attacks (update subsystem)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature", "signature-mesh"])
def test_stale_server_fails_verification_after_update(
    univariate_dataset, univariate_template, scheme
):
    """A server still serving epoch k after the owner published k+1 must
    fail client verification: its signatures were genuine once, but the
    current public parameters bind the new epoch into every signed
    message."""
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
    )
    owner = system.owner
    stale_server = system.server  # holds the epoch-0 package
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)

    owner.insert(Record(record_id=99, values=(4.2, 1.7)))
    assert owner.epoch == 1
    current_client = Client(owner.public_parameters())

    stale = stale_server.execute(query)
    report = current_client.verify(query, stale.result, stale.verification_object)
    assert not report.is_valid, f"stale epoch went undetected under {scheme}"

    # An up-to-date server passes against the same client.
    fresh = Server(owner.outsource()).execute(query)
    assert current_client.verify(
        query, fresh.result, fresh.verification_object
    ).is_valid


def test_stale_artifact_fails_verification_after_update(
    univariate_dataset, univariate_template, tmp_path
):
    """Same attack through the artifact path: a pre-update file keeps
    loading (it is internally consistent) but its answers are rejected by
    clients holding the owner's refreshed parameters, and an operator
    pinning ``expected_epoch`` refuses to even serve it."""
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )
    owner = system.owner
    stale_path = tmp_path / "epoch0.npz"
    owner.publish(stale_path)
    owner.delete(3)

    stale_server = Server.from_artifact(stale_path)
    query = TopKQuery(weights=(0.55,), k=3)
    stale = stale_server.execute(query)
    current_client = Client(owner.public_parameters())
    assert not current_client.verify(
        query, stale.result, stale.verification_object
    ).is_valid

    with pytest.raises(ConstructionError, match="stale or replayed"):
        Server.from_artifact(stale_path, expected_epoch=owner.epoch)


def test_delta_artifact_on_wrong_base_is_rejected(
    univariate_dataset, univariate_template, tmp_path
):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )
    owner = system.owner
    base_path = tmp_path / "base.npz"
    owner.publish(base_path)
    owner.insert(Record(record_id=77, values=(1.1, 0.9)))
    delta_path = tmp_path / "delta.npz"
    owner.publish(delta_path, base=base_path)

    # The right base splices cleanly...
    server = Server.from_artifact(delta_path, base=base_path, expected_epoch=1)
    live = Server(owner.outsource())
    query = TopKQuery(weights=(0.5,), k=3)
    assert (
        server.execute(query).verification_object
        == live.execute(query).verification_object
    )

    # ...any other base is refused outright.
    rows = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
    from repro.core.records import Dataset

    other = DataOwner(
        Dataset.from_rows(("factor", "baseline"), rows),
        univariate_template,
        config=owner.config,
        keypair=owner.keypair,
    )
    wrong_base = tmp_path / "wrong.npz"
    other.publish(wrong_base)
    with pytest.raises(ConstructionError, match="different base"):
        Server.from_artifact(delta_path, base=wrong_base)

    # A delta without its base cannot be loaded at all.
    with pytest.raises(ConstructionError, match="pass the base artifact"):
        Server.from_artifact(delta_path)

    # Splicing a delta onto itself (a replay) is refused by the epoch rule.
    with pytest.raises(ConstructionError):
        Server.from_artifact(delta_path, base=delta_path)


def test_replayed_delta_epoch_is_rejected(
    univariate_dataset, univariate_template, tmp_path
):
    """A delta whose epoch is not newer than its base's is a replay."""
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
    )
    owner = system.owner
    owner.insert(Record(record_id=55, values=(2.0, 2.0)))
    newer = tmp_path / "epoch1.npz"
    owner.publish(newer)
    owner.delete(55)
    delta = tmp_path / "epoch2-delta.npz"
    owner.publish(delta, base=newer)
    # Spliced onto a base that is already *past* the delta's epoch.
    owner.insert(Record(record_id=56, values=(2.5, 2.5)))
    owner.insert(Record(record_id=57, values=(2.7, 2.7)))
    future = tmp_path / "epoch4.npz"
    owner.publish(future)
    with pytest.raises(ConstructionError, match="different base|stale or replayed|not newer"):
        Server.from_artifact(delta, base=future)


#: Applicability of every attack attempt made by the detection sweep below,
#: accumulated across all scheme parametrizations so the suite can prove it
#: was not vacuous (an attack skipped on *every* scheme and query shape
#: would otherwise pass silently, testing nothing).
SWEEP_APPLICABILITY = AttackApplicability()


@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature", "signature-mesh"])
def test_every_attack_detected_under_every_scheme(univariate_dataset, univariate_template, scheme):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
    )
    rng = random.Random(3)
    queries = [
        RangeQuery(weights=(0.45,), low=1.0, high=6.0),
        TopKQuery(weights=(0.7,), k=4),
    ]
    for query in queries:
        execution = system.server.execute(query)
        honest = system.client.verify(query, execution.result, execution.verification_object)
        assert honest.is_valid
        for attack in all_attacks():
            tampered = apply_attack(
                attack,
                execution.result,
                execution.verification_object,
                rng,
                SWEEP_APPLICABILITY,
            )
            if tampered is None:
                continue
            report = system.client.verify(query, tampered[0], tampered[1])
            assert not report.is_valid, f"{attack.name} went undetected under {scheme}"


def test_detection_sweep_is_not_vacuous():
    """Every registered attack must have been attempted by the sweep above
    and must have actually applied (produced a tampered pair) for at least
    one scheme/query shape -- otherwise "`X` went undetected" was never at
    risk of failing for X and the suite is vacuous for that attack."""
    if not SWEEP_APPLICABILITY.attempted():
        pytest.skip("detection sweep did not run in this test selection")
    SWEEP_APPLICABILITY.assert_not_vacuous(expected=sorted(ATTACK_REGISTRY))
    # Stronger than non-vacuity: on this workload every attack applies on
    # every scheme (2 queries x 3 schemes = 6 attempts each).
    for name in ATTACK_REGISTRY:
        assert SWEEP_APPLICABILITY.applied.get(name, 0) >= 3, (
            f"{name} applied only {SWEEP_APPLICABILITY.applied.get(name, 0)} "
            "times across the sweep; the workload no longer exercises it"
        )
