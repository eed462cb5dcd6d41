"""Incremental updates must be observationally invisible.

The differential property harness for the update subsystem
(:mod:`repro.ifmh.updates` behind
:meth:`repro.core.owner.DataOwner.apply_updates`): after **any** sequence
of single-record inserts and deletes, the live ADS must be bit-identical
to a from-scratch build of the final dataset at the same epoch -- roots,
per-subdomain hashes and signatures, verification objects, verdicts and
both hash counters of every query round trip.  The oracle is shared with
the artifact suite (:mod:`tests.helpers`).

Coverage: Hypothesis-generated datasets (duplicate rows, tied slopes,
adversarial two-decimal values) and update sequences across all three
schemes; every odd-carry FMH leaf shape from 3 to 17 leaves; the d >= 2
LP configuration (which exercises the documented full-rebuild fallback
through the same API); and a slow-marked thousand-record end-to-end smoke.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SCHEMES, SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.geometry.domain import Domain

from tests.helpers import (
    assert_matches_fresh_rebuild,
    assert_publish_matches_forced_rebuild,
)

_VALUE = st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(
    lambda v: round(v, 2)
)
_ROWS = st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=10)

#: One update step: insert a fresh record (values) or delete (index key).
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), _VALUE, _VALUE),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
    ),
    min_size=1,
    max_size=4,
)

_TEMPLATE = UtilityTemplate(
    attributes=("factor",),
    domain=Domain(lower=(0.0,), upper=(1.0,)),
    constant_attribute="baseline",
)


def _queries(count):
    return [
        TopKQuery(weights=(0.41,), k=min(3, count)),
        RangeQuery(weights=(0.73,), low=0.5, high=9.5),
        KNNQuery(weights=(0.27,), k=min(2, count), target=3.0),
        RangeQuery(weights=(0.5,), low=90.0, high=95.0),  # empty window
    ]


def _owner(rows, scheme):
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    return DataOwner(
        dataset,
        _TEMPLATE,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(11),
    )


@given(rows=_ROWS, steps=_STEPS, scheme=st.sampled_from(SCHEMES))
@settings(max_examples=25, deadline=None)
def test_property_update_sequences_match_fresh_rebuild(rows, steps, scheme):
    """Random insert/delete sequences == from-scratch builds, bit for bit.

    The updated owner's full and delta publishes are also byte-identical
    to the ones written after forcing its tree's rebuild.
    """
    owner = _owner(rows, scheme)
    next_id = len(rows)
    applied = 0
    with tempfile.TemporaryDirectory() as directory:
        base = Path(directory) / "epoch0.npz"
        owner.publish(base)
        for step in steps:
            if step[0] == "insert":
                owner.insert(Record(record_id=next_id, values=(step[1], step[2])))
                next_id += 1
            else:
                ids = sorted(record.record_id for record in owner.dataset.records)
                if len(ids) <= 1:
                    continue  # deleting the last record is a documented error
                owner.delete(ids[step[1] % len(ids)])
            applied += 1
        assert_publish_matches_forced_rebuild(owner, base)
    assert owner.epoch == applied
    assert_matches_fresh_rebuild(owner, _queries(len(owner.dataset)))


@pytest.mark.parametrize("size", range(1, 16))
@pytest.mark.parametrize("scheme", ["one-signature", "multi-signature"])
def test_every_odd_carry_leaf_shape_updates_cleanly(size, scheme):
    """Leaf shapes ``size + 2`` = 3..17 before, 4..18 after the insert.

    Together with the delete step this walks every odd-carry FMH shape the
    forest can take at these scales, on the exact boundary the batched
    level-order hashing carries odd nodes.
    """
    rng = random.Random(size)
    rows = [
        (round(rng.uniform(0.0, 8.0), 2), round(rng.uniform(0.0, 6.0), 2))
        for _ in range(size)
    ]
    owner = _owner(rows, scheme)
    owner.insert(Record(record_id=size, values=(3.14, 2.71)))
    assert_matches_fresh_rebuild(owner, _queries(len(owner.dataset)))
    owner.delete(size // 2)
    assert_matches_fresh_rebuild(owner, _queries(len(owner.dataset)))


def test_tolerance_cluster_boundary_uses_replay_float_predicates():
    """Regression: ``b - a > tol`` is not float-equivalent to the replay's
    ``a + tol < b``.  With tolerance 0.1, fl(1.1) - fl(1.0) > 0.1 yet
    fl(1.0 + 0.1) == fl(1.1): the inserted breakpoint at 1.1 must be
    dropped exactly like a fresh build drops it, not kept as an
    "independent" singleton."""
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(2.0,)),
        constant_attribute="baseline",
    )
    records = [
        Record(record_id=0, values=(1.0, 0.0)),
        Record(record_id=1, values=(-1.0, 2.0)),
    ]
    config = SystemConfig(
        scheme="one-signature", signature_algorithm="hmac", tolerance=0.1
    )
    owner = DataOwner(
        Dataset(("factor", "baseline"), list(records)),
        template,
        config=config,
        rng=random.Random(1),
    )
    report = owner.insert(Record(record_id=2, values=(0.0, 1.1)))
    assert report.strategy == "incremental"
    fresh = DataOwner(
        owner.dataset, template, config=config, keypair=owner.keypair, epoch=1
    )
    assert owner.ads.subdomain_count == fresh.ads.subdomain_count
    assert owner.ads.root_hash == fresh.ads.root_hash


@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
                lambda v: round(v, 1)
            ),
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False).map(
                lambda v: round(v, 1)
            ),
        ),
        min_size=1,
        max_size=6,
    ),
    steps=_STEPS,
    tolerance=st.sampled_from([0.0, 0.05, 0.1, 0.25]),
)
@settings(max_examples=25, deadline=None)
def test_property_coarse_tolerance_updates_match_fresh_rebuild(rows, steps, tolerance):
    """Coarse tolerances make tolerance clusters (and their float-predicate
    edge cases) the norm rather than the exception."""
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(2.0,)),
        constant_attribute="baseline",
    )
    config = SystemConfig(
        scheme="one-signature", signature_algorithm="hmac", tolerance=tolerance
    )
    owner = DataOwner(
        Dataset.from_rows(("factor", "baseline"), rows),
        template,
        config=config,
        rng=random.Random(11),
    )
    next_id = len(rows)
    for step in steps:
        if step[0] == "insert":
            owner.insert(
                Record(record_id=next_id, values=(round(step[1] - 4.0, 1), step[2]))
            )
            next_id += 1
        else:
            ids = sorted(record.record_id for record in owner.dataset.records)
            if len(ids) <= 1:
                continue
            owner.delete(ids[step[1] % len(ids)])
    # require_valid=False: a 0.25 tolerance legitimately merges subdomains
    # whose records genuinely cross, so the scheme rejects some honest
    # answers -- identically on both sides, which is what matters here.
    assert_matches_fresh_rebuild(
        owner, _queries(len(owner.dataset)), require_valid=False
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_multivariate_updates_fall_back_to_rebuild(scheme):
    """d >= 2 runs the LP engine: updates rebuild, same API, same oracle."""
    rng = random.Random(5)
    rows = [
        tuple(round(rng.uniform(0.0, 5.0), 2) for _ in range(2)) for _ in range(4)
    ]
    dataset = Dataset.from_rows(("gpa", "award"), rows)
    template = UtilityTemplate(attributes=("gpa", "award"), domain=Domain.unit_box(2))
    owner = DataOwner(
        dataset,
        template,
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(2),
    )
    report = owner.insert(Record(record_id=4, values=(1.5, 2.5)))
    assert report.strategy == "rebuild"
    report = owner.delete(1)
    assert report.strategy == "rebuild"
    fresh = DataOwner(
        owner.dataset,
        template,
        config=owner.config,
        keypair=owner.keypair,
        epoch=owner.epoch,
    )
    assert fresh.ads.signature_count == owner.ads.signature_count
    if scheme != "signature-mesh":
        assert fresh.ads.root_hash == owner.ads.root_hash
    queries = [TopKQuery(weights=(0.4, 0.3), k=2)]
    from tests.helpers import assert_queries_bit_identical
    from repro.core.client import Client
    from repro.core.server import Server

    assert_queries_bit_identical(
        (Server(fresh.outsource()), Client(fresh.public_parameters())),
        (Server(owner.outsource()), Client(owner.public_parameters())),
        queries,
    )


@pytest.mark.parametrize(
    ("size", "encoding"),
    [(9, "ads_permutation"), (40, "ads_perm_row0")],
)
def test_update_sequence_through_published_artifacts(size, encoding, tmp_path):
    """Load -> update -> publish -> load chains stay bit-identical.

    The restarted owner's publishes equal, byte for byte, the ones written
    after forcing its tree's rebuild -- under the dense permutation
    encoding (small trees) and the row-delta one.
    """
    rng = random.Random(17)
    rows = [
        (round(rng.uniform(0.0, 8.0), 2), round(rng.uniform(0.0, 6.0), 2))
        for _ in range(size)
    ]
    owner = _owner(rows, "one-signature")
    base = tmp_path / "epoch0.npz"
    owner.publish(base)
    restarted = DataOwner.from_artifact(base, keypair=owner.keypair)
    restarted.insert(Record(record_id=size, values=(4.5, 1.25)))
    restarted.delete(3)
    assert restarted.epoch == 2
    assert "_deferred_load" in restarted.ads.__dict__
    assert encoding in assert_publish_matches_forced_rebuild(restarted, base)
    assert_matches_fresh_rebuild(restarted, _queries(len(restarted.dataset)))


@pytest.mark.slow
def test_thousand_record_update_smoke(tmp_path):
    """n = 1000: one insert and one delete against the persisted arena.

    The full timing gate lives in ``python -m repro.bench --update``; this
    smoke proves the changed-path rebuild itself is exact at paper scale,
    and that a delta publish written from the update's own arrays equals
    the one written after forcing the tree's rebuild.
    """
    from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

    workload = WorkloadConfig(n_records=1000, dimension=1, seed=0)
    dataset, template = make_dataset(workload), make_template(workload)
    owner = DataOwner(
        dataset,
        template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
        rng=random.Random(3),
    )
    base = tmp_path / "epoch0.npz"
    owner.publish(base)
    rng = random.Random(4)
    report = owner.insert(
        Record(record_id=1000, values=(rng.uniform(0, 10), rng.uniform(0, 10)))
    )
    assert report.strategy == "incremental"
    report = owner.delete(123)
    assert report.strategy == "incremental"
    assert "ads_perm_row0" in assert_publish_matches_forced_rebuild(
        owner, base, full=False
    )
    fresh = DataOwner(
        owner.dataset, template, config=owner.config, keypair=owner.keypair, epoch=2
    )
    assert fresh.ads.root_hash == owner.ads.root_hash
    assert fresh.ads.root_signature == owner.ads.root_signature
    from repro.core.client import Client
    from repro.core.server import Server
    from tests.helpers import assert_queries_bit_identical

    queries = [
        TopKQuery(weights=(0.31,), k=10),
        RangeQuery(weights=(0.62,), low=2.0, high=2.2),
        KNNQuery(weights=(0.93,), k=5, target=5.0),
    ]
    assert_queries_bit_identical(
        (Server(fresh.outsource()), Client(fresh.public_parameters())),
        (Server(owner.outsource()), Client(owner.public_parameters())),
        queries,
    )
    assert owner.ads.subdomain_count > 100_000
