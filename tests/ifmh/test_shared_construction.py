"""The shared-structure forest engine must be observationally invisible.

Sharing nodes between subdomain trees trades physical SHA-256 work for
cache lookups; nothing else may change.  These tests compare full IFMH
builds with the naive reference (:func:`repro.reference.naive_ifmh_tree`,
one FMH-tree per subdomain, nothing shared): root hashes, per-subdomain FMH
roots, subdomain digests, verification objects and client verdicts must be
bit-identical, the *logical* hash counters (what Fig. 5a/7a report) must be
equal, and the physical counter must drop.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner
from repro.core.queries import RangeQuery, TopKQuery
from repro.core.records import Dataset, Record, UtilityTemplate
from repro.core.server import Server
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

from tests.helpers import (
    assert_queries_bit_identical,
    naive_and_engine_builds,
    naive_reference_pair,
)


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_roots_digests_and_logical_counts_identical(
    univariate_dataset, univariate_template, mode
):
    trees, counters = naive_and_engine_builds(
        univariate_dataset, univariate_template, scheme=mode
    )
    naive, consed = trees["naive"], trees["engine"]
    assert consed.root_hash == naive.root_hash
    for a, b in zip(consed.itree.leaves(), naive.itree.leaves()):
        assert a.hash_value == b.hash_value
        assert a.fmh_tree.tree.levels == b.fmh_tree.tree.levels
        assert consed.subdomain_digest(a) == naive.subdomain_digest(b)
    assert (
        counters["engine"].hash_operations == counters["naive"].hash_operations
    ), "cache hits must still count as logical hash operations"
    assert (
        counters["engine"].physical_hash_operations
        < counters["naive"].physical_hash_operations
    )
    assert (
        counters["naive"].physical_hash_operations == counters["naive"].hash_operations
    ), "the naive build performs every hash physically"


def test_engine_reduces_physical_hashing_at_least_5x():
    workload = WorkloadConfig(n_records=40, dimension=1, seed=3)
    trees, counters = naive_and_engine_builds(make_dataset(workload), make_template(workload))
    assert trees["engine"].root_hash == trees["naive"].root_hash
    reduction = (
        counters["naive"].physical_hash_operations
        / counters["engine"].physical_hash_operations
    )
    assert reduction >= 5.0, f"only {reduction:.2f}x physical reduction at n=40"


def test_bind_intersections_ablation_unchanged(univariate_dataset, univariate_template):
    trees, _ = naive_and_engine_builds(
        univariate_dataset, univariate_template, bind_intersections=False
    )
    assert trees["engine"].root_hash == trees["naive"].root_hash


@pytest.mark.parametrize("scheme", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_vos_and_client_verdicts_identical_end_to_end(scheme):
    """Same queries against both builds: identical VOs, both verify."""
    workload = WorkloadConfig(n_records=25, dimension=1, seed=1)
    owner = DataOwner(
        make_dataset(workload),
        make_template(workload),
        config=SystemConfig(scheme=scheme, signature_algorithm="hmac"),
        rng=random.Random(9),
    )
    queries = [
        TopKQuery(weights=(0.3,), k=4),
        RangeQuery(weights=(0.7,), low=2.0, high=6.0),
    ]
    assert_queries_bit_identical(
        naive_reference_pair(owner),
        (Server(owner.outsource()), Client(owner.public_parameters())),
        queries,
    )


def test_duplicate_record_ids_raise_construction_error(univariate_template):
    records = [
        Record(record_id=0, values=(1.0, 2.0)),
        Record(record_id=1, values=(3.0, 4.0)),
    ]
    dataset = Dataset(attribute_names=("factor", "baseline"), records=records)
    # Bypass Dataset's own validation to model a table mutated after load.
    dataset.records.append(Record(record_id=1, values=(5.0, 0.5)))
    with pytest.raises(ConstructionError, match="duplicate record id 1"):
        IFMHTree(dataset, univariate_template)


@given(
    rows=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=8.0, allow_nan=False).map(
                lambda v: round(v, 2)
            ),
            st.floats(min_value=0.0, max_value=6.0, allow_nan=False).map(
                lambda v: round(v, 2)
            ),
        ),
        min_size=1,
        max_size=14,
    )
)
@settings(max_examples=25, deadline=None)
def test_property_cached_and_uncached_builds_agree(rows):
    """Adversarial leaf counts and tied slopes: the engine stays invisible.

    Duplicate rows are kept (they produce equal leaf digests for distinct
    records -- exactly the aliasing a hash-consing bug would trip over).
    """
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(1.0,)),
        constant_attribute="baseline",
    )
    trees, counters = naive_and_engine_builds(dataset, template)
    assert trees["engine"].root_hash == trees["naive"].root_hash
    for a, b in zip(trees["engine"].itree.leaves(), trees["naive"].itree.leaves()):
        assert a.hash_value == b.hash_value
    assert counters["engine"].hash_operations == counters["naive"].hash_operations
    assert (
        counters["engine"].physical_hash_operations
        <= counters["naive"].physical_hash_operations
    )
