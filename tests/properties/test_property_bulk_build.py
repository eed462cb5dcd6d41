"""Property tests: the bulk-built IFMH-tree is bit-identical to the reference.

Two properties back the bulk fast path:

* the *partition* (interval bounds and per-subdomain sorted record order) is
  identical to the paper's incremental insertion in its default pairwise
  order, and
* the assembled tree -- and therefore the IFMH **root hash** and every
  multi-signature subdomain digest -- is bit-identical to what the
  incremental BFS builder produces when fed the same hyperplanes in the
  bulk path's balanced (median-first) order
  (:func:`repro.reference.naive_ifmh_tree`, which builds that order for
  every configuration that resolves to the bulk builder).
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.config import SystemConfig
from repro.core.records import Dataset, UtilityTemplate
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE
from repro.reference import naive_ifmh_tree

DOMAIN = Domain(lower=(0.0,), upper=(1.0,))

datasets = st.lists(
    st.tuples(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    ),
    min_size=1,
    max_size=14,
).map(lambda rows: Dataset.from_rows(("factor", "baseline"), rows))

TEMPLATE = UtilityTemplate(
    attributes=("factor",), domain=DOMAIN, constant_attribute="baseline"
)

BULK = SystemConfig(build_mode="bulk")
INCREMENTAL = SystemConfig(build_mode="incremental")


@given(dataset=datasets)
@settings(max_examples=30, deadline=None)
def test_bulk_root_hash_bit_identical_to_incremental_reference(dataset):
    bulk = IFMHTree(dataset, TEMPLATE, config=BULK)
    reference = naive_ifmh_tree(dataset, TEMPLATE)
    assert bulk.root_hash == reference.root_hash


@given(dataset=datasets)
@settings(max_examples=30, deadline=None)
def test_bulk_partition_matches_default_incremental(dataset):
    bulk = IFMHTree(dataset, TEMPLATE, config=BULK)
    incremental = IFMHTree(dataset, TEMPLATE, config=INCREMENTAL)

    def partition(tree):
        return sorted(
            (
                leaf.region.interval_low,
                leaf.region.interval_high,
                tuple(f.index for f in leaf.sorted_functions),
            )
            for leaf in tree.itree.leaves()
        )

    assert partition(bulk) == partition(incremental)


@given(dataset=datasets)
@settings(max_examples=15, deadline=None)
def test_bulk_multi_signature_digests_bit_identical(dataset):
    config = SystemConfig(scheme=MULTI_SIGNATURE, build_mode="bulk")
    bulk = IFMHTree(dataset, TEMPLATE, config=config)
    reference = naive_ifmh_tree(dataset, TEMPLATE, config=config)
    bulk_digests = sorted(bulk.subdomain_digest(leaf) for leaf in bulk.itree.leaves())
    ref_digests = sorted(
        reference.subdomain_digest(leaf) for leaf in reference.itree.leaves()
    )
    assert bulk_digests == ref_digests


def test_bulk_root_hash_on_randomized_datasets():
    """Non-hypothesis sweep at larger scales (seeded, deterministic)."""
    for seed, n_records in ((0, 30), (1, 50), (2, 75)):
        rng = random.Random(seed)
        rows = [(rng.uniform(-4, 4), rng.uniform(0, 9)) for _ in range(n_records)]
        dataset = Dataset.from_rows(("factor", "baseline"), rows)
        bulk = IFMHTree(dataset, TEMPLATE, config=BULK)
        reference = naive_ifmh_tree(dataset, TEMPLATE)
        assert bulk.root_hash == reference.root_hash
        incremental = IFMHTree(dataset, TEMPLATE, config=INCREMENTAL)
        assert bulk.subdomain_count == incremental.subdomain_count
