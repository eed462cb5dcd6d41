"""Parallel construction must be observationally invisible.

``construction_workers`` shards the IFMH forest build across forked
processes.  For adversarial datasets -- every odd-carry FMH leaf shape,
duplicate rows, tied slopes -- the parallel build must reproduce the
single-process build bit for bit: the full owner-side ADS state (root
hash, root signature, per-subdomain hashes and digests), every query's
result, verification object and verdict, and *both* hash counters --
logical (what the paper's figures report) and physical (what actually
ran; the workers' redundant shard-boundary hashing happens on throwaway
counters and is never reported).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.records import Dataset, UtilityTemplate
from repro.core.server import Server
from repro.geometry.domain import Domain
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE
from repro.merkle.parallel import fork_available

from tests.helpers import assert_ads_state_identical, assert_queries_bit_identical

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)

_ROWS = st.lists(
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


def _system(rows, mode, workers):
    dataset = Dataset.from_rows(("factor", "baseline"), rows)
    template = UtilityTemplate(
        attributes=("factor",),
        domain=Domain(lower=(0.0,), upper=(1.0,)),
        constant_attribute="baseline",
    )
    owner = DataOwner(
        dataset,
        template,
        config=SystemConfig(scheme=mode, signature_algorithm="hmac"),
        construction_workers=workers,
        rng=random.Random(11),
    )
    return owner, Server(owner.outsource()), Client(owner.public_parameters())


def _queries(count):
    return [
        TopKQuery(weights=(0.41,), k=min(3, count)),
        RangeQuery(weights=(0.73,), low=0.5, high=7.5),
        KNNQuery(weights=(0.27,), k=min(2, count), target=3.0),
        RangeQuery(weights=(0.5,), low=90.0, high=95.0),  # empty window
    ]


@given(
    rows=_ROWS,
    mode=st.sampled_from([ONE_SIGNATURE, MULTI_SIGNATURE]),
    workers=st.sampled_from([2, 4]),
)
@settings(max_examples=20, deadline=None)
def test_property_parallel_build_is_bit_identical(rows, mode, workers):
    """Leaf counts ``len(rows) + 2`` sweep every odd-carry shape 3..16."""
    serial_owner, serial_server, serial_client = _system(rows, mode, None)
    parallel_owner, parallel_server, parallel_client = _system(rows, mode, workers)

    assert_ads_state_identical(serial_owner.ads, parallel_owner.ads)
    assert parallel_owner.counters.snapshot() == serial_owner.counters.snapshot()
    assert (
        parallel_owner.ads.merkle_engine_stats == serial_owner.ads.merkle_engine_stats
    )
    assert_queries_bit_identical(
        (serial_server, serial_client),
        (parallel_server, parallel_client),
        _queries(len(rows)),
    )
