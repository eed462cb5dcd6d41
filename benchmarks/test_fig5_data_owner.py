"""Fig. 5 -- data owner overhead.

The paper's Fig. 5 reports, as a function of the database size, (a) the
number of signatures the owner creates, (b) the time to construct the
verification structure and (c) the structure's size, for the signature mesh
and both IFMH modes.  Expected shape: the mesh needs orders of magnitude
more signatures (up to ``#subdomains * n``), which also makes it the slowest
to build and the largest; one-signature always creates exactly one
signature; multi-signature creates one per subdomain.
"""

from __future__ import annotations

import pytest

from conftest import record_table
from repro.bench.figures import fig5_data_owner
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner, SIGNATURE_MESH
from repro.ifmh.ifmh_tree import MULTI_SIGNATURE, ONE_SIGNATURE
from repro.workloads.generator import make_dataset, make_template


@pytest.fixture(scope="module")
def fig5(bench_config):
    result = fig5_data_owner(bench_config)
    record_table(result)
    return result


def _series(result, column, approach):
    return result.series("n", column, approach)


def test_fig5a_signature_count(fig5, bench_config, benchmark):
    """Fig. 5a: mesh >> multi-signature >> one-signature, at every scale."""
    largest = max(bench_config.n_values)
    mesh = _series(fig5, "signatures", SIGNATURE_MESH)
    multi = _series(fig5, "signatures", MULTI_SIGNATURE)
    one = _series(fig5, "signatures", ONE_SIGNATURE)
    for n in bench_config.n_values:
        assert one[n] == 1
        assert multi[n] >= 1
        assert mesh[n] > multi[n] >= one[n]
    # The gap grows with the database size (mesh signatures ~ subdomains * n).
    assert mesh[largest] / multi[largest] >= mesh[min(bench_config.n_values)] / max(
        1, multi[min(bench_config.n_values)]
    )

    # Representative timed operation: counting signatures of a fresh
    # multi-signature build at the smallest scale.
    workload = bench_config.workload(min(bench_config.n_values))
    dataset = make_dataset(workload)
    template = make_template(workload)

    def build_and_count():
        owner = DataOwner(
            dataset,
            template,
            config=SystemConfig(scheme=MULTI_SIGNATURE, signature_algorithm="hmac"),
        )
        return owner.signature_count

    count = benchmark.pedantic(build_and_count, rounds=1, iterations=1)
    assert count >= 1


def test_fig5b_construction_time(fig5, bench_config, benchmark):
    """Fig. 5b: construction time grows fastest for the signature mesh."""
    largest = max(bench_config.n_values)
    smallest = min(bench_config.n_values)
    mesh = _series(fig5, "build_seconds", SIGNATURE_MESH)
    one = _series(fig5, "build_seconds", ONE_SIGNATURE)
    # Construction cost must grow with n for every approach.
    assert mesh[largest] > mesh[smallest]
    assert one[largest] > one[smallest]
    # With real (non-hmac) signatures the mesh is the slowest builder at scale.
    if bench_config.signature_algorithm != "hmac":
        assert mesh[largest] >= one[largest]

    workload = bench_config.workload(smallest)
    dataset = make_dataset(workload)
    template = make_template(workload)

    def build_one_signature():
        return DataOwner(
            dataset, template, config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac")
        )

    benchmark.pedantic(build_one_signature, rounds=1, iterations=1)


def test_fig5c_structure_size(fig5, bench_config, benchmark):
    """Fig. 5c: every structure grows with n; the mesh carries the signature bulk."""
    largest = max(bench_config.n_values)
    smallest = min(bench_config.n_values)
    for approach in (SIGNATURE_MESH, ONE_SIGNATURE, MULTI_SIGNATURE):
        series = _series(fig5, "size_bytes", approach)
        assert series[largest] > series[smallest]
    mesh = _series(fig5, "size_bytes", SIGNATURE_MESH)
    one = _series(fig5, "size_bytes", ONE_SIGNATURE)
    # The unshared mesh (the paper's measured configuration) is the largest
    # structure once the arrangement is non-trivial.
    assert mesh[largest] > one[largest]

    workload = bench_config.workload(smallest)
    dataset = make_dataset(workload)
    template = make_template(workload)
    owner = DataOwner(
        dataset, template, config=SystemConfig(scheme=ONE_SIGNATURE, signature_algorithm="hmac")
    )

    size = benchmark(owner.ads_size_bytes)
    assert size > 0
