"""Tests for client-side IFMH verification (section 3.3 + security analysis 4.1)."""

import dataclasses
import random

import pytest

from repro.core.config import SystemConfig
from repro.core.queries import KNNQuery, RangeQuery, TopKQuery
from repro.core.results import QueryResult
from repro.crypto.signer import make_signer
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.ifmh.verify import derive_function, verify_result
from repro.ifmh.vo import build_verification_object
from repro.metrics.counters import Counters
from repro.queryproc.window import select_window


@pytest.fixture()
def setup(univariate_dataset, univariate_template, hmac_keypair):
    trees = {
        mode: IFMHTree(
            univariate_dataset,
            univariate_template,
            config=SystemConfig(scheme=mode),
            signer=hmac_keypair.signer,
        )
        for mode in (ONE_SIGNATURE, MULTI_SIGNATURE)
    }
    return trees, univariate_dataset, univariate_template, hmac_keypair


def _execute(tree, query):
    trace = tree.search(query.weights)
    leaf = trace.leaf
    scores = [f.evaluate(query.weights) for f in leaf.sorted_functions]
    window = select_window(query, scores)
    records = [tree.records_by_id[leaf.sorted_functions[i].index] for i in window.indices()]
    vo = build_verification_object(tree, trace, window)
    return QueryResult(records=tuple(records)), vo


def _verify(tree, query, result, vo, dataset, template, keypair, **kwargs):
    return verify_result(
        query,
        result,
        vo,
        template=template,
        attribute_names=dataset.attribute_names,
        verifier=keypair.verifier,
        **kwargs,
    )


QUERIES = [
    TopKQuery(weights=(0.35,), k=3),
    RangeQuery(weights=(0.6,), low=2.0, high=5.0),
    KNNQuery(weights=(0.8,), k=4, target=4.0),
]


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: type(q).__name__)
def test_honest_results_verify(setup, mode, query):
    trees, dataset, template, keypair = setup
    result, vo = _execute(trees[mode], query)
    report = _verify(trees[mode], query, result, vo, dataset, template, keypair)
    assert report.is_valid, report.failures


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_exactly_one_signature_verified(setup, mode):
    trees, dataset, template, keypair = setup
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(trees[mode], query)
    counters = Counters()
    report = _verify(trees[mode], query, result, vo, dataset, template, keypair, counters=counters)
    assert report.is_valid
    assert counters.signatures_verified == 1
    assert counters.hash_operations > 0


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_dropped_record_detected(setup, mode):
    trees, dataset, template, keypair = setup
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(trees[mode], query)
    assert len(result) >= 2
    tampered = QueryResult(records=result.records[1:])
    report = _verify(trees[mode], query, tampered, vo, dataset, template, keypair)
    assert not report.is_valid


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_forged_attribute_detected(setup, mode):
    trees, dataset, template, keypair = setup
    query = TopKQuery(weights=(0.4,), k=4)
    result, vo = _execute(trees[mode], query)
    records = list(result.records)
    forged = dataclasses.replace(records[0], values=(records[0].values[0] + 1.0, records[0].values[1]))
    records[0] = forged
    report = _verify(trees[mode], query, QueryResult(records=tuple(records)), vo, dataset, template, keypair)
    assert not report.is_valid
    assert report.checks.get("fmh-reconstruction", True) is False or not report.is_valid


@pytest.mark.parametrize("mode", [ONE_SIGNATURE, MULTI_SIGNATURE])
def test_wrong_owner_key_detected(setup, mode):
    trees, dataset, template, keypair = setup
    other = make_signer("hmac", rng=random.Random(999))
    query = TopKQuery(weights=(0.4,), k=3)
    result, vo = _execute(trees[mode], query)
    report = _verify(trees[mode], query, result, vo, dataset, template, other)
    assert not report.is_valid


def test_tampered_root_signature_detected(setup):
    trees, dataset, template, keypair = setup
    query = TopKQuery(weights=(0.4,), k=3)
    result, vo = _execute(trees[ONE_SIGNATURE], query)
    tampered_vo = dataclasses.replace(vo, root_signature=bytes([vo.root_signature[0] ^ 1]) + vo.root_signature[1:])
    report = _verify(trees[ONE_SIGNATURE], query, result, tampered_vo, dataset, template, keypair)
    assert not report.is_valid
    assert report.checks["root-signature"] is False


def test_tampered_sibling_hash_detected(setup):
    trees, dataset, template, keypair = setup
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(trees[ONE_SIGNATURE], query)
    steps = list(vo.one_signature_iv.steps)
    if not steps:
        pytest.skip("search path has no internal steps at this scale")
    steps[0] = dataclasses.replace(steps[0], sibling_hash=bytes(32))
    tampered_vo = dataclasses.replace(
        vo, one_signature_iv=dataclasses.replace(vo.one_signature_iv, steps=tuple(steps))
    )
    report = _verify(trees[ONE_SIGNATURE], query, result, tampered_vo, dataset, template, keypair)
    assert not report.is_valid


def test_flipped_direction_detected(setup):
    trees, dataset, template, keypair = setup
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(trees[ONE_SIGNATURE], query)
    steps = list(vo.one_signature_iv.steps)
    if not steps:
        pytest.skip("search path has no internal steps at this scale")
    steps[0] = dataclasses.replace(steps[0], took_above=not steps[0].took_above)
    tampered_vo = dataclasses.replace(
        vo, one_signature_iv=dataclasses.replace(vo.one_signature_iv, steps=tuple(steps))
    )
    report = _verify(trees[ONE_SIGNATURE], query, result, tampered_vo, dataset, template, keypair)
    assert not report.is_valid
    assert report.checks["search-path-directions"] is False or report.checks["root-signature"] is False


def test_wrong_subdomain_signature_detected(setup):
    trees, dataset, template, keypair = setup
    tree = trees[MULTI_SIGNATURE]
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(tree, query)
    # Replace the subdomain signature with another subdomain's signature.
    other_leaf = next(
        leaf for leaf in tree.itree.leaves() if leaf.signature != vo.multi_signature_iv.signature
    )
    tampered_iv = dataclasses.replace(vo.multi_signature_iv, signature=other_leaf.signature)
    tampered_vo = dataclasses.replace(vo, multi_signature_iv=tampered_iv)
    report = _verify(tree, query, result, tampered_vo, dataset, template, keypair)
    assert not report.is_valid


def test_weights_outside_domain_detected(setup):
    trees, dataset, template, keypair = setup
    tree = trees[MULTI_SIGNATURE]
    query = RangeQuery(weights=(0.5,), low=1.0, high=6.0)
    result, vo = _execute(tree, query)
    outside = RangeQuery(weights=(7.5,), low=1.0, high=6.0)
    report = _verify(tree, outside, result, vo, dataset, template, keypair)
    assert not report.is_valid
    assert report.checks["weights-in-domain"] is False


def test_paper_faithful_hash_rule_still_verifies_honest_results(
    univariate_dataset, univariate_template, hmac_keypair
):
    tree = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, bind_intersections=False),
        signer=hmac_keypair.signer,
    )
    query = TopKQuery(weights=(0.3,), k=3)
    result, vo = _execute(tree, query)
    report = verify_result(
        query,
        result,
        vo,
        template=univariate_template,
        attribute_names=univariate_dataset.attribute_names,
        verifier=hmac_keypair.verifier,
        bind_intersections=False,
    )
    assert report.is_valid, report.failures


def test_derive_function_matches_template(univariate_dataset, univariate_template):
    record = univariate_dataset[0]
    function = derive_function(record, univariate_template, univariate_dataset.attribute_names)
    assert function.evaluate((0.5,)) == pytest.approx(record.values[1] + 0.5 * record.values[0])


def test_verification_report_records_timings(setup):
    trees, dataset, template, keypair = setup
    query = TopKQuery(weights=(0.4,), k=3)
    result, vo = _execute(trees[ONE_SIGNATURE], query)
    report = _verify(trees[ONE_SIGNATURE], query, result, vo, dataset, template, keypair)
    assert {"hashing", "signature", "query-recheck"} <= set(report.timings)
    assert report.total_time >= 0.0
