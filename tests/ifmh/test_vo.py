"""Tests for IFMH verification-object construction."""

import pytest

from repro.core.config import SystemConfig
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.ifmh.vo import (
    VerificationObject,
    build_verification_object,
)
from repro.metrics.counters import Counters
from repro.metrics.sizes import SizeModel
from repro.queryproc.window import ResultWindow


@pytest.fixture()
def trees(univariate_dataset, univariate_template, hmac_keypair):
    one = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE),
        signer=hmac_keypair.signer,
    )
    multi = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE),
        signer=hmac_keypair.signer,
    )
    return one, multi


def _window(tree, weights, start, end):
    trace = tree.search(weights)
    size = len(trace.leaf.sorted_functions)
    return trace, ResultWindow(start=start, end=end, size=size)


def test_one_signature_vo_structure(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    vo = build_verification_object(one, trace, window)
    assert vo.scheme == ONE_SIGNATURE
    assert vo.root_signature == one.root_signature
    assert vo.multi_signature_iv is None
    assert len(vo.one_signature_iv.steps) == trace.depth
    assert vo.signature_count == 1


def test_one_signature_iv_steps_match_search_path(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    vo = build_verification_object(one, trace, window)
    for vo_step, search_step in zip(vo.one_signature_iv.steps, trace.steps):
        assert vo_step.hyperplane == search_step.node.hyperplane
        assert vo_step.took_above == search_step.took_above
        assert vo_step.sibling_hash == search_step.sibling.hash_value


def test_multi_signature_vo_structure(trees):
    _, multi = trees
    trace, window = _window(multi, (0.45,), 2, 5)
    vo = build_verification_object(multi, trace, window)
    assert vo.scheme == MULTI_SIGNATURE
    assert vo.root_signature is None
    assert vo.one_signature_iv is None
    assert vo.multi_signature_iv.signature == trace.leaf.signature
    assert vo.multi_signature_iv.constraints == tuple(trace.leaf.region.constraints)


def test_vo_counts_fmh_nodes(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    counters = Counters()
    vo = build_verification_object(one, trace, window, counters=counters)
    expected = (vo.fv.proof.end - vo.fv.proof.start + 1) + vo.fv.proof.node_count()
    assert counters.nodes_traversed == expected


def test_vo_validation_one_signature_requires_signature(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    vo = build_verification_object(one, trace, window)
    with pytest.raises(ValueError):
        VerificationObject(scheme=ONE_SIGNATURE, fv=vo.fv, one_signature_iv=vo.one_signature_iv)


def test_vo_validation_multi_signature_requires_iv(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    vo = build_verification_object(one, trace, window)
    with pytest.raises(ValueError):
        VerificationObject(scheme=MULTI_SIGNATURE, fv=vo.fv)


def test_vo_validation_rejects_unknown_scheme(trees):
    one, _ = trees
    trace, window = _window(one, (0.45,), 2, 5)
    vo = build_verification_object(one, trace, window)
    with pytest.raises(ValueError):
        VerificationObject(scheme="chained", fv=vo.fv, one_signature_iv=vo.one_signature_iv,
                           root_signature=b"sig")


def test_vo_sizes_positive_and_one_larger_than_multi(trees):
    one, multi = trees
    model = SizeModel(signature_size=256)
    trace_one, window = _window(one, (0.45,), 2, 5)
    vo_one = build_verification_object(one, trace_one, window)
    trace_multi, window_multi = _window(multi, (0.45,), 2, 5)
    vo_multi = build_verification_object(multi, trace_multi, window_multi)
    size_one = vo_one.size_bytes(1, model)
    size_multi = vo_multi.size_bytes(1, model)
    assert size_one > 0 and size_multi > 0
    # The one-signature VO additionally carries the IMH path.
    assert vo_one.hash_entries() >= vo_multi.hash_entries()


def test_unsigned_tree_cannot_build_multi_vo(univariate_dataset, univariate_template):
    from repro.core.errors import QueryProcessingError

    tree = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE),
        signer=None,
    )
    trace, window = _window(tree, (0.45,), 0, 2)
    with pytest.raises(QueryProcessingError):
        build_verification_object(tree, trace, window)


def test_empty_window_vo(trees):
    one, _ = trees
    trace = one.search((0.45,))
    size = len(trace.leaf.sorted_functions)
    window = ResultWindow.empty_at(3, size)
    vo = build_verification_object(one, trace, window)
    assert vo.fv.proof.end - vo.fv.proof.start + 1 == 2  # just the two boundaries
