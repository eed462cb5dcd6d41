"""Tests for IFMH-tree construction (steps 1-4 of section 3.1)."""

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.records import Dataset
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.metrics.counters import Counters
from repro.metrics.sizes import SizeModel


@pytest.fixture()
def one_sig_tree(univariate_dataset, univariate_template, hmac_keypair):
    return IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE),
        signer=hmac_keypair.signer,
    )


@pytest.fixture()
def multi_sig_tree(univariate_dataset, univariate_template, hmac_keypair):
    return IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE),
        signer=hmac_keypair.signer,
    )


def test_unknown_mode_rejected(univariate_dataset, univariate_template):
    with pytest.raises(ConstructionError):
        IFMHTree(
            univariate_dataset, univariate_template, config=SystemConfig(scheme="zero-signature")
        )


def test_empty_dataset_rejected(univariate_template):
    empty = Dataset(attribute_names=("factor", "baseline"), records=[])
    with pytest.raises(ConstructionError):
        IFMHTree(empty, univariate_template, config=SystemConfig(scheme=ONE_SIGNATURE))


def test_every_leaf_has_fmh_tree_and_hash(one_sig_tree):
    for leaf in one_sig_tree._materialized_leaves():
        assert leaf.fmh_tree is not None
        assert leaf.hash_value == leaf.fmh_tree.root
        assert leaf.fmh_tree.item_count == len(one_sig_tree.dataset)


def test_every_internal_node_has_hash(one_sig_tree):
    for node in one_sig_tree.itree.internal_nodes():
        assert node.hash_value is not None
        assert len(node.hash_value) == 32


def test_root_hash_depends_on_children(one_sig_tree):
    root = one_sig_tree.itree.root
    if root.is_intersection:
        expected = one_sig_tree.hash_function.combine(
            root.hyperplane.to_bytes(), root.above.hash_value, root.below.hash_value
        )
        assert one_sig_tree.root_hash == expected


def test_one_signature_counts(one_sig_tree):
    assert one_sig_tree.signature_count == 1
    assert one_sig_tree.root_signature is not None
    for leaf in one_sig_tree.itree.leaves():
        assert leaf.signature is None


def test_multi_signature_counts(multi_sig_tree):
    assert multi_sig_tree.signature_count == multi_sig_tree.subdomain_count
    assert multi_sig_tree.root_signature is None
    for leaf in multi_sig_tree.itree.leaves():
        assert leaf.signature is not None


def test_multi_signature_digest_binds_constraints_and_root(multi_sig_tree, hmac_keypair):
    leaf = next(iter(multi_sig_tree.itree.leaves()))
    digest = multi_sig_tree.subdomain_digest(leaf)
    assert hmac_keypair.verifier.verify(digest, leaf.signature)
    # A different subdomain's signature does not verify for this digest.
    other = [node for node in multi_sig_tree.itree.leaves() if node is not leaf][0]
    assert not hmac_keypair.verifier.verify(digest, other.signature)


def test_unsigned_tree_has_zero_signatures(univariate_dataset, univariate_template):
    tree = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE),
        signer=None,
    )
    assert tree.signature_count == 0
    assert tree.root_signature is None


def test_counters_record_owner_work(univariate_dataset, univariate_template, hmac_keypair):
    counters = Counters()
    tree = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=MULTI_SIGNATURE),
        signer=hmac_keypair.signer,
        counters=counters,
    )
    assert counters.signatures_created == tree.subdomain_count
    assert counters.hash_operations > 0


def test_node_counts_are_consistent(one_sig_tree):
    assert one_sig_tree.imh_node_count == one_sig_tree.itree.node_count
    assert one_sig_tree.fmh_node_count == sum(
        leaf.fmh_tree.node_count for leaf in one_sig_tree.itree.leaves()
    )
    assert one_sig_tree.node_count == one_sig_tree.imh_node_count + one_sig_tree.fmh_node_count


def test_root_hash_changes_when_a_record_changes(univariate_dataset, univariate_template):
    baseline = IFMHTree(
        univariate_dataset, univariate_template, config=SystemConfig(scheme=ONE_SIGNATURE)
    ).root_hash
    rows = [tuple(record.values) for record in univariate_dataset]
    rows[0] = (rows[0][0] + 0.001, rows[0][1])
    modified = Dataset.from_rows(univariate_dataset.attribute_names, rows)
    changed = IFMHTree(
        modified, univariate_template, config=SystemConfig(scheme=ONE_SIGNATURE)
    ).root_hash
    assert baseline != changed


def test_bind_intersections_changes_root(univariate_dataset, univariate_template):
    bound = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, bind_intersections=True),
    )
    unbound = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE, bind_intersections=False),
    )
    assert bound.root_hash != unbound.root_hash
    # Both still propagate a hash to every node.
    assert all(node.hash_value is not None for node in unbound.itree.root.iter_subtree())


def test_search_delegates_to_itree(one_sig_tree):
    trace = one_sig_tree.search((0.4,))
    assert trace.leaf.region.contains((0.4,))


def test_size_breakdown_and_total(one_sig_tree, multi_sig_tree):
    model = SizeModel(signature_size=256)
    breakdown = one_sig_tree.size_breakdown(model)
    assert set(breakdown) == {"imh_bytes", "fmh_bytes", "sorted_list_bytes", "signature_bytes"}
    assert all(value >= 0 for value in breakdown.values())
    assert one_sig_tree.size_bytes(model) == sum(breakdown.values())
    # Multi-signature stores one signature per subdomain, so it is larger.
    assert multi_sig_tree.size_bytes(model) > one_sig_tree.size_bytes(model)
    assert one_sig_tree.size_breakdown(model)["signature_bytes"] == 256


def test_bivariate_build(applicant_dataset, bivariate_template, hmac_keypair):
    tree = IFMHTree(
        applicant_dataset,
        bivariate_template,
        config=SystemConfig(scheme=ONE_SIGNATURE),
        signer=hmac_keypair.signer,
    )
    assert tree.subdomain_count >= 1
    trace = tree.search((0.3, 0.7))
    assert trace.leaf.region.contains((0.3, 0.7))
