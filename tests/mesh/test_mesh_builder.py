"""Tests for signature-mesh construction."""

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConstructionError
from repro.core.records import Dataset
from repro.geometry.arrangement import build_arrangement
from repro.mesh.builder import SignatureMesh
from repro.metrics.counters import Counters
from repro.metrics.sizes import SizeModel


@pytest.fixture()
def mesh(univariate_dataset, univariate_template, hmac_keypair):
    return SignatureMesh(univariate_dataset, univariate_template, signer=hmac_keypair.signer)


@pytest.fixture()
def unshared_mesh(univariate_dataset, univariate_template, hmac_keypair):
    return SignatureMesh(
        univariate_dataset,
        univariate_template,
        signer=hmac_keypair.signer,
        config=SystemConfig(share_signatures=False),
    )


def test_empty_dataset_rejected(univariate_template):
    empty = Dataset(attribute_names=("factor", "baseline"), records=[])
    with pytest.raises(ConstructionError):
        SignatureMesh(empty, univariate_template)


def test_cell_count_matches_arrangement(mesh, univariate_dataset, univariate_template):
    functions = univariate_template.functions_for(univariate_dataset)
    arrangement = build_arrangement(functions, univariate_template.domain)
    assert mesh.cell_count == arrangement.size


def test_every_cell_has_full_chain(mesh, univariate_dataset):
    n = len(univariate_dataset)
    for cell in mesh.cells:
        assert len(cell.sorted_records) == n
        assert cell.chain_length == n + 2
        assert len(cell.pair_signatures) == cell.chain_length - 1


def test_cell_records_are_sorted_by_score(mesh, univariate_dataset, univariate_template):
    for cell in mesh.cells:
        scores = [
            univariate_template.function_from_schema(
                record, univariate_dataset.attribute_names
            ).evaluate(cell.witness)
            for record in cell.sorted_records
        ]
        assert scores == sorted(scores)


def test_unshared_signature_count_is_cells_times_chain(unshared_mesh, univariate_dataset):
    n = len(univariate_dataset)
    assert unshared_mesh.signature_count == unshared_mesh.cell_count * (n + 1)


def test_sharing_reduces_signature_count(mesh, unshared_mesh):
    assert mesh.cell_count == unshared_mesh.cell_count
    assert mesh.signature_count < unshared_mesh.signature_count


def test_shared_signature_count_lower_bound(mesh, univariate_dataset):
    # At least one signature per pair of the first cell's chain.
    assert mesh.signature_count >= len(univariate_dataset) + 1


def test_counters_track_signatures(univariate_dataset, univariate_template, hmac_keypair):
    counters = Counters()
    mesh = SignatureMesh(
        univariate_dataset, univariate_template, signer=hmac_keypair.signer, counters=counters
    )
    assert counters.signatures_created == mesh.signature_count


def test_unsigned_mesh_has_no_signatures(univariate_dataset, univariate_template):
    mesh = SignatureMesh(univariate_dataset, univariate_template, signer=None)
    assert mesh.signature_count == 0
    assert all(not cell.pair_signatures for cell in mesh.cells)


def test_multivariate_mesh_disables_sharing(applicant_dataset, bivariate_template, hmac_keypair):
    small = Dataset(attribute_names=applicant_dataset.attribute_names,
                    records=list(applicant_dataset.records[:5]))
    mesh = SignatureMesh(small, bivariate_template, signer=hmac_keypair.signer)
    assert not mesh.share_signatures
    assert mesh.signature_count == mesh.cell_count * (len(small) + 1)


def test_size_breakdown(mesh):
    model = SizeModel(signature_size=256)
    breakdown = mesh.size_breakdown(model)
    assert set(breakdown) == {"signature_bytes", "cell_bytes"}
    assert mesh.size_bytes(model) == sum(breakdown.values())
    assert breakdown["signature_bytes"] >= mesh.signature_count * 256


def test_locate_cell_counts_inspected_cells(mesh):
    counters = Counters()
    cell = mesh.locate_cell((0.85,), counters)
    assert cell.region.contains((0.85,))
    assert 1 <= counters.nodes_traversed <= mesh.cell_count
