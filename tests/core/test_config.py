"""SystemConfig: validation, the dict codec and threading through the constructors."""

import dataclasses

import pytest

from repro.core.config import SCHEMES, SIGNATURE_MESH, SystemConfig
from repro.core.errors import ConstructionError
from repro.core.owner import DataOwner
from repro.core.protocol import OutsourcedSystem
from repro.geometry.engine import DEFAULT_TOLERANCE, IntervalEngine, LPEngine
from repro.ifmh.ifmh_tree import IFMHTree


# -------------------------------------------------------------- validation
def test_defaults_are_the_library_defaults():
    config = SystemConfig()
    assert config.scheme == "one-signature"
    assert config.signature_algorithm == "rsa"
    assert config.bind_intersections and config.share_signatures
    assert config.build_mode == "auto"
    assert config.key_bits is None and config.tolerance is None


def test_unknown_scheme_rejected():
    with pytest.raises(ConstructionError, match="unknown scheme"):
        SystemConfig(scheme="three-signature")
    assert "three-signature" not in SCHEMES


def test_unknown_build_mode_rejected():
    with pytest.raises(ConstructionError, match="unknown build_mode"):
        SystemConfig(build_mode="recursive")


def test_bad_key_bits_and_tolerance_rejected():
    with pytest.raises(ConstructionError, match="key_bits"):
        SystemConfig(key_bits=0)
    with pytest.raises(ConstructionError, match="tolerance"):
        SystemConfig(tolerance=-1e-9)


def test_config_is_frozen():
    config = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.scheme = SIGNATURE_MESH


def test_dict_round_trip():
    config = SystemConfig(scheme="multi-signature", key_bits=512, tolerance=0.0)
    assert SystemConfig.from_dict(config.to_dict()) == config


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConstructionError, match="unknown SystemConfig fields"):
        SystemConfig.from_dict({"scheme": "one-signature", "sharding": True})


@pytest.mark.parametrize("flag", [True, False])
def test_from_dict_drops_the_retired_build_flags(flag):
    """Older artifact headers echo hash_consing / batch_hashing; both are dropped."""
    config = SystemConfig(scheme="multi-signature", key_bits=512)
    echo = {**config.to_dict(), "hash_consing": flag, "batch_hashing": flag}
    assert SystemConfig.from_dict(echo) == config
    assert "hash_consing" not in config.to_dict()
    assert "batch_hashing" not in config.to_dict()


# ----------------------------------------------------- threading through APIs
def test_owner_threads_the_build_mode(univariate_dataset, univariate_template, hmac_keypair):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(
            scheme="multi-signature", signature_algorithm="hmac", build_mode="incremental"
        ),
        keypair=hmac_keypair,
    )
    assert owner.config.build_mode == "incremental"
    assert owner.ads.itree.builder == "incremental"


def test_owner_rejects_unknown_scheme(univariate_dataset, univariate_template):
    with pytest.raises(ConstructionError, match="unknown scheme"):
        DataOwner(univariate_dataset, univariate_template, config=SystemConfig(scheme="bogus"))


def test_tolerance_reaches_the_interval_engine(univariate_dataset, univariate_template):
    """tolerance=0.0 must be honoured, not treated as falsy (the PR 1 trap)."""
    tree = IFMHTree(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(tolerance=0.0),
    )
    assert isinstance(tree.itree.engine, IntervalEngine)
    assert tree.itree.engine.tolerance == 0.0
    default = IFMHTree(univariate_dataset, univariate_template)
    assert default.itree.engine.tolerance == DEFAULT_TOLERANCE


def test_tolerance_reaches_the_lp_engine(applicant_dataset, bivariate_template, hmac_keypair):
    owner = DataOwner(
        applicant_dataset,
        bivariate_template,
        config=SystemConfig(signature_algorithm="hmac", tolerance=1e-6),
        keypair=hmac_keypair,
    )
    assert isinstance(owner.ads.itree.engine, LPEngine)
    assert owner.ads.itree.engine.tolerance == 1e-6


def test_setup_threads_tolerance_without_hand_built_engine(
    univariate_dataset, univariate_template
):
    system = OutsourcedSystem.setup(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac", tolerance=0.0),
    )
    assert system.owner.ads.itree.engine.tolerance == 0.0
    assert system.owner.config.tolerance == 0.0


def test_mesh_gets_config(univariate_dataset, univariate_template, hmac_keypair):
    owner = DataOwner(
        univariate_dataset,
        univariate_template,
        config=SystemConfig(
            scheme=SIGNATURE_MESH, signature_algorithm="hmac", share_signatures=False
        ),
        keypair=hmac_keypair,
    )
    assert owner.ads.share_signatures is False
    assert owner.ads.config.scheme == SIGNATURE_MESH
