"""Experiment definitions: one function per figure of the paper's evaluation.

Every function returns an :class:`~repro.bench.harness.ExperimentResult`
table whose rows carry one x-axis point per approach.  The functions are
pure (given the same :class:`BenchConfig` they return the same numbers up to
wall-clock noise), so the pytest-benchmark targets and ``python -m
repro.bench`` share them.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Optional, Sequence

from repro.attacks.tamper import all_attacks
from repro.bench.harness import (
    BenchConfig,
    ExperimentResult,
    SystemsUnderTest,
    build_systems,
    queries_with_result_size,
)
from repro.core.config import SystemConfig
from repro.core.owner import SIGNATURE_MESH
from repro.geometry.engine import IntervalEngine, LPEngine
from repro.ifmh.ifmh_tree import IFMHTree, MULTI_SIGNATURE, ONE_SIGNATURE
from repro.itree.itree import ITree
from repro.metrics.counters import Counters
from repro.workloads.generator import make_dataset, make_template

__all__ = [
    "fig5_data_owner",
    "fig6_server_fixed_result",
    "fig6d_result_length",
    "fig7_user_verification",
    "fig7c_signature_algorithms",
    "fig8a_vo_size_vs_result_length",
    "fig8b_vo_size_vs_database_size",
    "ablation_geometry_engine",
    "ablation_signing_modes",
    "ablation_intersection_binding",
    "ablation_mesh_sharing",
    "security_attack_matrix",
    "all_experiments",
]

# --------------------------------------------------------------------------
# shared system cache (figures reuse the ADSs built for the same scale)
# --------------------------------------------------------------------------
_SYSTEMS_CACHE: Dict[tuple, SystemsUnderTest] = {}


def _systems(
    config: BenchConfig,
    n_records: int,
    signature_algorithm: Optional[str] = None,
    key_bits: Optional[int] = None,
) -> SystemsUnderTest:
    algorithm = signature_algorithm or config.signature_algorithm
    bits = key_bits if key_bits is not None else config.key_bits
    key = (config.seed, config.dimension, n_records, algorithm, bits, config.build_mode)
    if key not in _SYSTEMS_CACHE:
        _SYSTEMS_CACHE[key] = build_systems(
            config, n_records, signature_algorithm=algorithm, key_bits=bits
        )
    return _SYSTEMS_CACHE[key]


def clear_cache() -> None:
    """Drop every cached system (used by tests that need fresh builds)."""
    _SYSTEMS_CACHE.clear()


# --------------------------------------------------------------------------
# Fig. 5 -- data owner overhead
# --------------------------------------------------------------------------
def fig5_data_owner(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 5a-5c: signatures created, construction time and ADS size vs n."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig5",
        title="Data owner overhead (signatures, construction time, ADS size)",
        parameters={"d": config.dimension, "algorithm": config.signature_algorithm},
        columns=("n", "approach", "signatures", "build_seconds", "size_bytes", "subdomains"),
    )
    for n_records in config.n_values:
        systems = _systems(config, n_records)
        for handle in systems:
            ads = handle.owner.ads
            subdomains = ads.cell_count if hasattr(ads, "cell_count") else ads.subdomain_count
            result.add_row(
                n=n_records,
                approach=handle.approach,
                signatures=handle.signature_count,
                build_seconds=handle.build_seconds,
                size_bytes=handle.ads_size_bytes(config.size_model),
                subdomains=subdomains,
            )
    return result


# --------------------------------------------------------------------------
# Fig. 6 -- server overhead
# --------------------------------------------------------------------------
def fig6_server_fixed_result(
    config: Optional[BenchConfig] = None,
    kind: str = "topk",
    result_size: int = 3,
) -> ExperimentResult:
    """Fig. 6a/6b/6c: nodes (cells) traversed to build a VO, result size fixed.

    ``kind`` selects the sub-figure: ``"topk"`` (6a), ``"knn"`` (6b) or
    ``"range"`` (6c); the paper fixes the result size to 3 for all three.
    """
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id=f"fig6-{kind}",
        title=f"Server overhead: nodes traversed per {kind} query (|q| = {result_size})",
        parameters={"result_size": result_size, "queries": config.queries_per_point},
        columns=("n", "approach", "nodes_traversed"),
    )
    for n_records in config.n_values:
        systems = _systems(config, n_records)
        queries = queries_with_result_size(
            systems, kind, result_size, config.queries_per_point, seed=config.seed
        )
        for handle in systems:
            total = 0
            for query in queries:
                counters = Counters()
                handle.server.execute(query, counters=counters)
                total += counters.nodes_traversed
            result.add_row(
                n=n_records,
                approach=handle.approach,
                nodes_traversed=total / len(queries),
            )
    return result


def fig6d_result_length(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 6d: nodes traversed as a function of the result length |q|."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig6d",
        title="Server overhead vs result length |q| (range queries)",
        parameters={"n": config.fixed_n, "queries": config.queries_per_point},
        columns=("result_size", "approach", "nodes_traversed"),
    )
    systems = _systems(config, config.fixed_n)
    for result_size in config.result_sizes:
        queries = queries_with_result_size(
            systems, "range", result_size, config.queries_per_point, seed=config.seed
        )
        for handle in systems:
            total = 0
            for query in queries:
                counters = Counters()
                handle.server.execute(query, counters=counters)
                total += counters.nodes_traversed
            result.add_row(
                result_size=result_size,
                approach=handle.approach,
                nodes_traversed=total / len(queries),
            )
    return result


# --------------------------------------------------------------------------
# Fig. 7 -- user (client) overhead
# --------------------------------------------------------------------------
def fig7_user_verification(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 7a/7b/7d: client hash counts, hash time and total verification time."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig7",
        title="User overhead: verification cost vs result length |q|",
        parameters={
            "n": config.fixed_n,
            "algorithm": config.signature_algorithm,
            "queries": config.queries_per_point,
        },
        columns=(
            "result_size",
            "approach",
            "hash_operations",
            "hash_seconds",
            "signatures_verified",
            "signature_seconds",
            "total_seconds",
        ),
    )
    systems = _systems(config, config.fixed_n)
    for result_size in config.result_sizes:
        queries = queries_with_result_size(
            systems, "range", result_size, config.queries_per_point, seed=config.seed
        )
        for handle in systems:
            hash_operations = 0
            signatures_verified = 0
            hash_seconds = 0.0
            signature_seconds = 0.0
            total_seconds = 0.0
            for query in queries:
                execution = handle.server.execute(query)
                counters = Counters()
                started = time.perf_counter()
                report = handle.client.verify(
                    query, execution.result, execution.verification_object, counters=counters
                )
                total_seconds += time.perf_counter() - started
                assert report.is_valid, report.failures
                hash_operations += counters.hash_operations
                signatures_verified += counters.signatures_verified
                hash_seconds += report.timings.get("hashing", 0.0)
                signature_seconds += report.timings.get("signature", 0.0)
            count = len(queries)
            result.add_row(
                result_size=result_size,
                approach=handle.approach,
                hash_operations=hash_operations / count,
                hash_seconds=hash_seconds / count,
                signatures_verified=signatures_verified / count,
                signature_seconds=signature_seconds / count,
                total_seconds=total_seconds / count,
            )
    return result


def fig7c_signature_algorithms(
    config: Optional[BenchConfig] = None,
    algorithms: Sequence[str] = ("rsa", "dsa"),
) -> ExperimentResult:
    """Fig. 7c: time spent verifying signatures, RSA versus DSA."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig7c",
        title="Signature verification time: RSA vs DSA",
        parameters={"n": config.fixed_n, "queries": config.queries_per_point},
        columns=("result_size", "approach", "algorithm", "signature_seconds"),
    )
    for algorithm in algorithms:
        key_bits = 1024 if algorithm == "dsa" else config.key_bits
        systems = _systems(config, config.fixed_n, signature_algorithm=algorithm, key_bits=key_bits)
        # One untimed query per system first, so no first-call cost lands
        # inside the smallest result size's mean.
        (warm_up,) = queries_with_result_size(
            systems, "range", min(config.result_sizes), 1, seed=config.seed
        )
        for handle in systems:
            execution = handle.server.execute(warm_up)
            handle.client.verify(warm_up, execution.result, execution.verification_object)
        for result_size in config.result_sizes:
            queries = queries_with_result_size(
                systems, "range", result_size, config.queries_per_point, seed=config.seed
            )
            for handle in systems:
                signature_seconds = 0.0
                for query in queries:
                    execution = handle.server.execute(query)
                    report = handle.client.verify(
                        query, execution.result, execution.verification_object
                    )
                    assert report.is_valid, report.failures
                    signature_seconds += report.timings.get("signature", 0.0)
                result.add_row(
                    result_size=result_size,
                    approach=handle.approach,
                    algorithm=algorithm,
                    signature_seconds=signature_seconds / len(queries),
                )
    return result


# --------------------------------------------------------------------------
# Fig. 8 -- communication overhead
# --------------------------------------------------------------------------
def fig8a_vo_size_vs_result_length(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Fig. 8a: VO size vs result length at a fixed database size."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig8a",
        title="Verification object size vs result length |q|",
        parameters={"n": config.fixed_n},
        columns=("result_size", "approach", "vo_bytes", "vo_signatures"),
    )
    systems = _systems(config, config.fixed_n)
    dimension = systems.template.dimension
    for result_size in config.result_sizes:
        queries = queries_with_result_size(
            systems, "range", result_size, config.queries_per_point, seed=config.seed
        )
        for handle in systems:
            total_bytes = 0
            total_signatures = 0
            for query in queries:
                execution = handle.server.execute(query)
                vo = execution.verification_object
                total_bytes += vo.size_bytes(dimension, config.size_model)
                total_signatures += vo.signature_count
            count = len(queries)
            result.add_row(
                result_size=result_size,
                approach=handle.approach,
                vo_bytes=total_bytes / count,
                vo_signatures=total_signatures / count,
            )
    return result


def fig8b_vo_size_vs_database_size(
    config: Optional[BenchConfig] = None, result_size: int = 8
) -> ExperimentResult:
    """Fig. 8b: VO size vs database size at a fixed result length."""
    config = config or BenchConfig()
    result = ExperimentResult(
        experiment_id="fig8b",
        title=f"Verification object size vs database size (|q| = {result_size})",
        parameters={"result_size": result_size},
        columns=("n", "approach", "vo_bytes"),
    )
    for n_records in config.n_values:
        systems = _systems(config, n_records)
        dimension = systems.template.dimension
        queries = queries_with_result_size(
            systems, "range", result_size, config.queries_per_point, seed=config.seed
        )
        for handle in systems:
            total_bytes = 0
            for query in queries:
                execution = handle.server.execute(query)
                total_bytes += execution.verification_object.size_bytes(
                    dimension, config.size_model
                )
            result.add_row(
                n=n_records,
                approach=handle.approach,
                vo_bytes=total_bytes / len(queries),
            )
    return result


# --------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# --------------------------------------------------------------------------
def ablation_geometry_engine(
    config: Optional[BenchConfig] = None, n_records: int = 15
) -> ExperimentResult:
    """A1: interval engine vs LP engine for the univariate I-tree build.

    Both engines run the paper's incremental insertion so their check counts
    are comparable; a third row shows the interval engine's vectorized bulk
    fast path on the same workload.
    """
    config = config or BenchConfig()
    workload = config.workload(n_records)
    dataset = make_dataset(workload)
    template = make_template(workload)
    functions = template.functions_for(dataset)
    result = ExperimentResult(
        experiment_id="ablation-geometry",
        title="Geometry engine ablation: I-tree build cost (d = 1)",
        parameters={"n": n_records},
        columns=("engine", "build_seconds", "insertion_checks", "subdomains"),
    )
    variants = (
        ("interval", IntervalEngine(), "incremental"),
        ("lp", LPEngine(), "incremental"),
        ("interval-bulk", IntervalEngine(), "bulk"),
    )
    for name, engine, builder in variants:
        started = time.perf_counter()
        tree = ITree(functions, template.domain, engine=engine, builder=builder)
        elapsed = time.perf_counter() - started
        result.add_row(
            engine=name,
            build_seconds=elapsed,
            insertion_checks=tree.insertion_checks,
            subdomains=tree.subdomain_count,
        )
    return result


def ablation_signing_modes(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """A2: one-signature vs multi-signature VO size and verification cost."""
    config = config or BenchConfig()
    systems = _systems(config, config.fixed_n)
    dimension = systems.template.dimension
    result = ExperimentResult(
        experiment_id="ablation-signing",
        title="One-signature vs multi-signature trade-off",
        parameters={"n": config.fixed_n},
        columns=("approach", "owner_signatures", "ads_bytes", "vo_bytes", "client_hashes"),
    )
    queries = queries_with_result_size(systems, "range", 8, config.queries_per_point, seed=1)
    for approach in (ONE_SIGNATURE, MULTI_SIGNATURE):
        handle = systems[approach]
        vo_bytes = 0
        client_hashes = 0
        for query in queries:
            execution = handle.server.execute(query)
            vo_bytes += execution.verification_object.size_bytes(dimension, config.size_model)
            counters = Counters()
            handle.client.verify(
                query, execution.result, execution.verification_object, counters=counters
            )
            client_hashes += counters.hash_operations
        count = len(queries)
        result.add_row(
            approach=approach,
            owner_signatures=handle.signature_count,
            ads_bytes=handle.ads_size_bytes(config.size_model),
            vo_bytes=vo_bytes / count,
            client_hashes=client_hashes / count,
        )
    return result


def ablation_intersection_binding(
    config: Optional[BenchConfig] = None, n_records: int = 20
) -> ExperimentResult:
    """A3: hardened intersection binding vs the paper's exact hash rule."""
    config = config or BenchConfig()
    workload = config.workload(n_records)
    dataset = make_dataset(workload)
    template = make_template(workload)
    result = ExperimentResult(
        experiment_id="ablation-binding",
        title="Intersection binding (hardened) vs paper hash rule",
        parameters={"n": n_records},
        columns=("bind_intersections", "build_seconds", "owner_hashes", "root_hash_prefix"),
    )
    for bind in (True, False):
        counters = Counters()
        started = time.perf_counter()
        tree = IFMHTree(
            dataset,
            template,
            config=SystemConfig(scheme=ONE_SIGNATURE, bind_intersections=bind),
            counters=counters,
        )
        elapsed = time.perf_counter() - started
        result.add_row(
            bind_intersections=bind,
            build_seconds=elapsed,
            owner_hashes=counters.hash_operations,
            root_hash_prefix=tree.root_hash.hex()[:12],
        )
    return result


def ablation_mesh_sharing(
    config: Optional[BenchConfig] = None, n_records: int = 20
) -> ExperimentResult:
    """A4: the mesh's shared-signature optimization (signatures and build time)."""
    config = config or BenchConfig()
    workload = config.workload(n_records)
    dataset = make_dataset(workload)
    template = make_template(workload)
    result = ExperimentResult(
        experiment_id="ablation-mesh-sharing",
        title="Signature-mesh sharing optimization",
        parameters={"n": n_records, "algorithm": "hmac"},
        columns=("share_signatures", "signatures", "build_seconds", "cells"),
    )
    from repro.core.owner import DataOwner

    for share in (False, True):
        started = time.perf_counter()
        owner = DataOwner(
            dataset,
            template,
            config=SystemConfig(
                scheme=SIGNATURE_MESH, signature_algorithm="hmac", share_signatures=share
            ),
            rng=random.Random(config.seed),
        )
        elapsed = time.perf_counter() - started
        result.add_row(
            share_signatures=share,
            signatures=owner.signature_count,
            build_seconds=elapsed,
            cells=owner.ads.cell_count,
        )
    return result


def security_attack_matrix(config: Optional[BenchConfig] = None) -> ExperimentResult:
    """Security analysis (section 4.1): every attack must be detected."""
    config = config or BenchConfig()
    systems = _systems(config, min(config.n_values))
    result = ExperimentResult(
        experiment_id="security",
        title="Attack detection matrix (True = verification rejects the tampered result)",
        parameters={"n": min(config.n_values)},
        columns=("approach", "attack", "violates", "detected"),
    )
    rng = random.Random(config.seed)
    queries = queries_with_result_size(systems, "range", 6, 2, seed=config.seed)
    for handle in systems:
        for attack in all_attacks():
            detected = True
            applied = False
            for query in queries:
                execution = handle.server.execute(query)
                tampered = attack(execution.result, execution.verification_object, rng)
                if tampered is None:
                    continue
                applied = True
                report = handle.client.verify(query, tampered[0], tampered[1])
                if report.is_valid:
                    detected = False
            result.add_row(
                approach=handle.approach,
                attack=attack.name,
                violates=attack.violates,
                detected=detected if applied else "n/a",
            )
    return result


def all_experiments(config: Optional[BenchConfig] = None) -> list[ExperimentResult]:
    """Run every figure and ablation (used by ``python -m repro.bench``)."""
    config = config or BenchConfig()
    return [
        fig5_data_owner(config),
        fig6_server_fixed_result(config, kind="topk"),
        fig6_server_fixed_result(config, kind="knn"),
        fig6_server_fixed_result(config, kind="range"),
        fig6d_result_length(config),
        fig7_user_verification(config),
        fig7c_signature_algorithms(config),
        fig8a_vo_size_vs_result_length(config),
        fig8b_vo_size_vs_database_size(config),
        ablation_geometry_engine(config),
        ablation_signing_modes(config),
        ablation_intersection_binding(config),
        ablation_mesh_sharing(config),
        security_attack_matrix(config),
    ]
