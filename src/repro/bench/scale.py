"""Thousand-record-scale construction benchmark (``--scale``).

The paper's construction experiments (Fig. 5a/7a) stop at small ``n``
because a per-subdomain pure-Python build is bottlenecked on redundant
SHA-256 work and per-node Python overhead; the level-order batched forest
engine removes both.  This benchmark sweeps the IFMH construction into
the thousands and records its build time and hash counts per ``n``.

``python -m repro.bench --scale`` runs the full sweep (n up to 2000) and
writes ``BENCH_scale.json``; ``python -m repro.bench --scale --smoke``
runs a reduced-n version for CI.  All timings are best-of-``repeats``
with a forced ``gc.collect()`` before every run, so a scheduler hiccup or
GC pause on a loaded machine cannot flip a gate.

Parallel construction points
----------------------------
Two further points gate the multiprocess forest build:

* **full-ADS parallel** -- the complete IFMH construction at n = 1000,
  serial vs ``construction_workers`` forked workers, asserted
  bit-identical (root hash, logical *and* physical hash counters, engine
  stats) before any speedup is reported.

* **forest-stage n = 10^4** -- the parallelized stage in isolation at the
  paper-scale leaf width: a synthetic forest of ``n + 2 = 10002``-leaf
  trees where consecutive trees differ by one adjacent transposition
  (exactly the IFMH step-2 shape).  The tree count is *capped* (the real
  sweep has Theta(n^2) subdomains; the cap is recorded in the report), and
  serial vs parallel builds are asserted bit-identical -- roots, every
  arena digest and both hash counters.

Both gates use an **affinity-scaled floor**: the required speedup is
``min(cap, per_worker * effective)`` where ``effective = min(workers,
len(os.sched_getaffinity(0)))``.  On a single-core runner the workers
just serialize (and duplicate shard-boundary hashing), so no genuine
speedup is possible; the floor degrades to a containment bound that only
fails if the parallel path collapses (hangs, thrashes) rather than
demanding parallelism the hardware cannot deliver.
"""

from __future__ import annotations

import gc
import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.fastpath import best_ifmh_build
from repro.bench.harness import ExperimentResult
from repro.core.parallel import available_cores
from repro.crypto.hashing import HashFunction
from repro.merkle import arena as arena_module
from repro.merkle.arena import ForestHasher
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

__all__ = [
    "SCALE_N_VALUES",
    "SCALE_REPEATS",
    "SCALE_REPORT_FILENAME",
    "SMOKE_SCALE_N_VALUES",
    "SMOKE_SCALE_REPORT_FILENAME",
    "PARALLEL_WORKERS",
    "PARALLEL_ADS_N",
    "FOREST_LEAF_COUNT",
    "FOREST_TREE_CAP",
    "SMOKE_PARALLEL_WORKERS",
    "SMOKE_FOREST_LEAF_COUNT",
    "SMOKE_FOREST_TREE_CAP",
    "parallel_speedup_floor",
    "scale_point",
    "parallel_ads_point",
    "forest_scale_point",
    "run_scale",
    "run_scale_smoke",
]

#: Database sizes of the full ``--scale`` sweep.
SCALE_N_VALUES = (500, 1000, 2000)
#: Best-of-``SCALE_REPEATS`` timing with ``gc.collect()`` between runs.
SCALE_REPEATS = 3
#: Where ``python -m repro.bench --scale`` records its trajectory.
SCALE_REPORT_FILENAME = "BENCH_scale.json"

#: Reduced-n configuration used by ``--scale --smoke`` (CI).
SMOKE_SCALE_N_VALUES = (120, 240)
SMOKE_SCALE_REPORT_FILENAME = "BENCH_scale_smoke.json"

#: Worker count of the full parallel-construction gates.
PARALLEL_WORKERS = 4
#: Database size of the full-ADS serial-vs-parallel comparison.
PARALLEL_ADS_N = 1000
#: Merkle leaves per subdomain tree in the forest-stage point: n = 10^4
#: records plus the two boundary tokens (paper section 3.1, step 2).
FOREST_LEAF_COUNT = 10_002
#: Subdomain-tree cap of the forest-stage point.  The real n = 10^4 sweep
#: has Theta(n^2) subdomains -- far beyond any benchmark budget -- so the
#: point builds this many adjacent-transposition trees and records the cap.
FOREST_TREE_CAP = 20_000
#: Reduced parallel configuration used by ``--scale --smoke`` (CI): two
#: workers over a small forest, same identity assertions.
SMOKE_PARALLEL_WORKERS = 2
SMOKE_PARALLEL_ADS_N = 240
SMOKE_FOREST_LEAF_COUNT = 258
SMOKE_FOREST_TREE_CAP = 2400

#: Affinity-scaled speedup floors: per-worker efficiency each gate demands
#: and the cap it saturates at (the acceptance bar: >= 2.5x at 4 workers
#: on >= 4 free cores).  ``*_SINGLE_CORE`` is the containment bound used
#: when only one core is available -- the parallel build then pays fork,
#: shared-memory and duplicated shard-boundary hashing with nothing to
#: overlap it against, so the gate only refuses a collapse.
PARALLEL_PER_WORKER = 0.625
PARALLEL_FLOOR_CAP = 2.5
PARALLEL_SINGLE_CORE_FLOOR = 0.15
SMOKE_PARALLEL_PER_WORKER = 0.6
SMOKE_PARALLEL_FLOOR_CAP = 1.2
#: The smoke forest is small enough that fork start-up is a visible share
#: of the parallel time, so its containment bound sits lower than the
#: full run's.
SMOKE_PARALLEL_SINGLE_CORE_FLOOR = 0.05


def parallel_speedup_floor(
    workers: int,
    per_worker: float = PARALLEL_PER_WORKER,
    cap: float = PARALLEL_FLOOR_CAP,
    single_core: float = PARALLEL_SINGLE_CORE_FLOOR,
) -> Tuple[float, int]:
    """Affinity-scaled gate floor: ``(floor, effective_workers)``.

    ``effective_workers`` is the worker count actually backed by CPU
    affinity (:func:`repro.core.parallel.available_cores`); the floor
    scales with it so the same gate passes on a 4-core CI runner and a
    single-core container without pretending the latter can parallelize.
    """
    effective = min(int(workers), available_cores())
    if effective <= 1:
        return single_core, effective
    return min(cap, per_worker * effective), effective


def scale_point(
    n_records: int,
    seed: int = 0,
    repeats: int = SCALE_REPEATS,
) -> Dict[str, object]:
    """One sweep point: the batched build's time, hash counts and engine stats."""
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)

    build_seconds, tree, counters = best_ifmh_build(dataset, template, repeats)
    point: Dict[str, object] = {
        "n": n_records,
        "subdomains": tree.subdomain_count,
        "logical_hashes": counters.hash_operations,
        "batched": {
            "build_seconds": build_seconds,
            "physical_hashes": counters.physical_hash_operations,
        },
        "engine_stats": tree.merkle_engine_stats,
    }
    del tree
    gc.collect()
    return point


def parallel_ads_point(
    n_records: int = PARALLEL_ADS_N,
    workers: int = PARALLEL_WORKERS,
    seed: int = 0,
    repeats: int = SCALE_REPEATS,
) -> Dict[str, object]:
    """Full IFMH construction, serial vs ``workers`` forked processes.

    Bit-identity is asserted before any timing is reported: root hash,
    logical *and* physical hash counters and the engine's node statistics
    must match exactly (the parallel build is a wall-clock knob, never a
    semantic one).
    """
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    serial_seconds, serial_tree, serial_counters = best_ifmh_build(dataset, template, repeats)
    parallel_seconds, parallel_tree, parallel_counters = best_ifmh_build(
        dataset, template, repeats, construction_workers=workers
    )
    if parallel_tree.root_hash != serial_tree.root_hash:  # pragma: no cover
        raise AssertionError("parallel construction changed the IFMH root hash")
    if (  # pragma: no cover - correctness guard
        parallel_counters.hash_operations != serial_counters.hash_operations
        or parallel_counters.physical_hash_operations
        != serial_counters.physical_hash_operations
    ):
        raise AssertionError("parallel construction changed the hash counters")
    if (  # pragma: no cover - correctness guard
        parallel_tree.merkle_engine_stats != serial_tree.merkle_engine_stats
    ):
        raise AssertionError("parallel construction changed the engine stats")
    point: Dict[str, object] = {
        "n": n_records,
        "workers": workers,
        "subdomains": serial_tree.subdomain_count,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "logical_hashes": serial_counters.hash_operations,
        "physical_hashes": serial_counters.physical_hash_operations,
    }
    del serial_tree, parallel_tree
    gc.collect()
    return point


def _transposition_forest(
    leaf_count: int, tree_count: int
) -> Tuple[List[bytes], np.ndarray]:
    """Leaf payloads and swap positions of the synthetic step-2 forest.

    Row ``t`` of the leaf matrix is row ``t - 1`` with one adjacent
    transposition applied -- the exact relation between consecutive
    subdomains of the IFMH sweep.  Positions come from a fixed
    multiplicative hash so the forest is deterministic without any RNG.
    """
    payloads = [b"scale-leaf-%010d" % index for index in range(leaf_count)]
    positions = (np.arange(1, tree_count, dtype=np.int64) * 2654435761) % (
        leaf_count - 1
    )
    return payloads, positions


def _build_forest_once(
    payloads: List[bytes], positions: np.ndarray, leaf_count: int, workers: int
) -> Tuple[float, np.ndarray, ForestHasher, HashFunction]:
    """One timed forest build (leaf interning and matrix fill untimed)."""
    tree_count = len(positions) + 1
    hasher = ForestHasher(workers=workers)
    hash_function = HashFunction()
    leaf_ids = hasher.intern_leaves(payloads, hash_function)
    matrix = np.empty((tree_count, leaf_count), dtype=np.int64)
    matrix[0] = leaf_ids
    for tree in range(1, tree_count):
        row = matrix[tree - 1].copy()
        position = positions[tree - 1]
        row[position], row[position + 1] = row[position + 1], row[position]
        matrix[tree] = row
    gc.collect()
    started = time.perf_counter()
    roots = hasher.build_forest(matrix, hash_function)
    return time.perf_counter() - started, roots, hasher, hash_function


def forest_scale_point(
    leaf_count: int = FOREST_LEAF_COUNT,
    tree_cap: int = FOREST_TREE_CAP,
    workers: int = PARALLEL_WORKERS,
    repeats: int = 1,
) -> Dict[str, object]:
    """The parallelized forest stage in isolation at n = 10^4 leaf width.

    Serial and parallel builds of the identical synthetic forest are
    asserted bit-identical -- subdomain root digests, the arena node
    count and both hash counters, plus every arena digest row byte for
    byte whenever the shard bounds land on the serial chunk grid (with
    fewer chunks than workers the row-split fallback renumbers nodes;
    the digest *values* still match, see ``docs/scaling.md``).  A fresh
    hasher is built per run (a sealed or warm pair cache would make
    repeats incomparable).
    """
    payloads, positions = _transposition_forest(leaf_count, tree_cap)

    def best_build(worker_count: int):
        best_seconds = float("inf")
        built = None
        for _ in range(max(1, repeats)):
            built = None  # release the previous arena before rebuilding
            seconds, roots, hasher, hash_function = _build_forest_once(
                payloads, positions, leaf_count, worker_count
            )
            best_seconds = min(best_seconds, seconds)
            built = (roots, hasher, hash_function)
        return best_seconds, built

    serial_seconds, (serial_roots, serial_hasher, serial_hf) = best_build(1)
    parallel_seconds, (parallel_roots, parallel_hasher, parallel_hf) = best_build(
        workers
    )
    serial_arena = serial_hasher.finalize()
    parallel_arena = parallel_hasher.finalize()
    if not np.array_equal(  # pragma: no cover - correctness guard
        serial_arena.digests[serial_roots], parallel_arena.digests[parallel_roots]
    ):
        raise AssertionError("parallel forest build changed a subdomain root digest")
    if len(serial_arena) != len(parallel_arena):  # pragma: no cover
        raise AssertionError("parallel forest build changed the distinct node count")
    chunk_rows = max(1, arena_module._CHUNK_ELEMENTS // leaf_count)
    chunk_aligned = -(-tree_cap // chunk_rows) >= workers
    if chunk_aligned and not np.array_equal(  # pragma: no cover - guard
        serial_arena.digests, parallel_arena.digests
    ):
        raise AssertionError("parallel forest build changed the arena digests")
    if (  # pragma: no cover - correctness guard
        serial_hf.call_count != parallel_hf.call_count
        or serial_hf.physical_count != parallel_hf.physical_count
    ):
        raise AssertionError("parallel forest build changed the hash counters")
    point: Dict[str, object] = {
        "leaf_count": leaf_count,
        "records": leaf_count - 2,
        "trees": tree_cap,
        "tree_cap_note": (
            "tree count capped; the full sweep at this n has Theta(n^2) subdomains"
        ),
        "workers": workers,
        "chunk_aligned": bool(chunk_aligned),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": serial_seconds / parallel_seconds,
        "arena_nodes": int(serial_arena.digests.shape[0]),
        "physical_hashes": serial_hf.physical_count,
    }
    del serial_arena, parallel_arena, serial_hasher, parallel_hasher
    gc.collect()
    return point


def run_scale(
    n_values: Sequence[int] = SCALE_N_VALUES,
    seed: int = 0,
    repeats: int = SCALE_REPEATS,
    output_path: Optional[str] = SCALE_REPORT_FILENAME,
    parallel_workers: int = PARALLEL_WORKERS,
    parallel_ads_n: int = PARALLEL_ADS_N,
    forest_leaf_count: int = FOREST_LEAF_COUNT,
    forest_tree_cap: int = FOREST_TREE_CAP,
    parallel_per_worker: float = PARALLEL_PER_WORKER,
    parallel_cap: float = PARALLEL_FLOOR_CAP,
    parallel_single_core: float = PARALLEL_SINGLE_CORE_FLOOR,
) -> Tuple[List[ExperimentResult], List[str]]:
    """Sweep the scale benchmark and gate the parallel build.

    Returns ``(results, failures)``; an empty failure list means both
    parallel points cleared their affinity-scaled floors.  When
    ``output_path`` is set the trajectory is written there as JSON.
    """
    result = ExperimentResult(
        experiment_id="scale-construction",
        title="IFMH construction at scale: level-order batched engine",
        parameters={"seed": seed, "repeats": repeats},
        columns=(
            "n",
            "build_seconds",
            "logical_hashes",
            "physical_hashes",
            "subdomains",
        ),
    )
    trajectory: List[Dict[str, object]] = []
    for n_records in n_values:
        point = scale_point(n_records, seed=seed, repeats=repeats)
        trajectory.append(point)
        result.add_row(
            n=n_records,
            build_seconds=point["batched"]["build_seconds"],
            logical_hashes=point["logical_hashes"],
            physical_hashes=point["batched"]["physical_hashes"],
            subdomains=point["subdomains"],
        )

    failures: List[str] = []
    parallel_floor, effective_workers = parallel_speedup_floor(
        parallel_workers, parallel_per_worker, parallel_cap, parallel_single_core
    )
    ads_parallel = parallel_ads_point(
        parallel_ads_n, workers=parallel_workers, seed=seed, repeats=repeats
    )
    forest_parallel = forest_scale_point(
        forest_leaf_count, forest_tree_cap, workers=parallel_workers
    )
    parallel_result = ExperimentResult(
        experiment_id="scale-parallel-construction",
        title=(
            "Parallel forest construction: serial vs "
            f"{parallel_workers}-worker sharded build"
        ),
        parameters={
            "workers": parallel_workers,
            "effective_workers": effective_workers,
            "floor": parallel_floor,
        },
        columns=(
            "stage",
            "n",
            "trees",
            "serial_seconds",
            "parallel_seconds",
            "speedup",
            "physical_hashes",
        ),
    )
    parallel_result.add_row(
        stage="full-ads",
        n=ads_parallel["n"],
        trees=ads_parallel["subdomains"],
        serial_seconds=ads_parallel["serial_seconds"],
        parallel_seconds=ads_parallel["parallel_seconds"],
        speedup=ads_parallel["speedup"],
        physical_hashes=ads_parallel["physical_hashes"],
    )
    parallel_result.add_row(
        stage="forest-10k",
        n=forest_parallel["records"],
        trees=forest_parallel["trees"],
        serial_seconds=forest_parallel["serial_seconds"],
        parallel_seconds=forest_parallel["parallel_seconds"],
        speedup=forest_parallel["speedup"],
        physical_hashes=forest_parallel["physical_hashes"],
    )
    for stage, point in (("full-ADS", ads_parallel), ("forest-stage", forest_parallel)):
        if point["speedup"] < parallel_floor:
            failures.append(
                f"{stage} parallel build reached only {point['speedup']:.2f}x with "
                f"{parallel_workers} workers on {effective_workers} effective "
                f"core(s) (affinity-scaled floor {parallel_floor:.2f}x)"
            )

    if output_path is not None:
        payload = {
            "benchmark": "ifmh-construction-scale",
            "seed": seed,
            "repeats": repeats,
            "trajectory": trajectory,
            "parallel": {
                "workers": parallel_workers,
                "effective_workers": effective_workers,
                "floor": parallel_floor,
                "full_ads": ads_parallel,
                "forest_stage": forest_parallel,
            },
        }
        with open(output_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return [result, parallel_result], failures


def run_scale_smoke(
    seed: int = 0, output_path: Optional[str] = SMOKE_SCALE_REPORT_FILENAME
) -> Tuple[List[ExperimentResult], List[str]]:
    """Reduced-n scale gate for CI (same code path, minutes -> seconds).

    The parallel points run with two workers over a small forest; the
    identity assertions are the same as the full run, only the timings
    (and therefore the floors) shrink.
    """
    return run_scale(
        n_values=SMOKE_SCALE_N_VALUES,
        seed=seed,
        repeats=SCALE_REPEATS,
        output_path=output_path,
        parallel_workers=SMOKE_PARALLEL_WORKERS,
        parallel_ads_n=SMOKE_PARALLEL_ADS_N,
        forest_leaf_count=SMOKE_FOREST_LEAF_COUNT,
        forest_tree_cap=SMOKE_FOREST_TREE_CAP,
        parallel_per_worker=SMOKE_PARALLEL_PER_WORKER,
        parallel_cap=SMOKE_PARALLEL_FLOOR_CAP,
        parallel_single_core=SMOKE_PARALLEL_SINGLE_CORE_FLOOR,
    )
