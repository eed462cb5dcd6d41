"""Fast-path benchmarks: bulk I-tree construction, batched queries, hashing.

Three experiments quantify the vectorized/shared hot paths added on top of
the paper reproduction:

* :func:`build_comparison` -- incremental BFS insertion vs the vectorized
  balanced bulk build of the univariate I-tree, at a given database size.
  The two builders must carve the identical subdomain partition; the
  interesting number is the construction-time speedup.

* :func:`batch_comparison` -- per-query ``Server.execute`` vs
  ``Server.execute_batch`` on a workload where several queries share a
  weight vector (the common "one user, several analytics" shape).  Both
  paths must return identical records; the interesting number is the
  queries-per-second ratio.

* :func:`construction_comparison` -- the full IFMH construction through
  the batched forest engine vs the naive one-subdomain-at-a-time reference
  (:func:`repro.reference.naive_ifmh_tree`).  Root hashes must be
  bit-identical and the *logical* hash counts equal; the interesting number
  is the reduction in *physical* SHA-256 invocations.
  ``python -m repro.bench --construction`` sweeps several database sizes
  and records the hashing trajectory to ``BENCH_construction.json``.

``python -m repro.bench --smoke`` runs all of them at reduced scale and
exits non-zero when any fast path regresses below a conservative floor, so
CI catches performance regressions without a full figure run.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import ExperimentResult
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import AnalyticQuery, KNNQuery, RangeQuery, TopKQuery
from repro.core.server import Server
from repro.ifmh.ifmh_tree import IFMHTree
from repro.itree.itree import ITree
from repro.metrics.counters import Counters
from repro.reference import naive_ifmh_tree
from repro.workloads.generator import (
    WorkloadConfig,
    make_dataset,
    make_template,
    make_weight_vector,
)

__all__ = [
    "best_ifmh_build",
    "build_comparison",
    "batch_comparison",
    "construction_comparison",
    "run_construction",
    "fastpath_experiments",
    "run_smoke",
    "SMOKE_BUILD_SPEEDUP_FLOOR",
    "SMOKE_BATCH_SPEEDUP_FLOOR",
    "SMOKE_CONSTRUCTION_REDUCTION_FLOOR",
    "CONSTRUCTION_REDUCTION_FLOOR",
    "CONSTRUCTION_REPORT_FILENAME",
]

#: Conservative floors used by the ``--smoke`` regression gate (the full
#: n = 200 benchmark targets >= 5x build and > 1x batch speedups).
SMOKE_BUILD_SPEEDUP_FLOOR = 2.0
SMOKE_BATCH_SPEEDUP_FLOOR = 1.05
#: Physical-hash reduction the batched forest engine must clear over the
#: naive reference in the smoke run (n = 60; the full ``--construction``
#: gate demands >= 5x at n = 200, where sharing is far more effective).
SMOKE_CONSTRUCTION_REDUCTION_FLOOR = 4.0
#: Acceptance floor for the full construction benchmark at its largest n.
CONSTRUCTION_REDUCTION_FLOOR = 5.0
#: Where ``python -m repro.bench --construction`` records its trajectory.
CONSTRUCTION_REPORT_FILENAME = "BENCH_construction.json"


def best_ifmh_build(dataset, template, repeats: int = 3, build=IFMHTree, **kwargs):
    """Best wall-clock of ``repeats`` IFMH builds (gc forced before each).

    The shared timing discipline of every construction gate (``--smoke``,
    ``--construction``, ``--scale``): a scheduler hiccup or GC pause on a
    loaded machine cannot flip a comparison.  ``build`` is the constructor
    timed (``IFMHTree``, or :func:`repro.reference.naive_ifmh_tree` for the
    reference side).  Returns ``(best_seconds, tree, counters)`` from the
    last run -- the builds are deterministic, so every run produces
    identical hashes and counters.
    """
    best_seconds = float("inf")
    tree = None
    counters = Counters()
    for _ in range(repeats):
        tree = None  # release the previous ADS before timing the next build
        counters = Counters()
        gc.collect()
        started = time.perf_counter()
        tree = build(dataset, template, counters=counters, **kwargs)
        best_seconds = min(best_seconds, time.perf_counter() - started)
    return best_seconds, tree, counters


def build_comparison(n_records: int = 200, seed: int = 0, repeats: int = 3) -> ExperimentResult:
    """Incremental vs bulk I-tree construction time at one database size.

    Each builder runs ``repeats`` times and reports its best wall-clock
    time (garbage collection forced beforehand), so a scheduler hiccup or
    GC pause on a loaded machine cannot flip the comparison.
    """
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    functions = template.functions_for(dataset)
    result = ExperimentResult(
        experiment_id="fastpath-build",
        title="I-tree construction: incremental insertion vs vectorized bulk build",
        parameters={"n": n_records, "seed": seed},
        columns=("builder", "build_seconds", "subdomains", "height", "speedup"),
    )
    timings = {}
    partitions = {}
    for builder in ("incremental", "bulk"):
        best_seconds, tree = float("inf"), None
        for _ in range(repeats):
            gc.collect()
            started = time.perf_counter()
            tree = ITree(functions, template.domain, builder=builder)
            best_seconds = min(best_seconds, time.perf_counter() - started)
        timings[builder] = best_seconds
        partitions[builder] = sorted(
            (leaf.region.interval_low, leaf.region.interval_high) for leaf in tree.leaves()
        )
        result.add_row(
            builder=builder,
            build_seconds=timings[builder],
            subdomains=tree.subdomain_count,
            height=tree.height(),
            speedup=1.0 if builder == "incremental" else timings["incremental"] / timings[builder],
        )
    if partitions["incremental"] != partitions["bulk"]:  # pragma: no cover - correctness guard
        raise AssertionError("bulk build carved a different partition than the incremental build")
    return result


def _session_queries(
    template, unique_weights: int, queries_per_weight: int, seed: int
) -> List[AnalyticQuery]:
    """A batch where each weight vector is shared by several query kinds."""
    rng = random.Random(seed)
    queries: List[AnalyticQuery] = []
    for _ in range(unique_weights):
        weights = make_weight_vector(template, rng)
        for position in range(queries_per_weight):
            kind = position % 3
            if kind == 0:
                queries.append(TopKQuery(weights=weights, k=3))
            elif kind == 1:
                queries.append(RangeQuery(weights=weights, low=2.0, high=7.0))
            else:
                queries.append(KNNQuery(weights=weights, k=3, target=rng.uniform(2.0, 8.0)))
    return queries


def batch_comparison(
    n_records: int = 80,
    unique_weights: int = 12,
    queries_per_weight: int = 9,
    seed: int = 0,
    repeats: int = 3,
) -> ExperimentResult:
    """Per-query execution vs ``execute_batch`` throughput on shared weights.

    Each mode runs ``repeats`` times against a fresh server and reports its
    best wall-clock time, so a single scheduler hiccup on a loaded machine
    cannot flip the comparison.
    """
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    owner = DataOwner(
        dataset,
        template,
        config=SystemConfig(scheme="one-signature", signature_algorithm="hmac"),
        rng=random.Random(seed),
    )
    queries = _session_queries(template, unique_weights, queries_per_weight, seed + 1)

    def best_of(run):
        best_seconds, executions = float("inf"), None
        for _ in range(repeats):
            server = Server(owner.outsource())
            gc.collect()
            started = time.perf_counter()
            executions = run(server)
            best_seconds = min(best_seconds, time.perf_counter() - started)
        return best_seconds, executions

    single_seconds, single = best_of(lambda server: [server.execute(q) for q in queries])
    batch_seconds, batched = best_of(lambda server: server.execute_batch(queries))

    for alone, together in zip(single, batched):  # pragma: no branch - correctness guard
        if alone.result.records != together.result.records:  # pragma: no cover
            raise AssertionError("execute_batch returned different records than execute")

    result = ExperimentResult(
        experiment_id="fastpath-batch",
        title="Server throughput: per-query execute vs execute_batch",
        parameters={
            "n": n_records,
            "queries": len(queries),
            "unique_weights": unique_weights,
        },
        columns=("mode", "seconds", "queries_per_second", "speedup"),
    )
    result.add_row(
        mode="execute",
        seconds=single_seconds,
        queries_per_second=len(queries) / single_seconds,
        speedup=1.0,
    )
    result.add_row(
        mode="execute_batch",
        seconds=batch_seconds,
        queries_per_second=len(queries) / batch_seconds,
        speedup=single_seconds / batch_seconds,
    )
    return result


def construction_comparison(
    n_records: int = 200, seed: int = 0, repeats: int = 3
) -> ExperimentResult:
    """IFMH construction: the naive reference vs the batched forest engine.

    The ``naive`` row builds every subdomain's FMH-tree on its own
    (:func:`repro.reference.naive_ifmh_tree`); the ``batched`` row is the
    production :class:`IFMHTree`.  Both must produce the bit-identical root
    hash and the same *logical* hash count (what Fig. 5a/7a report); the
    engine only changes which of those hashes physically run.  The headline
    number is ``physical_reduction``: naive physical SHA-256 invocations
    divided by the engine's.  ``build_seconds`` is the best of ``repeats``
    runs with ``gc.collect()`` forced before each, the same timing
    discipline as the other wall-clock gates.
    """
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    result = ExperimentResult(
        experiment_id="fastpath-construction",
        title="IFMH construction: naive reference vs batched forest engine",
        parameters={"n": n_records, "seed": seed},
        columns=(
            "engine",
            "build_seconds",
            "logical_hashes",
            "physical_hashes",
            "physical_reduction",
            "subdomains",
        ),
    )
    observed: Dict[str, Dict[str, object]] = {}
    for engine, build in (("naive", naive_ifmh_tree), ("batched", IFMHTree)):
        build_seconds, tree, counters = best_ifmh_build(dataset, template, repeats, build=build)
        observed[engine] = {
            "root": tree.root_hash,
            "logical": counters.hash_operations,
            "physical": counters.physical_hash_operations,
            "engine_stats": tree.merkle_engine_stats,
        }
        result.add_row(
            engine=engine,
            build_seconds=build_seconds,
            logical_hashes=counters.hash_operations,
            physical_hashes=counters.physical_hash_operations,
            physical_reduction=observed["naive"]["physical"] / counters.physical_hash_operations,
            subdomains=tree.subdomain_count,
        )
    if observed["naive"]["root"] != observed["batched"]["root"]:  # pragma: no cover - guard
        raise AssertionError("the batched engine changed the IFMH root hash")
    if observed["naive"]["logical"] != observed["batched"]["logical"]:  # pragma: no cover
        raise AssertionError("the batched engine changed the logical hash count")
    result.parameters["engine_stats"] = observed["batched"]["engine_stats"]
    return result


def run_construction(
    n_values: Sequence[int] = (50, 100, 200),
    seed: int = 0,
    output_path: Optional[str] = CONSTRUCTION_REPORT_FILENAME,
) -> tuple[List[ExperimentResult], List[str]]:
    """Sweep the construction comparison and record the hashing trajectory.

    Returns ``(results, failures)``; an empty failure list means the largest
    scale cleared :data:`CONSTRUCTION_REDUCTION_FLOOR`.  When
    ``output_path`` is set, the trajectory (per-n logical/physical counts
    and timings for both variants, plus engine statistics) is written there
    as JSON.
    """
    results = [construction_comparison(n_records=n, seed=seed) for n in n_values]
    trajectory = []
    for n_records, result in zip(n_values, results):
        rows = {row["engine"]: row for row in result.rows}
        trajectory.append(
            {
                "n": n_records,
                "subdomains": rows["batched"]["subdomains"],
                **{
                    engine: {
                        "build_seconds": rows[engine]["build_seconds"],
                        "logical_hashes": rows[engine]["logical_hashes"],
                        "physical_hashes": rows[engine]["physical_hashes"],
                    }
                    for engine in ("naive", "batched")
                },
                "physical_reduction": rows["batched"]["physical_reduction"],
                "build_speedup": (
                    rows["naive"]["build_seconds"] / rows["batched"]["build_seconds"]
                ),
                "engine_stats": result.parameters.get("engine_stats"),
            }
        )
    headline = trajectory[-1]
    failures: List[str] = []
    if headline["physical_reduction"] < CONSTRUCTION_REDUCTION_FLOOR:
        failures.append(
            f"the batched engine reduced physical hashing only "
            f"{headline['physical_reduction']:.2f}x at n={headline['n']} "
            f"(floor {CONSTRUCTION_REDUCTION_FLOOR:.2f}x)"
        )
    if output_path is not None:
        payload = {
            "benchmark": "ifmh-construction-shared-structure",
            "seed": seed,
            "floor": CONSTRUCTION_REDUCTION_FLOOR,
            "headline_n": headline["n"],
            "headline_physical_reduction": headline["physical_reduction"],
            "trajectory": trajectory,
        }
        with open(output_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return results, failures


def fastpath_experiments(
    build_n: int = 200,
    batch_n: int = 80,
    seed: int = 0,
) -> List[ExperimentResult]:
    """Both fast-path experiments at the requested scales."""
    return [
        build_comparison(n_records=build_n, seed=seed),
        batch_comparison(n_records=batch_n, seed=seed),
    ]


def run_smoke(
    build_n: int = 120,
    batch_n: int = 60,
    construction_n: int = 60,
    seed: int = 0,
) -> tuple[List[ExperimentResult], List[str]]:
    """Reduced-scale fast-path run returning (results, regression messages).

    An empty message list means every fast path cleared its floor.
    """
    results = fastpath_experiments(build_n=build_n, batch_n=batch_n, seed=seed)
    results.append(construction_comparison(n_records=construction_n, seed=seed))
    failures: List[str] = []
    build, batch, construction = results
    build_speedup = build.rows[-1]["speedup"]
    if build_speedup < SMOKE_BUILD_SPEEDUP_FLOOR:
        failures.append(
            f"bulk build speedup {build_speedup:.2f}x below floor "
            f"{SMOKE_BUILD_SPEEDUP_FLOOR:.2f}x at n={build_n}"
        )
    batch_speedup = batch.rows[-1]["speedup"]
    if batch_speedup < SMOKE_BATCH_SPEEDUP_FLOOR:
        failures.append(
            f"execute_batch speedup {batch_speedup:.2f}x below floor "
            f"{SMOKE_BATCH_SPEEDUP_FLOOR:.2f}x at n={batch_n}"
        )
    construction_reduction = construction.rows[-1]["physical_reduction"]
    if construction_reduction < SMOKE_CONSTRUCTION_REDUCTION_FLOOR:
        failures.append(
            f"batched-engine physical-hash reduction {construction_reduction:.2f}x "
            f"below floor {SMOKE_CONSTRUCTION_REDUCTION_FLOOR:.2f}x at n={construction_n}"
        )
    return results, failures
