"""Cold-start benchmark (``--coldstart``): build vs load-from-artifact.

The point of publishable ADS artifacts (:mod:`repro.core.artifact`) is that
a server restart costs a file load instead of an ADS reconstruction.  This
benchmark quantifies that: at each database size the owner-side build is
timed (best-of-``repeats``, ``gc.collect()`` before every run -- the shared
timing discipline of all wall-clock gates), the ADS is published once, and
:meth:`repro.core.server.Server.from_artifact` is timed the same way.  A
correctness guard asserts that the loaded server answers a query with a
verification object and cost counters bit-identical to the in-process
build before any number is reported.

After the load, the cold server answers ``COLDSTART_QUERIES`` top-k
queries, each with its own random weight vector, so almost every one is
the first touch of its subdomain (region replay, FMH view attach, range
proof).  The median and p90 of :meth:`repro.core.server.Server.execute`
and the growth of the process's resident set across those queries are
reported; they are not gated.

``python -m repro.bench --coldstart`` sweeps n ∈ {500, 1000} and writes
``BENCH_coldstart.json``, gating load ≥ 10x faster than rebuild at
n = 1000; ``--coldstart --smoke`` is the reduced-n CI version of the same
gate.  Builds use the fast ``hmac`` signer with a pre-generated key so the
measured rebuild cost is ADS construction, not key generation.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import TopKQuery
from repro.core.records import UtilityTemplate
from repro.core.server import Server
from repro.crypto.signer import make_signer
from repro.workloads.generator import (
    WorkloadConfig,
    make_dataset,
    make_template,
    make_weight_vector,
)

__all__ = [
    "COLDSTART_N_VALUES",
    "COLDSTART_QUERIES",
    "COLDSTART_SPEEDUP_FLOOR",
    "COLDSTART_REPEATS",
    "COLDSTART_REPORT_FILENAME",
    "SMOKE_COLDSTART_N_VALUES",
    "SMOKE_COLDSTART_SPEEDUP_FLOOR",
    "SMOKE_COLDSTART_REPORT_FILENAME",
    "coldstart_point",
    "run_coldstart",
    "run_coldstart_smoke",
]

#: Database sizes of the full ``--coldstart`` sweep.
COLDSTART_N_VALUES = (500, 1000)
#: Load-vs-rebuild speedup the artifact path must clear at the largest n
#: (the acceptance gate: loading is >= 10x faster than rebuilding).
COLDSTART_SPEEDUP_FLOOR = 10.0
#: Best-of-``COLDSTART_REPEATS`` timing with ``gc.collect()`` between runs.
COLDSTART_REPEATS = 3
#: Where ``python -m repro.bench --coldstart`` records its trajectory.
COLDSTART_REPORT_FILENAME = "BENCH_coldstart.json"
#: Fresh-weight queries sent to each cold-started server (first touches).
COLDSTART_QUERIES = 200

#: Reduced-n configuration used by ``--coldstart --smoke`` (CI).  The floor
#: is conservative: artifact loading has a fixed per-file cost that the
#: small smoke builds do not amortize as far as the full sweep does.
SMOKE_COLDSTART_N_VALUES = (120, 240)
SMOKE_COLDSTART_SPEEDUP_FLOOR = 2.0
SMOKE_COLDSTART_REPORT_FILENAME = "BENCH_coldstart_smoke.json"


def coldstart_point(
    n_records: int,
    seed: int = 0,
    repeats: int = COLDSTART_REPEATS,
    artifact_path: Optional[str] = None,
) -> Dict[str, object]:
    """One sweep point: owner-side build vs ``Server.from_artifact``.

    Before timings are reported, the loaded server must answer a top-k
    query with records, verification object and per-query counters
    bit-identical to a server wired to the in-process build, and the
    loaded structures' own hash counters must be zero (nothing re-hashed).
    """
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    config = SystemConfig(scheme="one-signature", signature_algorithm="hmac")
    keypair = make_signer("hmac", rng=random.Random(seed + 99))

    build_seconds = float("inf")
    owner = None
    for _ in range(repeats):
        owner = None  # release the previous ADS before timing the next build
        gc.collect()
        started = time.perf_counter()
        owner = DataOwner(dataset, template, config=config, keypair=keypair)
        build_seconds = min(build_seconds, time.perf_counter() - started)

    cleanup = artifact_path is None
    if artifact_path is None:
        handle, artifact_path = tempfile.mkstemp(suffix=".npz", prefix="coldstart-")
        os.close(handle)
    try:
        owner.publish(artifact_path)
        artifact_bytes = os.path.getsize(artifact_path)

        load_seconds = float("inf")
        server = None
        # The owner built above stays alive for the correctness guard and
        # holds millions of GC-tracked objects; frozen, they are left out
        # of the collections the load triggers, so the timing is the load's.
        gc.collect()
        gc.freeze()
        try:
            for _ in range(repeats):
                server = None
                gc.collect()
                started = time.perf_counter()
                server = Server.from_artifact(artifact_path)
                load_seconds = min(load_seconds, time.perf_counter() - started)
        finally:
            gc.unfreeze()
    finally:
        if cleanup:
            os.unlink(artifact_path)

    first_touch = _first_touch_queries(server, template, n_records, seed)

    # Correctness guard: the speedup must never come from loading something
    # else.  One query through both servers, bit-identical end to end.
    query = TopKQuery(weights=(0.5,), k=min(5, n_records))
    built = Server(owner.outsource()).execute(query)
    loaded = server.execute(query)
    if built.result != loaded.result:  # pragma: no cover - correctness guard
        raise AssertionError("loaded server returned different records than the build")
    if built.verification_object != loaded.verification_object:  # pragma: no cover
        raise AssertionError("loaded server produced a different verification object")
    if built.counters.snapshot() != loaded.counters.snapshot():  # pragma: no cover
        raise AssertionError("loaded server produced different per-query counters")
    if server.ads.counters.hash_operations != 0:  # pragma: no cover
        raise AssertionError("artifact load performed ADS hashing")

    point: Dict[str, object] = {
        "n": n_records,
        "subdomains": owner.ads.subdomain_count,
        "build_seconds": build_seconds,
        "load_seconds": load_seconds,
        "speedup": build_seconds / load_seconds,
        "artifact_bytes": artifact_bytes,
        **first_touch,
    }
    gc.collect()
    return point


def _resident_mb() -> float:
    """Current resident set size of this process (Linux ``/proc/self/statm``)."""
    with open("/proc/self/statm", encoding="ascii") as stream:
        resident_pages = int(stream.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _first_touch_queries(
    server: Server, template: UtilityTemplate, n_records: int, seed: int
) -> Dict[str, float]:
    """Time ``COLDSTART_QUERIES`` fresh-weight top-k queries on a cold server."""
    rng = random.Random(seed + 7)
    queries = [
        TopKQuery(weights=make_weight_vector(template, rng), k=min(10, n_records))
        for _ in range(COLDSTART_QUERIES)
    ]
    gc.collect()
    resident_before = _resident_mb()
    execute_ms = []
    for query in queries:
        started = time.perf_counter()
        server.execute(query)
        execute_ms.append((time.perf_counter() - started) * 1e3)
    gc.collect()
    return {
        "query_p50_ms": statistics.median(execute_ms),
        "query_p90_ms": statistics.quantiles(execute_ms, n=10)[-1],
        "query_rss_growth_mb": _resident_mb() - resident_before,
    }


def run_coldstart(
    n_values: Sequence[int] = COLDSTART_N_VALUES,
    seed: int = 0,
    repeats: int = COLDSTART_REPEATS,
    speedup_floor: float = COLDSTART_SPEEDUP_FLOOR,
    output_path: Optional[str] = COLDSTART_REPORT_FILENAME,
) -> Tuple[List[ExperimentResult], List[str]]:
    """Sweep the cold-start benchmark and gate the load speedup.

    Returns ``(results, failures)``; an empty failure list means the
    largest scale cleared ``speedup_floor``.  When ``output_path`` is set
    the trajectory is written there as JSON.
    """
    result = ExperimentResult(
        experiment_id="coldstart",
        title="Server cold start: rebuild from scratch vs load published artifact",
        parameters={"seed": seed, "repeats": repeats, "floor": speedup_floor},
        columns=(
            "n",
            "build_seconds",
            "load_seconds",
            "speedup",
            "artifact_bytes",
            "subdomains",
            "query_p50_ms",
            "query_p90_ms",
            "query_rss_growth_mb",
        ),
    )
    trajectory: List[Dict[str, object]] = []
    for n_records in n_values:
        point = coldstart_point(n_records, seed=seed, repeats=repeats)
        trajectory.append(point)
        result.add_row(**point)

    headline = trajectory[-1]
    failures: List[str] = []
    if headline["speedup"] < speedup_floor:
        failures.append(
            f"artifact load is only {headline['speedup']:.2f}x faster than a rebuild "
            f"at n={headline['n']} (floor {speedup_floor:.2f}x)"
        )
    if output_path is not None:
        payload = {
            "benchmark": "ads-artifact-coldstart",
            "seed": seed,
            "repeats": repeats,
            "floor": speedup_floor,
            "headline_n": headline["n"],
            "headline_speedup": headline["speedup"],
            "queries": COLDSTART_QUERIES,
            "trajectory": trajectory,
        }
        with open(output_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return [result], failures


def run_coldstart_smoke(
    seed: int = 0, output_path: Optional[str] = SMOKE_COLDSTART_REPORT_FILENAME
) -> Tuple[List[ExperimentResult], List[str]]:
    """Reduced-n cold-start gate for CI (same code path, seconds not minutes)."""
    return run_coldstart(
        n_values=SMOKE_COLDSTART_N_VALUES,
        seed=seed,
        repeats=COLDSTART_REPEATS,
        speedup_floor=SMOKE_COLDSTART_SPEEDUP_FLOOR,
        output_path=output_path,
    )
