"""Incremental-update benchmark (``--update``): changed-path vs full rebuild.

The point of the update subsystem (:mod:`repro.ifmh.updates`) is that the
owner's long-lived ADS absorbs a single-record insert or delete without
paying the full reconstruction again.  This benchmark quantifies that: at
each database size the owner-side build is timed (best-of-``repeats``,
``gc.collect()`` before every run -- the shared timing discipline of all
wall-clock gates), then alternating single-record inserts and deletes are
applied and timed the same way.  After each update the owner publishes a
delta artifact against its epoch-0 base, timed the same way too, with the
delta's size and the process's peak RSS (``ru_maxrss``) before and after
the publishes recorded alongside.  A correctness guard rebuilds the final
dataset from scratch at the final epoch and asserts the updated ADS is
bit-identical (root hash, root signature, one query's verification object
and per-query counters) before any number is reported.

``python -m repro.bench --update`` runs n = 1000 and writes
``BENCH_update.json``, gating single-record updates (both the insert and
the delete) >= 10x faster than a full rebuild; ``--update --smoke`` is the
reduced-n CI version of the same gate.  Builds use the fast ``hmac``
signer with a pre-generated key so the measured costs are ADS maintenance,
not key generation.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.queries import TopKQuery
from repro.core.records import Record
from repro.core.server import Server
from repro.crypto.signer import make_signer
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

__all__ = [
    "UPDATE_N_VALUES",
    "UPDATE_SPEEDUP_FLOOR",
    "UPDATE_REPEATS",
    "UPDATE_REPORT_FILENAME",
    "SMOKE_UPDATE_N_VALUES",
    "SMOKE_UPDATE_SPEEDUP_FLOOR",
    "SMOKE_UPDATE_REPORT_FILENAME",
    "update_point",
    "run_update",
    "run_update_smoke",
]

#: Database sizes of the full ``--update`` sweep.
UPDATE_N_VALUES = (1000,)
#: Speedup both the single-record insert and delete must clear over a full
#: rebuild at the largest n (the acceptance gate).
UPDATE_SPEEDUP_FLOOR = 10.0
#: Best-of-``UPDATE_REPEATS`` timing with ``gc.collect()`` between runs.
UPDATE_REPEATS = 3
#: Where ``python -m repro.bench --update`` records its trajectory.
UPDATE_REPORT_FILENAME = "BENCH_update.json"

#: Reduced-n configuration used by ``--update --smoke`` (CI).  The floor is
#: conservative: at a few hundred records the changed-path update's fixed
#: vectorization overheads are not amortized as far as at n = 1000.
SMOKE_UPDATE_N_VALUES = (240,)
SMOKE_UPDATE_SPEEDUP_FLOOR = 2.0
SMOKE_UPDATE_REPORT_FILENAME = "BENCH_update_smoke.json"


def _peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_publish(owner: DataOwner, path: str, base: str) -> float:
    """Seconds one delta publish takes (after a ``gc.collect()``)."""
    gc.collect()
    started = time.perf_counter()
    owner.publish(path, base=base)
    return time.perf_counter() - started


def update_point(
    n_records: int,
    seed: int = 0,
    repeats: int = UPDATE_REPEATS,
) -> Dict[str, object]:
    """One sweep point: full rebuild vs single-record insert and delete.

    The owner alternates inserting and deleting a fresh record ``repeats``
    times each (every step is a complete single-record update: new epoch,
    new root, new signature); the reported times are the best insert and
    the best delete.  The built owner is published once, untimed, as the
    epoch-0 base; each update is then published as a delta against it,
    and the best publish time after an insert and after a delete are
    reported with the last deltas' sizes.  Before timings are reported,
    the final state must be bit-identical to a from-scratch build of the
    final dataset at the same epoch.
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

    rng = random.Random(seed + 7)
    low, high = workload.value_range
    insert_seconds = float("inf")
    delete_seconds = float("inf")
    insert_publish_seconds = float("inf")
    delete_publish_seconds = float("inf")
    strategies = set()
    next_id = n_records
    with tempfile.TemporaryDirectory() as directory:
        base = os.path.join(directory, "epoch0.npz")
        delta = os.path.join(directory, "delta.npz")
        owner.publish(base)
        peak_rss_before = _peak_rss_mb()
        for _ in range(repeats):
            record = Record(
                record_id=next_id,
                values=(rng.uniform(low, high), rng.uniform(low, high)),
                label=f"update-{next_id}",
            )
            gc.collect()
            started = time.perf_counter()
            report = owner.insert(record)
            insert_seconds = min(insert_seconds, time.perf_counter() - started)
            strategies.add(report.strategy)
            insert_publish_seconds = min(
                insert_publish_seconds, _timed_publish(owner, delta, base)
            )
            insert_delta_bytes = os.path.getsize(delta)

            victim = rng.choice(owner.dataset.records).record_id
            gc.collect()
            started = time.perf_counter()
            report = owner.delete(victim)
            delete_seconds = min(delete_seconds, time.perf_counter() - started)
            strategies.add(report.strategy)
            delete_publish_seconds = min(
                delete_publish_seconds, _timed_publish(owner, delta, base)
            )
            delete_delta_bytes = os.path.getsize(delta)
            next_id += 1
        peak_rss_after = _peak_rss_mb()

    # Correctness guard: the speedup must never come from computing
    # something else.  A from-scratch build of the final dataset at the
    # final epoch must match the updated ADS bit for bit.
    fresh = DataOwner(
        owner.dataset, template, config=config, keypair=keypair, epoch=owner.epoch
    )
    if fresh.ads.root_hash != owner.ads.root_hash:  # pragma: no cover - guard
        raise AssertionError("incremental update diverged from a fresh rebuild")
    if fresh.ads.root_signature != owner.ads.root_signature:  # pragma: no cover
        raise AssertionError("incremental update produced a different signature")
    query = TopKQuery(weights=(0.5,), k=min(5, len(owner.dataset)))
    updated_execution = Server(owner.outsource()).execute(query)
    fresh_execution = Server(fresh.outsource()).execute(query)
    if updated_execution.verification_object != fresh_execution.verification_object:
        raise AssertionError(  # pragma: no cover - correctness guard
            "updated ADS produced a different verification object than a rebuild"
        )
    if updated_execution.counters.snapshot() != fresh_execution.counters.snapshot():
        raise AssertionError(  # pragma: no cover - correctness guard
            "updated ADS produced different per-query counters than a rebuild"
        )

    point: Dict[str, object] = {
        "n": n_records,
        "subdomains": owner.ads.subdomain_count,
        "epoch": owner.epoch,
        "build_seconds": build_seconds,
        "insert_seconds": insert_seconds,
        "delete_seconds": delete_seconds,
        "insert_speedup": build_seconds / insert_seconds,
        "delete_speedup": build_seconds / delete_seconds,
        "insert_publish_seconds": insert_publish_seconds,
        "delete_publish_seconds": delete_publish_seconds,
        "insert_delta_bytes": insert_delta_bytes,
        "delete_delta_bytes": delete_delta_bytes,
        "peak_rss_mb_before_publishes": peak_rss_before,
        "peak_rss_mb_after_publishes": peak_rss_after,
        "strategies": sorted(strategies),
    }
    gc.collect()
    return point


def run_update(
    n_values: Sequence[int] = UPDATE_N_VALUES,
    seed: int = 0,
    repeats: int = UPDATE_REPEATS,
    speedup_floor: float = UPDATE_SPEEDUP_FLOOR,
    output_path: Optional[str] = UPDATE_REPORT_FILENAME,
) -> Tuple[List[ExperimentResult], List[str]]:
    """Sweep the update benchmark and gate the changed-path speedup.

    Returns ``(results, failures)``; an empty failure list means both the
    single-record insert and the single-record delete cleared
    ``speedup_floor`` at the largest scale.  When ``output_path`` is set
    the trajectory is written there as JSON.
    """
    result = ExperimentResult(
        experiment_id="incremental-update",
        title="Single-record updates: changed-path rebuild vs full reconstruction",
        parameters={"seed": seed, "repeats": repeats, "floor": speedup_floor},
        columns=(
            "n",
            "build_seconds",
            "insert_seconds",
            "insert_speedup",
            "delete_seconds",
            "delete_speedup",
            "insert_publish_seconds",
            "delete_publish_seconds",
            "subdomains",
        ),
    )
    trajectory: List[Dict[str, object]] = []
    for n_records in n_values:
        point = update_point(n_records, seed=seed, repeats=repeats)
        trajectory.append(point)
        result.add_row(
            n=point["n"],
            build_seconds=point["build_seconds"],
            insert_seconds=point["insert_seconds"],
            insert_speedup=point["insert_speedup"],
            delete_seconds=point["delete_seconds"],
            delete_speedup=point["delete_speedup"],
            insert_publish_seconds=point["insert_publish_seconds"],
            delete_publish_seconds=point["delete_publish_seconds"],
            subdomains=point["subdomains"],
        )

    headline = trajectory[-1]
    failures: List[str] = []
    for kind in ("insert", "delete"):
        speedup = headline[f"{kind}_speedup"]
        if speedup < speedup_floor:
            failures.append(
                f"single-record {kind} is only {speedup:.2f}x faster than a full "
                f"rebuild at n={headline['n']} (floor {speedup_floor:.2f}x)"
            )
    if "rebuild" in headline["strategies"]:
        failures.append(
            "an update fell back to the full-rebuild path on the benchmark "
            "workload; the gate must measure the changed-path rebuild"
        )
    if output_path is not None:
        payload = {
            "benchmark": "ifmh-incremental-update",
            "seed": seed,
            "repeats": repeats,
            "floor": speedup_floor,
            "headline_n": headline["n"],
            "headline_insert_speedup": headline["insert_speedup"],
            "headline_delete_speedup": headline["delete_speedup"],
            "trajectory": trajectory,
        }
        with open(output_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return [result], failures


def run_update_smoke(
    seed: int = 0, output_path: Optional[str] = SMOKE_UPDATE_REPORT_FILENAME
) -> Tuple[List[ExperimentResult], List[str]]:
    """Reduced-n update gate for CI (same code path, seconds not minutes)."""
    return run_update(
        n_values=SMOKE_UPDATE_N_VALUES,
        seed=seed,
        repeats=UPDATE_REPEATS,
        speedup_floor=SMOKE_UPDATE_SPEEDUP_FLOOR,
        output_path=output_path,
    )
