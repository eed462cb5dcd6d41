"""Serving-tier benchmark (``--serve``): the multi-worker front-end gate.

Four phases, one per serving claim:

1. **Workload determinism** -- the open-loop trace (Poisson arrivals, query
   mix, hot/cold weight skew) is generated twice from the same seed and
   must fingerprint identically (and differently for a different seed):
   offered load is a pure function of the seed, never of machine speed or
   worker count.

2. **Throughput scaling** -- the same unpaced (saturation) trace is pushed
   through a single-worker and an N-worker front-end, one pass of each
   per round; the round with the median N-over-one ratio must clear a
   throughput floor.  The floor is **hardware-scaled**: workers
   are OS processes, so the achievable speedup is bounded by physical
   cores, not by the worker count.  With ``effective = min(workers,
   available_cores())`` -- the affinity-aware core count of
   :mod:`repro.core.parallel`, so cgroup/affinity-limited CI runners get a
   reachable floor -- the gate demands ``min(4.0, 0.5 * effective)`` for the
   full run (i.e. the issue's 4x at 8 workers on an 8-core box) and
   ``min(2.0, 0.45 * effective)`` for the smoke gate; on a single-core
   machine, where true parallel speedup is impossible, the gate instead
   bounds the *overhead* of the multi-process path (floor
   ``SINGLE_CORE_OVERHEAD_FLOOR`` of single-worker throughput).

3. **Paced latency** -- the paced trace runs at its offered rate (chosen
   well under single-core capacity); p99 enqueue-to-verified-reply latency
   must stay under ``SERVE_P99_BOUND``, zero queries may drop, and every
   sampled answer must client-verify against the published parameters.

4. **Churn** -- mid-trace the bench broadcasts a hot swap to a freshly
   published epoch *and* deterministically crashes one worker.  Zero
   queries may drop, every answer must verify against the epoch that
   served it (entry-epoch answers against epoch 0, post-swap answers
   against epoch 1), both epochs must actually appear, and the crashed
   worker must be respawned from the artifact and serve a verified answer
   again.

``python -m repro.bench --serve`` runs the full workload and writes
``BENCH_serve.json``; ``--serve --smoke`` is the reduced CI gate (writes
``BENCH_serve_smoke.json``).
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.bench.harness import ExperimentResult
from repro.core.client import Client
from repro.core.config import SystemConfig
from repro.core.owner import DataOwner
from repro.core.parallel import available_cores
from repro.core.queries import TopKQuery
from repro.core.records import Record
from repro.crypto.signer import make_signer
from repro.serving.dispatcher import ServingFrontEnd
from repro.serving.recorder import LatencyRecorder
from repro.serving.traffic import TrafficConfig, generate_trace, run_trace
from repro.workloads.generator import WorkloadConfig, make_dataset, make_template

__all__ = [
    "SERVE_WORKERS",
    "SERVE_N_RECORDS",
    "SERVE_P99_BOUND",
    "SINGLE_CORE_OVERHEAD_FLOOR",
    "SERVE_REPORT_FILENAME",
    "SMOKE_SERVE_WORKERS",
    "SMOKE_SERVE_N_RECORDS",
    "SMOKE_SERVE_REPORT_FILENAME",
    "throughput_floor",
    "run_serve",
    "run_serve_smoke",
]

#: Full-run shape: worker count, database size, trace lengths and rate.
SERVE_WORKERS = 8
SERVE_N_RECORDS = 200
SERVE_SAT_COUNT = 300
SERVE_PACED_COUNT = 300
SERVE_RATE = 100.0
SERVE_REPORT_FILENAME = "BENCH_serve.json"

#: Reduced CI gate shape.
SMOKE_SERVE_WORKERS = 4
SMOKE_SERVE_N_RECORDS = 60
SMOKE_SERVE_SAT_COUNT = 120
SMOKE_SERVE_PACED_COUNT = 120
SMOKE_SERVE_RATE = 80.0
SMOKE_SERVE_REPORT_FILENAME = "BENCH_serve_smoke.json"

#: p99 enqueue-to-verified-reply bound for the paced phase (seconds).  The
#: offered rate is far below capacity, so a healthy front-end sits in the
#: low milliseconds; the bound only has to exclude queueing collapse while
#: tolerating a noisy shared CI machine.
SERVE_P99_BOUND = 1.0

#: Single-core throughput gate: with one physical core an N-worker
#: front-end cannot beat one worker, so the gate bounds the multi-process
#: overhead instead -- N workers must retain at least this fraction of
#: single-worker saturation throughput.
SINGLE_CORE_OVERHEAD_FLOOR = 0.5

#: Timed rounds of the throughput phase (odd, so one round is the
#: median); a round is one saturation pass of each front-end shape, back
#: to back.  One pass of the smoke trace lasts about 10 ms, short enough
#: that one scheduler stall on a shared host decides it, so the gate reads
#: the round with the median ratio.
SATURATION_ROUNDS = 15

#: Hot/cold weight-vector skew of the generated workload.
SERVE_HOT_VECTORS = 4
SERVE_COLD_VECTORS = 24
SERVE_HOT_FRACTION = 0.8


def throughput_floor(workers: int, *, smoke: bool, cores: Optional[int] = None) -> float:
    """The hardware-scaled N-worker-over-one-worker throughput floor.

    ``min(workers, cores)`` is the parallelism physically available to a
    process-per-worker front-end; demanding a fixed 4x regardless of the
    machine would make the gate unpassable on small runners and toothless
    on large ones.  On one core the returned floor is the overhead bound
    (see :data:`SINGLE_CORE_OVERHEAD_FLOOR`).
    """
    if cores is None:
        cores = available_cores()
    effective = max(1, min(workers, cores))
    if effective == 1:
        return SINGLE_CORE_OVERHEAD_FLOOR
    if smoke:
        return min(2.0, 0.45 * effective)
    return min(4.0, 0.5 * effective)


def _build_setup(n_records: int, seed: int, directory: str) -> Dict[str, object]:
    """Owner-side setup: epoch-0 artifact plus a delta-published epoch 1."""
    workload = WorkloadConfig(n_records=n_records, dimension=1, seed=seed)
    dataset = make_dataset(workload)
    template = make_template(workload)
    config = SystemConfig(scheme="one-signature", signature_algorithm="hmac")
    keypair = make_signer("hmac", rng=random.Random(seed + 99))
    owner = DataOwner(dataset, template, config=config, keypair=keypair)
    base_path = os.path.join(directory, "ads-epoch0.npz")
    owner.publish(base_path)
    low, high = workload.value_range
    rng = random.Random(seed + 17)
    inserts = [
        Record(
            record_id=n_records + position,
            values=(rng.uniform(low, high), rng.uniform(low, high)),
        )
        for position in range(2)
    ]
    owner.apply_updates(inserts=inserts, deletes=[seed % n_records])
    next_path = os.path.join(directory, "ads-epoch1.npz")
    owner.publish(next_path, base=base_path)
    return {
        "dataset": dataset,
        "template": template,
        "base_path": base_path,
        "next_path": next_path,
    }


def _determinism_phase(setup: Dict[str, object], config: TrafficConfig) -> Dict[str, object]:
    """Same seed must fingerprint identically; a different seed must not."""
    first = generate_trace(setup["dataset"], setup["template"], config)
    second = generate_trace(setup["dataset"], setup["template"], config)
    shifted = generate_trace(
        setup["dataset"],
        setup["template"],
        TrafficConfig(
            rate=config.rate,
            count=config.count,
            mix=dict(config.mix),
            hot_fraction=config.hot_fraction,
            hot_vectors=config.hot_vectors,
            cold_vectors=config.cold_vectors,
            result_size=config.result_size,
            seed=config.seed + 1,
        ),
    )
    return {
        "fingerprint": first.fingerprint(),
        "same_seed_identical": first.fingerprint() == second.fingerprint(),
        "different_seed_differs": first.fingerprint() != shifted.fingerprint(),
        "kind_counts": first.kind_counts(),
        "hot_count": first.hot_count(),
    }


def _saturation_rate(frontend: ServingFrontEnd, trace, timeout: float) -> Tuple[float, int]:
    """Unpaced saturation throughput (completed/s) of one pass of the trace."""
    tickets = run_trace(frontend, trace, paced=False)
    frontend.drain(tickets, timeout=timeout)
    recorder = LatencyRecorder()
    recorder.observe_all(tickets)
    summary = recorder.summary()
    return float(summary["achieved_rate"]), int(summary["completed"])


def _throughput_phase(
    setup: Dict[str, object], trace, workers: int, *, smoke: bool
) -> Dict[str, object]:
    """Saturation throughput of ``workers`` workers over one worker.

    Both front-ends stay up and take one untimed pass each, which moves
    most first-touch leaf work out of the timed rounds.  Then each round
    times one pass of each shape back to back, so a slow spell of the host
    falls on both; the rates and ``speedup`` are those of the round with
    the median ratio.  ``*_completed`` is the fewest queries one timed
    pass completed.
    """
    rounds: List[Tuple[float, float, float]] = []
    single_done = multi_done = len(trace.arrivals)
    with ServingFrontEnd(setup["base_path"], workers=1) as single, ServingFrontEnd(
        setup["base_path"], workers=workers
    ) as multi:
        _saturation_rate(single, trace, 120.0)
        _saturation_rate(multi, trace, 120.0)
        for _ in range(SATURATION_ROUNDS):
            single_rate, done = _saturation_rate(single, trace, 120.0)
            single_done = min(single_done, done)
            multi_rate, done = _saturation_rate(multi, trace, 120.0)
            multi_done = min(multi_done, done)
            speedup = multi_rate / single_rate if single_rate > 0 else 0.0
            rounds.append((speedup, single_rate, multi_rate))
    speedup, single_rate, multi_rate = sorted(rounds)[len(rounds) // 2]
    floor = throughput_floor(workers, smoke=smoke)
    return {
        "workers": workers,
        "cores": available_cores(),
        "rounds": SATURATION_ROUNDS,
        "single_rate": single_rate,
        "multi_rate": multi_rate,
        "speedup": speedup,
        "floor": floor,
        "floor_met": speedup >= floor,
        "single_completed": single_done,
        "multi_completed": multi_done,
    }


def _paced_phase(
    setup: Dict[str, object], trace, workers: int
) -> Dict[str, object]:
    """Paced open-loop run: latency, drops and 100% sampled verification."""
    client = Client.from_artifact(setup["base_path"])
    with ServingFrontEnd(setup["base_path"], workers=workers) as frontend:
        tickets = run_trace(frontend, trace, paced=True)
        frontend.drain(tickets, timeout=120.0)
        stats = frontend.worker_stats()
    recorder = LatencyRecorder()
    recorder.observe_all(tickets)
    summary = recorder.summary(offered_rate=trace.config.rate, worker_stats=stats)
    verified = sum(
        1
        for ticket in tickets
        if ticket.reply is not None
        and client.verify(
            ticket.reply.query,
            ticket.reply.result,
            ticket.reply.verification_object,
        ).is_valid
    )
    summary["sampled"] = len(tickets)
    summary["verified"] = verified
    return summary


def _churn_phase(
    setup: Dict[str, object], trace, workers: int
) -> Dict[str, object]:
    """Mid-trace hot swap plus a deterministic worker crash; zero drops."""
    clients = {
        0: Client.from_artifact(setup["base_path"]),
        1: Client.from_artifact(setup["next_path"]),
    }
    crash_worker = workers - 1
    swap_outcome: Dict[str, object] = {}
    with ServingFrontEnd(setup["base_path"], workers=workers) as frontend:

        def inject_swap() -> None:
            broadcast = frontend.broadcast_swap(
                setup["next_path"], base=setup["base_path"]
            )
            swap_outcome["new_epoch"] = broadcast.new_epoch
            swap_outcome["complete"] = broadcast.complete
            swap_outcome["swapped"] = list(broadcast.swapped)
            swap_outcome["errors"] = list(broadcast.errors)

        def inject_crash() -> None:
            # Paced arrivals find the worker idle, so one query goes straight
            # to it behind the crash message: the worker dies owing it and
            # recovery has to requeue it to a live worker.
            frontend.inject_crash(crash_worker)
            frontend.execute_on(crash_worker, trace.arrivals[0].query)

        actions = {
            len(trace) // 4: inject_crash,
            len(trace) // 2: inject_swap,
        }
        tickets = run_trace(frontend, trace, paced=True, actions=actions)
        frontend.drain(tickets, timeout=120.0)
        requeued = frontend.requeued
        # The respawned worker must serve a verified answer again; dispatch
        # to it directly so the proof does not depend on routing luck.  It
        # may still be cold-starting right after the drain.
        frontend.wait_ready(crash_worker, timeout=60.0)
        probe = frontend.execute_on(
            crash_worker, TopKQuery(weights=trace.arrivals[0].query.weights, k=2)
        )
        probe_valid = (
            clients[min(probe.epoch, 1)]
            .verify(probe.query, probe.result, probe.verification_object)
            .is_valid
        )
        stats = frontend.worker_stats()
    dropped = sum(1 for ticket in tickets if not ticket.done)
    errored = sum(1 for ticket in tickets if ticket.error is not None)
    by_epoch: Dict[int, int] = {}
    verified = 0
    for ticket in tickets:
        if ticket.reply is None:
            continue
        epoch = ticket.reply.epoch
        by_epoch[epoch] = by_epoch.get(epoch, 0) + 1
        verifier = clients.get(epoch)
        if verifier is not None and verifier.verify(
            ticket.reply.query, ticket.reply.result, ticket.reply.verification_object
        ).is_valid:
            verified += 1
    respawns = sum(int(stat["respawns"]) for stat in stats.values())
    return {
        "issued": len(tickets),
        "dropped": dropped,
        "errored": errored,
        "verified": verified,
        "by_epoch": {str(epoch): count for epoch, count in sorted(by_epoch.items())},
        "requeued": requeued,
        "respawns": respawns,
        "crashed_worker": crash_worker,
        "crashed_worker_served_again": probe_valid,
        "swap": swap_outcome,
    }


def run_serve(
    *,
    workers: int = SERVE_WORKERS,
    n_records: int = SERVE_N_RECORDS,
    sat_count: int = SERVE_SAT_COUNT,
    paced_count: int = SERVE_PACED_COUNT,
    rate: float = SERVE_RATE,
    seed: int = 0,
    smoke: bool = False,
    output_path: Optional[str] = SERVE_REPORT_FILENAME,
) -> Tuple[List[ExperimentResult], List[str]]:
    """Run the serving benchmark and gate the front-end claims.

    Returns ``(results, failures)``; an empty failure list means the
    workload generator is seed-deterministic, N workers cleared the
    hardware-scaled throughput floor, paced p99 stayed bounded with zero
    drops and 100% of sampled answers verified, and the churn phase (mid-run
    epoch swap plus a worker crash) dropped nothing, verified everything
    against the serving epoch and respawned the crashed worker back into
    service.  When ``output_path`` is set the outcome is written there as
    JSON.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as directory:
        setup = _build_setup(n_records, seed, directory)
        sat_config = TrafficConfig(
            rate=rate,
            count=sat_count,
            hot_fraction=SERVE_HOT_FRACTION,
            hot_vectors=SERVE_HOT_VECTORS,
            cold_vectors=SERVE_COLD_VECTORS,
            seed=seed + 1,
        )
        paced_config = TrafficConfig(
            rate=rate,
            count=paced_count,
            hot_fraction=SERVE_HOT_FRACTION,
            hot_vectors=SERVE_HOT_VECTORS,
            cold_vectors=SERVE_COLD_VECTORS,
            seed=seed + 2,
        )
        determinism = _determinism_phase(setup, sat_config)
        sat_trace = generate_trace(setup["dataset"], setup["template"], sat_config)
        paced_trace = generate_trace(setup["dataset"], setup["template"], paced_config)
        throughput = _throughput_phase(setup, sat_trace, workers, smoke=smoke)
        paced = _paced_phase(setup, paced_trace, workers)
        churn = _churn_phase(setup, paced_trace, workers)

    failures: List[str] = []
    if not determinism["same_seed_identical"]:
        failures.append(
            "same-seed trace generation diverged; the open-loop workload "
            "must be a pure function of the seed"
        )
    if not determinism["different_seed_differs"]:
        failures.append(
            "different seeds produced identical traces; the fingerprint is "
            "not covering the schedule"
        )
    if not throughput["floor_met"]:
        failures.append(
            f"{throughput['workers']}-worker saturation throughput is only "
            f"{throughput['speedup']:.2f}x one worker in the median of "
            f"{throughput['rounds']} rounds "
            f"({throughput['multi_rate']:.0f} vs {throughput['single_rate']:.0f} q/s) "
            f"on {throughput['cores']} core(s); the hardware-scaled floor is "
            f"{throughput['floor']:.2f}x"
        )
    p99 = paced["latency"]["p99"] if paced["latency"] else float("inf")
    if p99 > SERVE_P99_BOUND:
        failures.append(
            f"paced p99 latency {p99 * 1000:.1f}ms exceeds the "
            f"{SERVE_P99_BOUND * 1000:.0f}ms bound; the front-end is "
            "queueing far beyond its offered load"
        )
    if paced["dropped"]:
        failures.append(
            f"{paced['dropped']} queries dropped in the paced phase; an "
            "accepted query must always resolve"
        )
    if paced["verified"] != paced["sampled"]:
        failures.append(
            f"only {paced['verified']} of {paced['sampled']} sampled answers "
            "client-verified; every served answer must verify"
        )
    if churn["dropped"] or churn["errored"]:
        failures.append(
            f"churn phase dropped {churn['dropped']} and errored "
            f"{churn['errored']} queries across the epoch swap and worker "
            "crash; recovery must requeue, never drop"
        )
    if churn["verified"] != churn["issued"]:
        failures.append(
            f"only {churn['verified']} of {churn['issued']} churn answers "
            "verified against the epoch that served them"
        )
    if not churn["swap"].get("complete", False):
        failures.append(
            f"the mid-run epoch swap did not complete on every worker: "
            f"{churn['swap']}"
        )
    if len(churn["by_epoch"]) < 2:
        failures.append(
            f"churn answers came from epochs {sorted(churn['by_epoch'])}; the "
            "swap must land mid-load so both epochs serve"
        )
    if not churn["respawns"]:
        failures.append(
            "the injected worker crash never triggered a respawn; crash "
            "recovery was not exercised"
        )
    if not churn["crashed_worker_served_again"]:
        failures.append(
            f"worker {churn['crashed_worker']} did not serve a verified "
            "answer after its respawn; recovery must restore full capacity"
        )

    result = ExperimentResult(
        experiment_id="serve-frontend",
        title="Multi-worker serving under open-loop load, hot swap and crashes",
        parameters={
            "seed": seed,
            "n": n_records,
            "workers": workers,
            "cores": throughput["cores"],
            "rate": rate,
            "floor": throughput["floor"],
            "p99_bound": SERVE_P99_BOUND,
        },
        columns=(
            "single_qps",
            "multi_qps",
            "speedup",
            "p99_ms",
            "dropped",
            "verified",
            "churn_dropped",
            "churn_verified",
            "respawns",
        ),
    )
    result.add_row(
        single_qps=round(throughput["single_rate"], 1),
        multi_qps=round(throughput["multi_rate"], 1),
        speedup=round(throughput["speedup"], 2),
        p99_ms=round(p99 * 1000, 2),
        dropped=paced["dropped"],
        verified=f"{paced['verified']}/{paced['sampled']}",
        churn_dropped=churn["dropped"],
        churn_verified=f"{churn['verified']}/{churn['issued']}",
        respawns=churn["respawns"],
    )

    if output_path is not None:
        payload = {
            "benchmark": "serve-frontend",
            "seed": seed,
            "n": n_records,
            "workers": workers,
            "smoke": smoke,
            "p99_bound": SERVE_P99_BOUND,
            "determinism": determinism,
            "throughput": throughput,
            "paced": paced,
            "churn": churn,
        }
        with open(output_path, "w", encoding="utf-8") as stream:
            json.dump(payload, stream, indent=2)
            stream.write("\n")
    return [result], failures


def run_serve_smoke(
    seed: int = 0, output_path: Optional[str] = SMOKE_SERVE_REPORT_FILENAME
) -> Tuple[List[ExperimentResult], List[str]]:
    """Reduced serving gate for CI (same code path and gates)."""
    return run_serve(
        workers=SMOKE_SERVE_WORKERS,
        n_records=SMOKE_SERVE_N_RECORDS,
        sat_count=SMOKE_SERVE_SAT_COUNT,
        paced_count=SMOKE_SERVE_PACED_COUNT,
        rate=SMOKE_SERVE_RATE,
        seed=seed,
        smoke=True,
        output_path=output_path,
    )
