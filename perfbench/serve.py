"""``serve``: one client in a closed loop through ``ServingFrontEnd``, 1 worker, n = 300.

The only workload through the dispatcher, its queues and a worker process.
The client submits one query, waits for its reply, verifies it and submits
the next.  Queries come from :func:`repro.serving.generate_trace` (its
arrival times are not used): 80 % use 4 hot weight vectors, 20 % use 32
cold ones.  The worker is warmed on every vector first, so leaves are
materialised and the score cache hits: the batcher's linger, the pump, the
queues, IPC and worker memory show here, first-touch costs do not.  A
request's latency runs from ``submit`` until its reply reaches the
front-end (the ticket's ``enqueued_at`` and ``completed_at`` stamps); the
client's own verification runs between requests, outside it.
``latency_p90_ms`` is the median, over blocks of ``block_requests``
requests, of each block's p90: a few seconds in which the host deschedules
the front-end's threads then do not set the whole run's figure.

A closed loop rather than an open one: Poisson arrivals into the front-end
put the load generator's scheduling into every latency, and on a 2-vCPU
host that moved the p90 by 40-60 % from run to run (see
``perfbench/evidence/README.md``).  With one request in flight the latency
is the front-end's own path.

One worker, not one per core: the client's process (client, pump and
collector threads) needs a core of its own.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import repro.serving.dispatcher as dispatcher_module
from repro.core.client import Client
from repro.core.errors import QueryProcessingError
from repro.serving import ServingFrontEnd, TrafficConfig, generate_trace

from perfbench import ops
from perfbench.common import (
    MB,
    Tally,
    WorkDir,
    mean,
    median_block_p90,
    percentile,
    pss_mb,
    require_samples,
    verdict_reason,
)
from perfbench.inputs import make_inputs
from perfbench.layers import overhead_pct, query_path_values, setup_values
from perfbench.metrics import Outcome
from perfbench.owner_setup import in_child
from perfbench.tracing import (
    Tracer,
    layer_hooks,
    merge_summaries,
    read_worker_dumps,
    traced_worker_main,
    verifier_hook,
)


@dataclass(frozen=True)
class Shape:
    n_records: int = 300
    workers: int = 1
    hot_fraction: float = 0.8
    hot_vectors: int = 4
    cold_vectors: int = 32
    setup_reps: int = 3
    key_bits: int = 2048
    #: Queries planned per second of window: a ceiling well above today's rate.
    plan_rate: float = 1000.0
    #: Seconds a request may wait for its reply before it counts as timed out.
    reply_timeout: float = 30.0
    #: Requests per block of ``median_block_p90``.
    block_requests: int = 500


@dataclass
class Window:
    """What one closed-loop window measured; seconds throughout."""

    latencies: List[float] = field(default_factory=list)
    queue_delays: List[float] = field(default_factory=list)
    transits: List[float] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)


def worker_pids() -> List[int]:
    return [
        child.pid
        for child in multiprocessing.active_children()
        if child.name.startswith("serving-worker-")
    ]


def warm(frontend: ServingFrontEnd, client: Client, queries: Sequence, tally: Tally) -> None:
    """Each worker serves every weight vector once; each answer is verified."""
    for worker_id in range(frontend.workers):
        for query in queries:
            tally.attempt()
            try:
                reply = frontend.execute_on(worker_id, query)
            except QueryProcessingError as err:
                tally.fail(f"warm-up on worker {worker_id}: {err}")
                continue
            result, vo = ops.decode(ops.encode(reply.result, reply.verification_object))
            report = client.verify(query, result, vo)
            if not report.is_valid:
                tally.fail("warm-up " + verdict_reason(report))


def settle() -> None:
    """Collect, then exempt everything alive from later collections.

    The set-up leaves a large heap in the client's process, which also runs
    the front-end's threads; without this, each full collection in the
    window walks all of it while a request waits.  :func:`run` unfreezes
    when it ends.
    """
    gc.collect()
    gc.freeze()


def closed_loop(
    frontend: ServingFrontEnd,
    client: Client,
    queries: Sequence,
    first: int,
    seconds: float,
    tally: Tally,
    timeout: float,
    tracer=None,
) -> Window:
    """Serve ``queries[first:]`` one at a time for ``seconds`` (at least one).

    An error, a missed ``timeout``, a rejected verification or a wrong
    epoch is a failed operation and never a latency sample.
    """
    window = Window()
    deadline = time.perf_counter() + seconds
    position = first
    while position < len(queries) and (position == first or time.perf_counter() < deadline):
        query = queries[position]
        if tracer is not None:
            tracer.request = position
        position += 1
        tally.attempt()
        ticket = frontend.submit(query)
        if not ticket.wait(timeout):
            tally.fail("timed out (no reply)")
            continue
        if ticket.error is not None:
            tally.fail(f"worker error: {ticket.error}")
            continue
        reply = ticket.reply
        blob = ops.encode(reply.result, reply.verification_object)
        result, vo = ops.decode(blob)
        report = client.verify(query, result, vo)
        if not report.is_valid:
            tally.fail(verdict_reason(report))
        elif reply.epoch != client.parameters.epoch:
            tally.fail(f"served epoch {reply.epoch}, expected {client.parameters.epoch}")
        else:
            window.latencies.append(ticket.completed_at - ticket.enqueued_at)
            window.queue_delays.append(ticket.dispatched_at - ticket.enqueued_at)
            window.transits.append(ticket.completed_at - ticket.dispatched_at)
            window.sizes.append(len(blob))
    return window


def stat_totals(frontend: ServingFrontEnd) -> Dict[str, float]:
    """``worker_stats()`` summed over the workers."""
    keys = ("served", "batches", "busy_seconds", "respawns")
    rows = frontend.worker_stats().values()
    return {key: sum(row[key] for row in rows) for key in keys}


def hop_values(
    frontend: ServingFrontEnd, before: Dict[str, float], window: Window
) -> Dict[str, float]:
    """Serving hops, in seconds, from the tickets' stamps and ``worker_stats()``.

    ``before`` holds the totals at the start of the window, so the warm-up
    does not count.
    """
    after = stat_totals(frontend)
    served = {key: after[key] - before[key] for key in after}
    service_s = served["busy_seconds"] / served["served"]
    return {
        "serving.queue_delay_p50_ms": percentile(window.queue_delays, 50),
        "serving.worker_service_ms": service_s,
        "serving.reply_transit_ms": mean(window.transits) - service_s,
        "serving.batch_size_mean": served["served"] / served["batches"],
        "serving.requeued": frontend.requeued,
        "serving.respawns": after["respawns"],
        "serving.latency_p99_ms": percentile(window.latencies, 99),
        "core.query_p50_ms": percentile(window.latencies, 50),
    }


def run(seed: int, seconds: float, trace: bool, shape: Shape = Shape()) -> Outcome:
    try:
        return _run(seed, seconds, trace, shape)
    finally:
        gc.unfreeze()


def _run(seed: int, seconds: float, trace: bool, shape: Shape) -> Outcome:
    tally = Tally()
    outcome = Outcome(tally=tally)
    with WorkDir("serve") as work:
        path = work / "ads.npz"
        owner = in_child(shape.n_records, seed, shape.key_bits, shape.setup_reps, path, trace)
        artifact_mb = path.stat().st_size / MB
        dataset, template = make_inputs(shape.n_records, seed)
        traffic = generate_trace(
            dataset,
            template,
            TrafficConfig(
                rate=shape.plan_rate,
                count=max(2, math.ceil(shape.plan_rate * seconds)),
                hot_fraction=shape.hot_fraction,
                hot_vectors=shape.hot_vectors,
                cold_vectors=shape.cold_vectors,
                seed=seed,
            ),
        )
        del dataset, template
        queries = [arrival.query for arrival in traffic.arrivals]
        firsts = {}
        for arrival in traffic.arrivals:
            firsts.setdefault(arrival.weight_id, arrival.query)
        del traffic
        client = Client.from_artifact(path)

        setups, starts = [], []
        frontend = None
        for stage in owner["stages"]:
            if frontend is not None:
                frontend.stop()
            frontend = ServingFrontEnd(path, workers=shape.workers)
            started = time.perf_counter()
            frontend.start()
            starts.append(time.perf_counter() - started)
            setups.append(sum(stage.values()) + starts[-1])

        # The traced mode serves half the window untraced, then the same
        # queries for as long again on a front-end forked with the hooks
        # installed.
        share = seconds / 2 if trace else seconds
        try:
            warm(frontend, client, list(firsts.values()), tally)
            settle()
            before = stat_totals(frontend)
            plain = closed_loop(frontend, client, queries, 0, share, tally, shape.reply_timeout)
            worker_pss = sum(pss_mb(pid) for pid in worker_pids())
            memory_mb = pss_mb(os.getpid()) + worker_pss
            hops = hop_values(frontend, before, plain)
        finally:
            frontend.stop()

        tracer = None
        if trace:
            tracer = Tracer()
            tracer.phase = "window"
            dumps = work / "spans"
            dumps.mkdir()
            tracer.patch(
                dispatcher_module,
                "worker_main",
                traced_worker_main(tracer, dumps, vars(dispatcher_module)["worker_main"]),
            )
            tracer.install(layer_hooks() + [verifier_hook(client.parameters.verifier)])
            traced_frontend = ServingFrontEnd(path, workers=shape.workers)
            try:
                traced_frontend.start()
                hashes_before = client.counters.hash_operations
                warm(traced_frontend, client, list(firsts.values()), tally)
                served_before = stat_totals(traced_frontend)["served"]
                traced = closed_loop(
                    traced_frontend,
                    client,
                    queries,
                    0,
                    share,
                    tally,
                    shape.reply_timeout,
                    tracer,
                )
                client_hashes = client.counters.hash_operations - hashes_before
                served = stat_totals(traced_frontend)["served"]
            finally:
                traced_frontend.stop()
                tracer.uninstall()
            worker_table, worker_counts = read_worker_dumps(dumps)
            outcome.report["worker_dumps"] = worker_counts["dumps"]

    require_samples(plain.latencies, tally, "served request")
    outcome.values.update(
        {
            "setup_s": percentile(setups, 50),
            "latency_p90_ms": median_block_p90(plain.latencies, shape.block_requests),
            "reply_bytes_mean": mean(plain.sizes),
            "memory_mb": memory_mb,
            "artifact_mb": artifact_mb,
            "serving.start_s": percentile(starts, 50),
            "serving.worker_pss_mb": worker_pss,
            **hops,
        }
    )
    outcome.report["setup_s_reps"] = setups
    outcome.report["requests_verified"] = len(plain.latencies)
    if tracer is not None:
        client_table = tracer.summary(["window"])
        outcome.report["spans"] = {
            "setup (owner child)": owner["layers"],
            "client": client_table,
            "workers": worker_table,
        }
        table = merge_summaries(worker_table, client_table)
        outcome.values.update(
            setup_values(owner["layers"], shape.setup_reps, owner["counters"], owner["peak_rss_mb"], worker_table)
        )
        tracer.counters.update(worker_counts)
        # Worker counts include the warm-ups; client hashes include the
        # warm-up's verifications too, so both divide by every query served.
        tracer.counters["queries"] = served
        tracer.counters["client_hashes"] = client_hashes
        outcome.values.update(query_path_values(table, tracer.counters))
        outcome.values["trace.overhead_pct"] = overhead_pct(
            percentile(traced.latencies, 50), percentile(plain.latencies, 50)
        )
        outcome.report["traced_window_served"] = served - served_before
        outcome.tracer = tracer
    return outcome
