"""``update``: the owner side, writes beside reads, n = 150.

Batches alternate a single-record insert and a single-record delete.  Each
batch is applied with ``DataOwner.apply_updates``, published as a delta
against the epoch-0 artifact (the ``--churn`` gate's pattern) and
hot-swapped into a live ``Server`` with ``swap_epoch_from_artifact``; its
latency runs from the start of the apply until the server can serve the new
epoch.  A few fresh-weight queries then read the new epoch, verified
against the owner's current public parameters.

Delta size grows with the epoch (the append-only arena), so the loop runs
*chains* of ``chain`` batches, each from a pristine epoch-0 state: the owner
restarted from its epoch-0 artifact (``DataOwner.from_artifact``) and a
server cold-started from it.  The seed plans a distinct chain for every
chain the loop can run (``plan_rate`` chains per second of window, a
ceiling well above today's rate), so the updates a run measures are a
prefix of one seeded sequence: a faster program runs more of it, not
different updates.  Chains always complete, and every untraced run
completes the first ``min_chains``, over which ``artifact_mb`` averages: it
depends on the seed alone.

Each update publishes every leaf of the arrangement, so its cost follows
the dataset's number of subdomains, which varies by about 10 % from one
n = 150 dataset to the next.  The seed therefore draws ``owners`` datasets
(owner ``k`` of seed ``s`` uses generator seed ``s * owners + k``) and the
chains rotate over them, so no single arrangement sets a run's latency.
The first ``setup_reps`` of them are the run's timed set-ups.
"""

from __future__ import annotations

import gc
import math
import random
import time
import traceback
from dataclasses import dataclass
from typing import List

from repro.core.client import Client
from repro.core.owner import DataOwner
from repro.core.server import Server

from perfbench import ops
from perfbench.common import (
    MB,
    Tally,
    WorkDir,
    mean,
    peak_rss_mb,
    percentile,
    require_samples,
)
from perfbench.inputs import make_inputs, plan_chain, plan_queries
from perfbench.layers import coverage, overhead_pct, query_path_values, self_seconds, setup_values
from perfbench.metrics import Outcome
from perfbench.owner_setup import build_and_publish, config
from perfbench.tracing import Tracer, child_count, layer_hooks, mean_seconds, modes, verifier_hook


@dataclass(frozen=True)
class Shape:
    n_records: int = 150
    #: Datasets drawn from the seed; the chains rotate over them.
    owners: int = 16
    #: Timed set-ups (keygen, build, publish, cold start) of the first datasets;
    #: the others are built with the same key pair, untimed.
    setup_reps: int = 3
    chain: int = 4
    reads: int = 3
    key_bits: int = 2048
    #: Chains every run completes; ``artifact_mb`` averages their updates.
    min_chains: int = 16
    #: Chains planned per second of window: a ceiling well above today's rate.
    plan_rate: float = 2.0
    #: Record ids of inserted records start here (generated ids are 0..n-1).
    first_id: int = 1_000_000


def run(seed: int, seconds: float, trace: bool, shape: Shape = Shape()) -> Outcome:
    try:
        return _run(seed, seconds, trace, shape)
    finally:
        gc.unfreeze()


def _run(seed: int, seconds: float, trace: bool, shape: Shape) -> Outcome:
    tally = Tally()
    outcome = Outcome(tally=tally)
    inputs = [make_inputs(shape.n_records, seed * shape.owners + k) for k in range(shape.owners)]
    tracer = Tracer() if trace else None
    with WorkDir("update") as work:
        bases = [work / f"epoch0-{k}.npz" for k in range(shape.owners)]
        delta = work / "delta.npz"
        setups = []
        if tracer is not None:
            tracer.install(layer_hooks())
        try:
            for (dataset, template), base in zip(inputs[: shape.setup_reps], bases):
                started = time.perf_counter()
                owner, keypair, _ = build_and_publish(dataset, template, shape.key_bits, base)
                Server.from_artifact(base)
                setups.append(time.perf_counter() - started)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_counters = owner.counters.snapshot()
        for (dataset, template), base in zip(inputs[shape.setup_reps :], bases[shape.setup_reps :]):
            DataOwner(dataset, template, config=config(shape.key_bits), keypair=keypair).publish(base)
        setup_rss = peak_rss_mb()
        del owner

        rng = random.Random(seed)
        planned = max(shape.min_chains, math.ceil(seconds * shape.plan_rate))
        plans = [
            plan_chain(inputs[c % shape.owners][0], shape.chain, rng, shape.first_id)
            for c in range(planned)
        ]
        per_owner = math.ceil(planned / shape.owners) * shape.chain * shape.reads
        reads = [
            plan_queries(dataset, template, per_owner, seed * shape.owners + k)
            for k, (dataset, template) in enumerate(inputs)
        ]
        # Full collections in the window walk the owner's and the server's
        # objects, not the interpreter's modules or the inputs planned here.
        gc.collect()
        gc.freeze()

        latencies: List[float] = []
        traced_latencies: List[float] = []
        read_latencies: List[float] = []
        published: List[int] = []
        sizes: List[int] = []
        incremental = 0
        update_hashes: List[int] = []
        traced_wall = 0.0
        deadline = time.perf_counter() + seconds
        # A traced run runs each chain twice, untraced and then traced, so
        # the overhead compares the same updates; it needs one of each.
        schedule = [(c, traced) for c in range(planned) for traced in modes(tracer)]
        least = 2 if tracer is not None else shape.min_chains
        done = 0
        while done < len(schedule) and (done < least or time.perf_counter() < deadline):
            chain, traced = schedule[done]
            k = chain % shape.owners
            # Every chain starts from the same collector state, so its
            # collections fall at the same points whenever it runs.
            gc.collect()
            owner = DataOwner.from_artifact(bases[k], keypair=keypair)
            server = Server.from_artifact(bases[k])
            if traced:
                tracer.phase = "window"
                tracer.install(layer_hooks() + [verifier_hook(keypair.verifier)])
            block_started = time.perf_counter()
            for position, step in enumerate(plans[chain]):
                tally.attempt()
                physical_before = owner.counters.physical_hash_operations
                started = time.perf_counter()
                try:
                    report = ops.update_step(owner, server, step, bases[k], delta)
                except Exception as err:  # noqa: BLE001 -- every failure is counted and named
                    tally.fail(f"update {type(err).__name__}: {err}")
                    outcome.report.setdefault("first_error", traceback.format_exc())
                    break  # the chain's state is unknown; start the next one
                elapsed = time.perf_counter() - started
                if server.epoch != owner.epoch:
                    tally.fail(f"served epoch {server.epoch}, owner at epoch {owner.epoch}")
                    break
                (traced_latencies if traced else latencies).append(elapsed)
                if chain < shape.min_chains and not traced:
                    published.append(delta.stat().st_size)
                incremental += report.strategy == "incremental"
                update_hashes.append(owner.counters.physical_hash_operations - physical_before)

                client = Client(owner.public_parameters())
                # Owner k's reads, in the order of its chains and their steps.
                first = ((chain // shape.owners) * shape.chain + position) * shape.reads
                for read in range(first, first + shape.reads):
                    query = reads[k].query(read)
                    measured = ops.attempt_query(server, client, query, tally, outcome.report)
                    if measured is not None:
                        read_latencies.append(measured[0])
                        sizes.append(measured[1])
                if traced:
                    tracer.counters["queries"] += shape.reads
                    tracer.counters["client_hashes"] += client.counters.hash_operations
            if traced:
                traced_wall += time.perf_counter() - block_started
                tracer.uninstall()
                tracer.count_server(server)  # lifetime counts survive the chain's swaps
            done += 1
        outcome.report["chain_runs"] = done
        outcome.report["updates_served"] = len(latencies) + len(traced_latencies)

    require_samples(latencies, tally, "untraced update")
    require_samples(read_latencies, tally, "read after swap")
    updates = len(latencies) + len(traced_latencies)
    outcome.values.update(
        {
            "setup_s": percentile(setups, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "reply_bytes_mean": mean(sizes),
            "memory_mb": peak_rss_mb(),
            "artifact_mb": mean(published) / MB,
            "core.update_p50_ms": percentile(latencies, 50),
            "core.read_after_swap_p50_ms": percentile(read_latencies, 50),
            "core.query_p50_ms": percentile(read_latencies, 50),
            "ifmh.incremental_share": incremental / updates,
            "merkle.update_physical_hashes": mean(update_hashes),
            "core.artifact.delta_mb": mean(published) / MB,
        }
    )
    outcome.report["setup_s_reps"] = setups
    if tracer is not None:
        setup = tracer.summary(["setup"])
        window = tracer.summary(["window"])
        outcome.report["spans"] = {"setup": setup, "window": window}
        outcome.values.update(setup_values(setup, shape.setup_reps, setup_counters, setup_rss))
        tracer.counters["first_touches"] = child_count(
            tracer.spans, "itree.search", "itree.materialize", ["window"]
        )
        outcome.values.update(query_path_values(window, tracer.counters))
        outcome.values.update(
            {
                "ifmh.update_apply_ms": mean_seconds(window, "ifmh.update_apply"),
                "core.artifact.delta_publish_ms": mean_seconds(window, "core.artifact.publish"),
                "core.server.swap_ms": mean_seconds(window, "core.server.swap"),
                "core.artifact.publish_self_ms": self_seconds(window, "core.artifact.publish"),
                "trace.coverage": coverage(window, traced_wall),
                "trace.overhead_pct": overhead_pct(
                    percentile(traced_latencies, 50), percentile(latencies, 50)
                ),
            }
        )
        outcome.tracer = tracer
    return outcome
