"""``query``: one client in a closed loop, fresh weights, n = 300.

The paper's user path: subdomain search, first-touch leaf materialisation,
VO build, the reply's bytes on the wire and RSA signature verification.
Each query has its own weight vector (independent analysts pick their own),
so there is no batching and no score-cache hit.

The loop runs in *passes* of ``pass_queries`` queries, each against a
server freshly cold-started from the published artifact.  A pass is a fixed
amount of work, so the share of first-touch queries and the memory a pass
materialises do not depend on how fast the program is; a faster program
runs more passes, not different ones.  Passes always complete.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from typing import List

from repro.core.client import Client
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
from perfbench.inputs import make_inputs, plan_queries
from perfbench.layers import coverage, overhead_pct, query_path_values, self_seconds, setup_values
from perfbench.metrics import Outcome
from perfbench.owner_setup import in_child
from perfbench.tracing import Tracer, child_count, layer_hooks, modes, verifier_hook


@dataclass(frozen=True)
class Shape:
    n_records: int = 300
    pass_queries: int = 2000
    setup_reps: int = 3
    key_bits: int = 2048
    #: Queries planned per second of window: a ceiling well above today's rate.
    plan_rate: float = 5000.0


def cold_start(path):
    """Server and client from the published artifact, and the seconds it took."""
    started = time.perf_counter()
    server = Server.from_artifact(path)
    client = Client.from_artifact(path)
    return server, client, time.perf_counter() - started


def run(seed: int, seconds: float, trace: bool, shape: Shape = Shape()) -> Outcome:
    tally = Tally()
    outcome = Outcome(tally=tally)
    with WorkDir("query") as work:
        path = work / "ads.npz"
        owner = in_child(shape.n_records, seed, shape.key_bits, shape.setup_reps, path, trace)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install(layer_hooks())
        setups = []
        try:
            for stage in owner["stages"]:
                server, client, load_s = cold_start(path)
                setups.append(sum(stage.values()) + load_s)
                del server
        finally:
            if tracer is not None:
                tracer.uninstall()
        dataset, template = make_inputs(shape.n_records, seed)
        passes = max(1, math.ceil(seconds * shape.plan_rate / shape.pass_queries))
        plan = plan_queries(dataset, template, passes * shape.pass_queries, seed)
        del dataset
        artifact_mb = path.stat().st_size / MB

        latencies: List[float] = []
        traced_latencies: List[float] = []
        sizes: List[int] = []
        traced_wall = 0.0
        deadline = time.perf_counter() + seconds
        # A traced run sends each pass twice, untraced and then traced, so
        # the overhead compares the same queries; it needs one of each.
        schedule = [(p, traced) for p in range(passes) for traced in modes(tracer)]
        least = 2 if tracer is not None else 1
        done = 0
        while done < len(schedule) and (done < least or time.perf_counter() < deadline):
            pass_index, traced = schedule[done]
            server = None
            gc.collect()
            server = Server.from_artifact(path)
            hashes_before = client.counters.hash_operations
            if traced:
                tracer.phase = "window"
                tracer.install(layer_hooks() + [verifier_hook(client.parameters.verifier)])
            block_started = time.perf_counter()
            first = pass_index * shape.pass_queries
            for position in range(first, first + shape.pass_queries):
                query = plan.query(position)
                if traced:
                    tracer.request = position
                measured = ops.attempt_query(server, client, query, tally, outcome.report)
                if measured is not None:
                    (traced_latencies if traced else latencies).append(measured[0])
                    sizes.append(measured[1])
            if traced:
                traced_wall += time.perf_counter() - block_started
                tracer.uninstall()
                tracer.count_server(server)
                tracer.counters["queries"] += shape.pass_queries
                tracer.counters["client_hashes"] += client.counters.hash_operations - hashes_before
            done += 1
        outcome.report["passes"] = done
        outcome.report["queries_verified"] = len(latencies) + len(traced_latencies)

    require_samples(latencies, tally, "untraced query")
    outcome.values.update(
        {
            "setup_s": percentile(setups, 50),
            "latency_p90_ms": percentile(latencies, 90),
            "reply_bytes_mean": mean(sizes),
            "memory_mb": peak_rss_mb(),
            "artifact_mb": artifact_mb,
            "core.query_p50_ms": percentile(latencies, 50),
        }
    )
    outcome.report["setup_s_reps"] = setups
    if tracer is not None:
        setup = tracer.summary(["setup"])
        window = tracer.summary(["window"])
        tracer_table = {"setup (owner child)": owner["layers"], "setup": setup, "window": window}
        outcome.report["spans"] = tracer_table
        outcome.values.update(
            setup_values(owner["layers"], shape.setup_reps, owner["counters"], owner["peak_rss_mb"], setup)
        )
        tracer.counters["first_touches"] = child_count(
            tracer.spans, "itree.search", "itree.materialize", ["window"]
        )
        outcome.values.update(query_path_values(window, tracer.counters))
        outcome.values["trace.coverage"] = coverage(window, traced_wall)
        outcome.values["core.server.execute_self_us"] = self_seconds(window, "core.server.execute")
        outcome.values["trace.overhead_pct"] = overhead_pct(
            percentile(traced_latencies, 50), percentile(latencies, 50)
        )
        outcome.tracer = tracer
    return outcome
