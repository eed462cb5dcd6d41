"""Metric names, units and the outcome a workload hands back.

``END_TO_END`` and ``PER_LAYER`` are exactly the lists in ``BENCHMARK.json``
(a test pins that).  The benchmark format asks every run to print every listed
metric, on every workload; a per-layer metric of a layer that only one
workload reaches (the serving hops, the update stages) reads 0 on the
others (``REACHED_BY``).  Diagnostics (``DIAGNOSTICS``) print in the
report lines of the runs that measure them, never in the result line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from perfbench.common import TIME_UNITS, Tally, to_unit

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "latency_p90_ms": "ms",
    "reply_bytes_mean": "B",
    "memory_mb": "MB",
    "artifact_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
    "crypto.keygen_s": "s",
    "itree.build_s": "s",
    "merkle.forest_s": "s",
    "merkle.physical_hashes": "count",
    "merkle.dedup_ratio": "ratio",
    "ifmh.propagate_s": "s",
    "core.owner.build_s": "s",
    "core.owner.peak_rss_mb": "MB",
    "core.artifact.publish_s": "s",
    "core.artifact.load_s": "s",
    "itree.search_us": "us",
    "itree.nodes_per_query": "count/query",
    "itree.materialized_leaves": "count/query",
    "itree.materialize_us": "us",
    "core.server.execute_us": "us",
    "core.server.score_cache_hit_ratio": "ratio",
    "ifmh.leaf_scores_us": "us",
    "queryproc.window_us": "us",
    "ifmh.vo_build_us": "us",
    "wire.encode_us": "us",
    "wire.decode_us": "us",
    "core.client.verify_us": "us",
    "ifmh.client_hashes_per_query": "count/query",
    "crypto.sig_verify_us": "us",
    "core.query_p50_ms": "ms",
    "serving.start_s": "s",
    "serving.queue_delay_p50_ms": "ms",
    "serving.worker_service_ms": "ms",
    "serving.reply_transit_ms": "ms",
    "serving.batch_size_mean": "count/batch",
    "serving.worker_pss_mb": "MB",
    "serving.requeued": "count",
    "serving.respawns": "count",
    "ifmh.update_apply_ms": "ms",
    "ifmh.incremental_share": "ratio",
    "merkle.update_physical_hashes": "count/update",
    "core.artifact.delta_publish_ms": "ms",
    "core.artifact.delta_mb": "MB",
    "core.server.swap_ms": "ms",
}

#: Per-layer metrics a single workload reaches; the others print 0.
REACHED_BY = {
    **{name: "serve" for name in PER_LAYER if name.startswith("serving.")},
    "ifmh.update_apply_ms": "update",
    "ifmh.incremental_share": "update",
    "merkle.update_physical_hashes": "update",
    "core.artifact.delta_publish_ms": "update",
    "core.artifact.delta_mb": "update",
    "core.server.swap_ms": "update",
}

#: Printed in the report of the workloads (and modes) that measure them.
DIAGNOSTICS: Dict[str, str] = {
    "trace.coverage": "ratio",
    "core.server.execute_self_us": "us",
    "core.artifact.publish_self_ms": "ms",
    "serving.latency_p99_ms": "ms",
    "core.read_after_swap_p50_ms": "ms",
    "core.update_p50_ms": "ms",
}

UNITS: Dict[str, str] = {**END_TO_END, **PER_LAYER, **DIAGNOSTICS}


def in_units(values: Dict[str, float]) -> Dict[str, float]:
    """Every value in its metric's unit; workloads measure times in seconds."""
    return {
        name: to_unit(value, UNITS[name]) if UNITS.get(name) in TIME_UNITS else value
        for name, value in values.items()
    }


@dataclass
class Outcome:
    """What one workload run measured; times in seconds."""

    tally: Tally
    values: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)
    #: The traced run's recorder, whose spans the runner writes out.
    tracer: Optional[object] = None


def layer_table(workload: str, values: Dict[str, float]) -> Dict[str, float]:
    """The ``PER_LAYER`` metrics of one traced run, 0 where not reached."""
    table = {}
    for name in PER_LAYER:
        if name in values:
            table[name] = values[name]
        elif REACHED_BY.get(name, workload) != workload:
            table[name] = 0.0
        else:
            raise KeyError(f"{workload} did not measure per-layer metric {name}")
    return table
