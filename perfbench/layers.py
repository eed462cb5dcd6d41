"""Per-layer metric values computed from span summaries and program counters."""

from __future__ import annotations

from typing import Dict, Optional

from perfbench.tracing import mean_seconds

Table = Dict[str, Dict[str, float]]


def _total(table: Table, name: str, key: str = "total_s") -> float:
    return table.get(name, {}).get(key, 0)


def setup_values(
    table: Table,
    reps: int,
    counters: Dict[str, int],
    owner_peak_rss_mb: float,
    load_table: Optional[Table] = None,
) -> Dict[str, float]:
    """Set-up layers, per owner set-up (``reps`` of them ran traced); times in seconds."""
    load_table = table if load_table is None else load_table
    physical = counters["physical_hash_operations"]
    return {
        "crypto.keygen_s": _total(table, "crypto.keygen") / reps,
        "core.owner.build_s": _total(table, "core.owner.build") / reps,
        "itree.build_s": _total(table, "itree.build") / reps,
        "merkle.forest_s": _total(table, "merkle.forest") / reps,
        "ifmh.propagate_s": _total(table, "ifmh.propagate") / reps,
        "core.artifact.publish_s": _total(table, "core.artifact.publish") / reps,
        "core.artifact.load_s": mean_seconds(load_table, "core.artifact.load"),
        "merkle.physical_hashes": physical,
        "merkle.dedup_ratio": counters["hash_operations"] / physical if physical else 0.0,
        "core.owner.peak_rss_mb": owner_peak_rss_mb,
    }


def query_path_values(table: Table, counts: Dict[str, int]) -> Dict[str, float]:
    """Server, wire and client layers, per query or per call (times in seconds).

    ``counts`` holds the traced blocks' ``queries``, ``first_touches`` (leaf
    materialisations made by a query's own subdomain search; a publish
    materialises every leaf, which is update cost, not query cost),
    server ``nodes``, ``client_hashes``, and score-cache ``hits`` and
    ``misses``.
    """
    queries = counts["queries"]
    server_s = _total(table, "core.server.execute") + _total(table, "core.server.execute_batch")
    lookups = counts["hits"] + counts["misses"]
    return {
        "itree.search_us": mean_seconds(table, "itree.search"),
        "itree.nodes_per_query": counts["nodes"] / queries,
        "itree.materialized_leaves": counts["first_touches"] / queries,
        "itree.materialize_us": mean_seconds(table, "itree.materialize"),
        "core.server.execute_us": server_s / queries,
        "core.server.score_cache_hit_ratio": counts["hits"] / lookups if lookups else 0.0,
        "ifmh.leaf_scores_us": mean_seconds(table, "ifmh.leaf_scores"),
        "queryproc.window_us": mean_seconds(table, "queryproc.window"),
        "ifmh.vo_build_us": mean_seconds(table, "ifmh.vo_build"),
        "wire.encode_us": mean_seconds(table, "wire.encode"),
        "wire.decode_us": mean_seconds(table, "wire.decode"),
        "core.client.verify_us": mean_seconds(table, "core.client.verify"),
        "ifmh.client_hashes_per_query": counts["client_hashes"] / queries,
        "crypto.sig_verify_us": mean_seconds(table, "crypto.sig_verify"),
    }


def coverage(table: Table, wall_s: float) -> float:
    """Self time of the program's spans, as a share of the traced wall time.

    The ``bench.*`` roots are the benchmark's own wrappers around a whole
    operation; their self time is time no program layer claimed, so it is
    left out, and a step the hooks miss between two layers lowers coverage.
    A step missed *inside* a layer shows as that layer's self time instead
    (``*_self_*`` in the traced report).
    """
    program = (row["self_s"] for name, row in table.items() if not name.startswith("bench."))
    return sum(program) / wall_s


def self_seconds(table: Table, name: str) -> float:
    """Mean self time of one call of ``name``: its time outside every wrapped child."""
    row = table.get(name)
    if not row or not row["count"]:
        return 0.0
    return row["self_s"] / row["count"]


def overhead_pct(traced_p50: float, untraced_p50: float) -> float:
    return (traced_p50 / untraced_p50 - 1.0) * 100.0
