"""The traced mode: spans recorded by wrappers patched into the program.

Each hook replaces one name *where its caller looks it up* -- a method on
its class, or a function in the module whose code calls it -- with a
wrapper that records a span (name, start, end, parent, request id, phase)
in memory.  Nothing under ``src/`` changes, and untraced runs never install
a wrapper.  Spans of a forked serving worker are recorded the same way
inside the worker (the patches are inherited at fork) and written to a file
when the worker exits; :func:`merge_summaries` folds them in.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of one tree sum to its root's duration.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (object holding the name, attribute, span name)
Hook = Tuple[object, str, str]


def layer_hooks() -> List[Hook]:
    """Every layer boundary the traced mode wraps."""
    import repro.core.artifact as artifact
    import repro.core.server as server_module
    import repro.crypto.signer as signer_module
    import repro.ifmh.propagation as propagation
    from repro.core.client import Client
    from repro.core.owner import DataOwner
    from repro.core.server import Server
    from repro.ifmh.ifmh_tree import IFMHTree
    from repro.itree.itree import ITree
    from repro.merkle.engine import MerkleBuildEngine
    from repro.serving.dispatcher import ServingFrontEnd

    from perfbench import ops

    return [
        # set-up: key generation, owner build, publish, cold start
        (signer_module, "make_signer", "crypto.keygen"),
        (DataOwner, "__init__", "core.owner.build"),
        (ITree, "__init__", "itree.build"),
        (MerkleBuildEngine, "build_forest", "merkle.forest"),
        (propagation, "propagate_batched", "ifmh.propagate"),
        (DataOwner, "publish", "core.artifact.publish"),
        (artifact, "load_artifact", "core.artifact.load"),
        (ServingFrontEnd, "start", "serving.start"),
        # update path
        (ops, "update_step", "bench.update"),
        (DataOwner, "apply_updates", "ifmh.update_apply"),
        (Server, "swap_epoch_from_artifact", "core.server.swap"),
        # query path, server side
        (ops, "verified_query", "bench.query"),
        (ServingFrontEnd, "submit", "serving.submit"),
        (Server, "execute", "core.server.execute"),
        (Server, "execute_batch", "core.server.execute_batch"),
        (IFMHTree, "search", "itree.search"),
        (ITree, "materialize_leaf", "itree.materialize"),
        (IFMHTree, "leaf_scores", "ifmh.leaf_scores"),
        (server_module, "select_window", "queryproc.window"),
        (server_module, "build_verification_object", "ifmh.vo_build"),
        # wire and client
        (ops, "encode", "wire.encode"),
        (ops, "decode", "wire.decode"),
        (Client, "verify", "core.client.verify"),
    ]


def modes(tracer: Optional["Tracer"]) -> Tuple[bool, ...]:
    """How each block of work runs: untraced, then (in a traced run) traced again."""
    return (False,) if tracer is None else (False, True)


def verifier_hook(verifier) -> Hook:
    """The signature check, on whichever verifier class the client holds."""
    return (type(verifier), "verify", "crypto.sig_verify")


class Tracer:
    """In-memory span recorder for one process (one recording thread)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self.request: Optional[int] = None
        self.phase = "setup"
        self.thread = threading.get_ident()
        self.servers: Dict[int, object] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording
    def _record(self, name: str, fn: Callable, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.request, self.phase]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self
        # A serving worker builds its Server inside worker_main; remember every
        # server that executes so its cache counters can be read at exit.
        track_server = name.startswith("core.server.execute")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer.thread:
                return fn(*args, **kwargs)
            if track_server:
                tracer.servers[id(args[0])] = args[0]
            return tracer._record(name, fn, args, kwargs)

        return traced

    def install(self, hooks: Iterable[Hook]) -> None:
        for target, attribute, name in hooks:
            raw = vars(target)[attribute]
            self._patches.append((target, attribute, raw))
            setattr(target, attribute, self._wrap(raw, name))

    def patch(self, target, attribute: str, replacement) -> None:
        """Replace a name outright (restored by :meth:`uninstall`)."""
        self._patches.append((target, attribute, vars(target)[attribute]))
        setattr(target, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            target, attribute, raw = self._patches.pop()
            setattr(target, attribute, raw)

    def count_server(self, server) -> None:
        """Add a server's lifetime node and score-cache counts to :attr:`counters`."""
        self.counters["nodes"] += server.counters.nodes_traversed
        self.counters["hits"] += server.score_cache_hits
        self.counters["misses"] += server.score_cache_misses

    # -------------------------------------------------------------- output
    def summary(self, phases: Optional[Sequence[str]] = None) -> Dict[str, Dict[str, float]]:
        return summarize(self.spans, phases)

    def write(self, path: Path) -> None:
        """Write every span as arrays (names indexed into a table)."""
        names = sorted({span[0] for span in self.spans})
        phases = sorted({span[5] for span in self.spans})
        name_index = {name: position for position, name in enumerate(names)}
        phase_index = {phase: position for position, phase in enumerate(phases)}
        np.savez_compressed(
            path,
            names=np.array(names),
            phases=np.array(phases),
            name=np.array([name_index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            request=np.array([-1 if s[4] is None else s[4] for s in self.spans], dtype=np.int64),
            phase=np.array([phase_index[s[5]] for s in self.spans], dtype=np.int32),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def summarize(
    spans: Sequence[list], phases: Optional[Sequence[str]] = None
) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total seconds and self seconds."""
    child_seconds = [0.0] * len(spans)
    for name, start, end, parent, _request, _phase in spans:
        if parent >= 0:
            child_seconds[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for position, (name, start, end, _parent, _request, phase) in enumerate(spans):
        if phases is not None and phase not in phases:
            continue
        row = table[name]
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_seconds[position]
    return dict(table)


def child_count(
    spans: Sequence[list], parent_name: str, name: str, phases: Optional[Sequence[str]] = None
) -> int:
    """Calls of ``name`` made directly from a ``parent_name`` span."""
    return sum(
        1
        for span in spans
        if span[0] == name
        and span[3] >= 0
        and spans[span[3]][0] == parent_name
        and (phases is None or span[5] in phases)
    )


def merge_summaries(*tables: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def mean_seconds(table: Dict[str, Dict[str, float]], name: str) -> float:
    """Mean duration of one call of ``name``; 0 when it never ran."""
    row = table.get(name)
    if not row or not row["count"]:
        return 0.0
    return row["total_s"] / row["count"]


def traced_worker_main(tracer: Tracer, dump_dir: Path, original: Callable) -> Callable:
    """A serving ``worker_main`` that records spans and dumps them on exit.

    The dispatcher forks workers, so each starts with a copy of the
    parent's tracer (and its installed patches); the copy is emptied and
    bound to the worker's only thread before serving begins.
    """

    def worker_main(worker_id, *args):
        tracer.spans = []
        tracer.counters = Counter()
        tracer.servers = {}
        tracer._stack = []
        tracer.request = None
        tracer.phase = "worker"
        tracer.thread = threading.get_ident()
        try:
            original(worker_id, *args)
        finally:
            for server in tracer.servers.values():
                tracer.count_server(server)
            tracer.counters["first_touches"] += child_count(
                tracer.spans, "itree.search", "itree.materialize"
            )
            dump = {"summary": tracer.summary(), "counters": dict(tracer.counters)}
            path = Path(dump_dir) / f"worker-{worker_id}-{os.getpid()}.pkl"
            path.write_bytes(pickle.dumps(dump))

    return worker_main


def read_worker_dumps(dump_dir: Path) -> Tuple[Dict[str, Dict[str, float]], Counter]:
    """Merged worker summaries and summed worker counters (plus ``dumps`` read)."""
    tables, totals = [], Counter()
    for path in sorted(Path(dump_dir).glob("worker-*.pkl")):
        dump = pickle.loads(path.read_bytes())
        tables.append(dump["summary"])
        totals.update(dump["counters"])
        totals["dumps"] += 1
    return merge_summaries(*tables), totals
