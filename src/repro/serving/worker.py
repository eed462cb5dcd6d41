"""The serving worker process: one cold-started server behind two queues.

Each worker is a separate OS process that cold-starts its own
:class:`repro.core.server.Server` from the shared published artifact
(:meth:`Server.from_artifact` -- no re-hashing, own score cache, own
counters) and then loops over control messages from its request queue:

* ``("batch", batch_id, queries)`` -- run :meth:`Server.execute_batch`
  (same-weight queries share one subdomain search and one scoring pass) and
  reply with one picklable :class:`WorkerReply` per query, in order, or
  with one ``batch-error`` naming why the server refused the batch (a
  query it cannot process, or one that does not fit the template, such as
  a weight vector of the wrong length) -- a refused query fails its own
  tickets and never takes the worker down;
* ``("swap", path, base, expected_epoch)`` -- live hot-swap to a newer
  epoch's artifact; batches queued before the swap message finish on the
  entry epoch (the queue is FIFO), so a broadcast swap never tears a query;
* ``("crash", exit_code)`` -- die immediately via ``os._exit`` (the
  dispatcher's deterministic crash injection; the process vanishes without
  flushing anything, exactly like a SIGKILL);
* ``("stop",)`` -- acknowledge and exit cleanly.

Replies are plain tuples/dataclasses of results, verification objects and
counters -- everything the front-end needs to client-verify the answer --
and cross the process boundary by pickling.  The worker never consults the
wall clock except through ``time.perf_counter`` service-duration stamps
(RL010: scheduling decisions stay deterministic; durations only feed the
utilisation report).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import ConstructionError, InvalidQueryError, QueryProcessingError
from repro.core.queries import AnalyticQuery
from repro.core.results import QueryResult
from repro.core.server import Server
from repro.metrics.counters import Counters

__all__ = ["WorkerReply", "worker_main"]


@dataclass(frozen=True)
class WorkerReply:
    """One query's answer as shipped back over the reply queue."""

    query: AnalyticQuery
    result: QueryResult
    verification_object: object
    counters: Counters
    epoch: int

    @property
    def nodes_traversed(self) -> int:
        return self.counters.nodes_traversed


def _serve_batch(server: Server, reply_queue, worker_id: int, message: Tuple) -> None:
    _, batch_id, queries = message
    started = time.perf_counter()
    try:
        executions = server.execute_batch(queries)
    except (QueryProcessingError, InvalidQueryError) as err:
        reply_queue.put(("batch-error", worker_id, batch_id, str(err)))
        return
    service_seconds = time.perf_counter() - started
    epoch = server.epoch
    replies = tuple(
        WorkerReply(
            query=execution.query,
            result=execution.result,
            verification_object=execution.verification_object,
            counters=execution.counters,
            epoch=epoch,
        )
        for execution in executions
    )
    reply_queue.put(("batch", worker_id, batch_id, replies, service_seconds))


def worker_main(
    worker_id: int,
    artifact_path: str,
    base: Optional[str],
    expected_epoch: Optional[int],
    request_queue,
    reply_queue,
) -> None:
    """Process entry point: cold-start from the artifact, then serve.

    Sends ``("ready", worker_id, epoch)`` once the artifact loaded (the
    dispatcher's start barrier), ``("start-error", worker_id, message)``
    when it cannot load, and then one reply per control message until
    ``stop`` or ``crash``.
    """
    try:
        server = Server.from_artifact(
            artifact_path, base=base, expected_epoch=expected_epoch
        )
    except ConstructionError as err:
        reply_queue.put(("start-error", worker_id, str(err)))
        return
    reply_queue.put(("ready", worker_id, server.epoch))
    while True:
        message = request_queue.get()
        kind = message[0]
        if kind == "batch":
            _serve_batch(server, reply_queue, worker_id, message)
        elif kind == "swap":
            _, path, swap_base, swap_epoch = message
            try:
                report = server.swap_epoch_from_artifact(
                    path, base=swap_base, expected_epoch=swap_epoch
                )
            except ConstructionError as err:
                reply_queue.put(("swap-error", worker_id, str(err)))
            else:
                reply_queue.put(("swapped", worker_id, report.new_epoch))
        elif kind == "crash":
            # Deterministic fault injection: die via ``os._exit``, no
            # farewell message -- the dispatcher must detect the death and
            # requeue whatever this worker still owed (everything behind
            # the crash message in the request queue is lost with the
            # process).  The reply feeder is flushed first so replies
            # already handed over are not torn mid-write on the *shared*
            # reply pipe, which would corrupt other workers' replies too.
            reply_queue.close()
            reply_queue.join_thread()
            os._exit(message[1] if len(message) > 1 else 1)
        elif kind == "stop":
            reply_queue.put(("stopped", worker_id))
            return
        else:
            reply_queue.put(("protocol-error", worker_id, f"unknown message {kind!r}"))
