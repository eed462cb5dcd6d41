"""The multi-worker serving front-end: batching dispatcher over worker processes.

Architecture (one :class:`ServingFrontEnd` instance)::

    submit(query) ──> weight-keyed batcher ──> per-worker request queues
                     (load-adaptive, max_batch)         │ (N processes, each a
                                                        │  Server.from_artifact
    ServingTicket <── collector thread <── reply queue ─┘  cold start)

* **Load-adaptive batching.**  Queries are grouped by weight vector (the
  axis :meth:`repro.core.server.Server.execute_batch` amortizes: one
  subdomain search and one scoring pass per distinct weight vector).  A
  pending group leaves at once for a ready worker with no outstanding
  batch -- checked when a query is submitted or requeued, when a reply
  frees a worker and when a worker reports ready -- oldest group first.
  Batches therefore form only while every worker is busy, and a group that
  reaches ``max_batch`` goes at once to the least-loaded worker, so under
  saturation whole batches queue up (after Clipper's adaptive batching,
  Crankshaw et al., NSDI 2017).  At low load a query never waits for
  co-batchees; at high load batching amortizes as much as ``max_batch``
  allows.
* **Routing.**  Batches go to the ready worker with the fewest outstanding
  queries (ties broken round-robin), over one multiprocessing queue per
  worker; replies multiplex onto one shared reply queue.
* **Crash recovery.**  A pump thread watches worker processes; when one
  dies, every batch it still owed (queued *or* in flight -- both are
  tracked in ``outstanding``) is requeued to the surviving workers and the
  worker is respawned from the current artifact, so a worker crash costs
  latency, never a dropped query.
* **Epoch hot-swap.**  :meth:`ServingFrontEnd.broadcast_swap` sends a swap
  control message down every worker's FIFO request queue: batches queued
  before the swap finish on their entry epoch (each reply carries the epoch
  that served it, so the front-end can verify against the matching public
  parameters), later batches run on the new epoch, and no query is dropped.
* **Resilience integration.**  :meth:`ServingFrontEnd.replica_pool` wraps
  each worker in a :class:`WorkerProxy` carrying the server ``execute``
  surface, so the whole front-end can sit behind
  :class:`repro.resilience.pool.ReplicaPool` /
  :class:`~repro.resilience.pool.ResilientClient` -- per-query verification,
  retry, failover and quarantine with worker processes as the replicas.

Determinism discipline (RL010): this module never reads the wall clock
directly -- all timestamps come from the injected
:class:`~repro.serving.recorder.ServingClock` -- and contains no
randomness at all.  No batching or routing decision consults a timer: they
depend only on the order of submissions and worker replies, so the same
order replays the same batches to the same workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading
from dataclasses import dataclass, field
from queue import Empty
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ConstructionError, QueryProcessingError
from repro.core.queries import AnalyticQuery
from repro.core.server import QueryExecution
from repro.serving.recorder import ServingClock
from repro.serving.worker import WorkerReply, worker_main

__all__ = [
    "ServingTicket",
    "ServingFrontEnd",
    "SwapBroadcast",
    "WorkerProxy",
    "wait_all",
]

#: Default cap on the queries one batch carries.
DEFAULT_MAX_BATCH = 8
#: Seconds between the pump's worker-liveness checks (crash detection only).
PUMP_TICK = 0.001
#: Default seconds to wait for all workers to cold-start.
DEFAULT_START_TIMEOUT = 120.0


class ServingTicket:
    """One submitted query's lifecycle: enqueue -> dispatch -> reply.

    The timestamps are stamped by the front-end from its
    :class:`ServingClock` (``enqueued_at`` at submission, ``dispatched_at``
    when the batch left for a worker, ``completed_at`` when the reply
    arrived) -- the enqueue-to-completion difference is the user-visible
    latency the recorder reports.  ``wait`` blocks until the reply (or
    error) is in.
    """

    __slots__ = (
        "ticket_id",
        "query",
        "enqueued_at",
        "dispatched_at",
        "completed_at",
        "worker_id",
        "reply",
        "error",
        "_event",
    )

    def __init__(self, ticket_id: int, query: AnalyticQuery, enqueued_at: float):
        self.ticket_id = ticket_id
        self.query = query
        self.enqueued_at = enqueued_at
        self.dispatched_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.worker_id: Optional[int] = None
        self.reply: Optional[WorkerReply] = None
        self.error: Optional[str] = None
        self._event = threading.Event()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; returns False on timeout."""
        return self._event.wait(timeout)


def wait_all(
    tickets: Sequence[ServingTicket], timeout: float, clock: ServingClock
) -> List[ServingTicket]:
    """Wait for every ticket (shared deadline); returns the unresolved ones."""
    deadline = clock.now() + timeout
    pending: List[ServingTicket] = []
    for ticket in tickets:
        if not ticket.wait(max(0.0, deadline - clock.now())):
            pending.append(ticket)
    return pending


@dataclass(frozen=True)
class SwapBroadcast:
    """Outcome of one :meth:`ServingFrontEnd.broadcast_swap` call."""

    new_epoch: int
    swapped: Tuple[int, ...]
    errors: Tuple[str, ...]
    timed_out: Tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.errors and not self.timed_out


@dataclass
class _WorkerSlot:
    """Dispatcher-side bookkeeping for one worker process."""

    worker_id: int
    process: object = None
    request_queue: object = None
    ready: bool = False
    epoch: Optional[int] = None
    start_error: Optional[str] = None
    served: int = 0
    batches: int = 0
    busy_seconds: float = 0.0
    respawns: int = 0
    outstanding: Dict[int, List[ServingTicket]] = field(default_factory=dict)

    @property
    def outstanding_queries(self) -> int:
        return sum(len(tickets) for tickets in self.outstanding.values())


class ServingFrontEnd:
    """N worker processes behind one batching, crash-recovering dispatcher."""

    def __init__(
        self,
        artifact_path,
        workers: int = 4,
        *,
        base=None,
        expected_epoch: Optional[int] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        clock: Optional[ServingClock] = None,
        auto_respawn: bool = True,
        start_timeout: float = DEFAULT_START_TIMEOUT,
    ):
        if workers < 1:
            raise ValueError(f"a serving front-end needs >= 1 worker, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.artifact_path = str(artifact_path)
        self.workers = workers
        self.max_batch = max_batch
        self.clock = clock if clock is not None else ServingClock()
        self.auto_respawn = auto_respawn
        self.start_timeout = start_timeout
        # Worker processes are forked where possible: the fork inherits the
        # already-imported interpreter, so a worker's cold-start cost is the
        # artifact load itself, matching the bench's cold-start story.
        try:
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._mp = multiprocessing.get_context()
        self._spec: Tuple[str, Optional[str], Optional[int]] = (
            self.artifact_path,
            str(base) if base is not None else None,
            expected_epoch,
        )
        self._lock = threading.Lock()
        self._state_changed = threading.Condition(self._lock)
        self._slots: Dict[int, _WorkerSlot] = {}
        # Weight vector -> its pending tickets.  Groups are created when
        # their first ticket arrives and leave whole, so insertion order is
        # oldest group first.
        self._pending: Dict[tuple, List[ServingTicket]] = {}
        self._reply_queue = None
        self._running = False
        self._ticket_counter = 0
        self._batch_counter = 0
        self._cursor = 0
        self._swap_pending: set = set()
        self._swap_errors: List[str] = []
        self._submitted = 0
        self._requeued = 0
        self._pump: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ServingFrontEnd":
        """Fork the workers, wait for every cold start, begin dispatching."""
        if self._running:
            raise RuntimeError("front-end already started")
        self._reply_queue = self._mp.Queue()
        with self._lock:
            self._running = True
            for worker_id in range(self.workers):
                self._slots[worker_id] = _WorkerSlot(worker_id=worker_id)
                self._spawn_locked(worker_id, count_respawn=False)
        self._collector = threading.Thread(
            target=self._collector_loop, name="serving-collector", daemon=True
        )
        self._collector.start()
        self._pump = threading.Thread(
            target=self._pump_loop, name="serving-pump", daemon=True
        )
        self._pump.start()
        deadline = self.clock.now() + self.start_timeout
        with self._state_changed:
            while True:
                errors = [
                    slot.start_error
                    for slot in self._slots.values()
                    if slot.start_error is not None
                ]
                if errors:
                    break
                if all(slot.ready for slot in self._slots.values()):
                    return self
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    errors = ["timed out waiting for workers to cold-start"]
                    break
                self._state_changed.wait(remaining)
        self.stop()
        raise ConstructionError(
            "serving front-end failed to start: " + "; ".join(errors)
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Stop dispatching, ask workers to exit, reap the processes."""
        with self._lock:
            if not self._running and not self._slots:
                return
            self._running = False
            slots = list(self._slots.values())
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                # The queue may already be torn down when stop() races a
                # crashing worker; a lost stop message is harmless (the
                # process gets terminated below).
                with contextlib.suppress(OSError, ValueError):
                    slot.request_queue.put(("stop",))
        for slot in slots:
            if slot.process is not None:
                slot.process.join(timeout)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout)
        for thread in (self._pump, self._collector):
            if thread is not None:
                thread.join(timeout)
        self._pump = None
        self._collector = None

    def __enter__(self) -> "ServingFrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------ submission
    def submit(self, query: AnalyticQuery) -> ServingTicket:
        """Enqueue one query; returns its ticket immediately (open loop)."""
        with self._lock:
            if not self._running:
                raise RuntimeError("front-end is not running")
            ticket = ServingTicket(
                ticket_id=self._ticket_counter,
                query=query,
                enqueued_at=self.clock.now(),
            )
            self._ticket_counter += 1
            self._submitted += 1
            self._enqueue_locked(ticket)
            self._dispatch_idle_locked()
        return ticket

    def submit_many(self, queries: Sequence[AnalyticQuery]) -> List[ServingTicket]:
        return [self.submit(query) for query in queries]

    def flush(self) -> None:
        """Dispatch every pending group now, to the least-loaded workers."""
        with self._lock:
            for key in list(self._pending):
                self._flush_group_locked(key)

    def drain(self, tickets: Sequence[ServingTicket], timeout: float = 30.0) -> None:
        """Flush and wait until every ticket resolves (raises on timeout)."""
        self.flush()
        pending = wait_all(tickets, timeout, self.clock)
        if pending:
            raise TimeoutError(
                f"{len(pending)} of {len(tickets)} queries unresolved after {timeout}s"
            )

    # ------------------------------------------------------------- hot swap
    def broadcast_swap(
        self,
        path,
        *,
        base=None,
        expected_epoch: Optional[int] = None,
        timeout: float = 30.0,
    ) -> SwapBroadcast:
        """Hot-swap every worker to a newer epoch without dropping queries.

        The swap message rides each worker's FIFO request queue behind any
        already-dispatched batches, so in-flight work finishes on its entry
        epoch.  Workers that die mid-swap are respawned from the *new*
        artifact (the respawn spec is updated first), which counts as
        swapped once their cold start completes.
        """
        if expected_epoch is None:
            from repro.core.artifact import load_public_parameters

            expected_epoch = load_public_parameters(path).epoch
        with self._lock:
            if not self._running:
                raise RuntimeError("front-end is not running")
            self._spec = (
                str(path),
                str(base) if base is not None else None,
                expected_epoch,
            )
            self._swap_errors = []
            self._swap_pending = {
                slot.worker_id for slot in self._slots.values() if slot.ready
            }
            for slot in self._slots.values():
                if slot.ready:
                    slot.request_queue.put(
                        ("swap", str(path), self._spec[1], expected_epoch)
                    )
        deadline = self.clock.now() + timeout
        with self._state_changed:
            while self._swap_pending:
                remaining = deadline - self.clock.now()
                if remaining <= 0:
                    break
                self._state_changed.wait(remaining)
            timed_out = tuple(sorted(self._swap_pending))
            self._swap_pending = set()
            swapped = tuple(
                sorted(
                    slot.worker_id
                    for slot in self._slots.values()
                    if slot.epoch == expected_epoch
                )
            )
            return SwapBroadcast(
                new_epoch=expected_epoch,
                swapped=swapped,
                errors=tuple(self._swap_errors),
                timed_out=timed_out,
            )

    # ------------------------------------------------------- fault injection
    def inject_crash(self, worker_id: int) -> None:
        """Deterministically kill one worker (it dies mid-queue, un-flushed)."""
        with self._lock:
            slot = self._slot_locked(worker_id)
            slot.request_queue.put(("crash", 1))

    def respawn(self, worker_id: int) -> None:
        """Manually respawn a dead worker from the current artifact spec."""
        with self._lock:
            slot = self._slot_locked(worker_id)
            if slot.process is not None and slot.process.is_alive():
                raise RuntimeError(f"worker {worker_id} is still alive")
            self._recover_worker_locked(slot)

    # ------------------------------------------------------------ resilience
    def replica_pool(self, **pool_kwargs):
        """The workers as a :class:`repro.resilience.pool.ReplicaPool`.

        Each worker becomes a :class:`WorkerProxy` replica with the server
        ``execute`` surface; pool semantics (round-robin, quarantine,
        half-open probing) and :class:`ResilientClient` verification then
        apply to worker processes exactly as to in-process servers.
        """
        from repro.resilience.pool import ReplicaPool

        return ReplicaPool(
            [WorkerProxy(self, worker_id) for worker_id in sorted(self._slots)],
            **pool_kwargs,
        )

    def wait_ready(self, worker_id: int, timeout: float = 30.0) -> bool:
        """Block until a worker reports ready (e.g. after a respawn).

        A respawned worker cold-starts from the artifact; callers that
        dispatch to it directly (``execute_on``) should wait here first.
        Returns ``False`` on timeout instead of raising so pollers can
        keep their own deadline policy.
        """
        with self._state_changed:
            slot = self._slot_locked(worker_id)
            deadline = self.clock.now() + timeout
            while not slot.ready:
                remaining = deadline - self.clock.now()
                if remaining <= 0.0 or not self._running:
                    return False
                self._state_changed.wait(remaining)
            return True

    def execute_on(
        self, worker_id: int, query: AnalyticQuery, timeout: float = 30.0
    ) -> WorkerReply:
        """One query straight to one worker, bypassing the batcher.

        The single-replica path :class:`WorkerProxy` builds on; raises
        :class:`QueryProcessingError` when the worker is down, errors or
        misses the deadline (all three are "replica fault" to a pool).
        """
        with self._lock:
            slot = self._slot_locked(worker_id)
            if not self._running:
                raise RuntimeError("front-end is not running")
            if not slot.ready:
                raise QueryProcessingError(f"worker {worker_id} is not serving")
            ticket = ServingTicket(
                ticket_id=self._ticket_counter,
                query=query,
                enqueued_at=self.clock.now(),
            )
            self._ticket_counter += 1
            self._submitted += 1
            self._dispatch_locked(slot, [ticket])
        if not ticket.wait(timeout):
            raise QueryProcessingError(
                f"worker {worker_id} missed the {timeout}s reply deadline"
            )
        if ticket.error is not None:
            raise QueryProcessingError(
                f"worker {worker_id} failed the query: {ticket.error}"
            )
        return ticket.reply

    # ------------------------------------------------------------ inspection
    def worker_stats(self) -> Dict[int, Dict[str, object]]:
        with self._lock:
            return {
                slot.worker_id: {
                    "ready": slot.ready,
                    "epoch": slot.epoch,
                    "served": slot.served,
                    "batches": slot.batches,
                    "busy_seconds": slot.busy_seconds,
                    "respawns": slot.respawns,
                    "outstanding": slot.outstanding_queries,
                }
                for slot in self._slots.values()
            }

    @property
    def submitted(self) -> int:
        return self._submitted

    @property
    def requeued(self) -> int:
        """Queries re-dispatched after their worker died (never dropped)."""
        return self._requeued

    def epochs(self) -> Dict[int, Optional[int]]:
        with self._lock:
            return {slot.worker_id: slot.epoch for slot in self._slots.values()}

    # ------------------------------------------------------------- internals
    def _slot_locked(self, worker_id: int) -> _WorkerSlot:
        try:
            return self._slots[worker_id]
        except KeyError:
            raise KeyError(f"no worker with id {worker_id}") from None

    def _spawn_locked(self, worker_id: int, *, count_respawn: bool) -> None:
        slot = self._slots[worker_id]
        path, base, expected_epoch = self._spec
        slot.request_queue = self._mp.Queue()
        slot.ready = False
        slot.start_error = None
        if count_respawn:
            slot.respawns += 1
        slot.process = self._mp.Process(
            target=worker_main,
            args=(
                worker_id,
                path,
                base,
                expected_epoch,
                slot.request_queue,
                self._reply_queue,
            ),
            daemon=True,
            name=f"serving-worker-{worker_id}",
        )
        slot.process.start()

    def _enqueue_locked(self, ticket: ServingTicket) -> None:
        key = tuple(ticket.query.weights)
        group = self._pending.setdefault(key, [])
        group.append(ticket)
        if len(group) >= self.max_batch:
            self._flush_group_locked(key)

    def _flush_group_locked(self, key: tuple) -> None:
        slot = self._pick_worker_locked()
        if slot is None:
            return  # no ready worker right now; the next "ready" dispatches it
        self._dispatch_locked(slot, self._pending.pop(key))

    def _dispatch_idle_locked(self) -> None:
        """Hand the oldest pending groups to ready workers owing nothing.

        Stops with the front-end: replies still arriving during ``stop`` must
        not send new batches after the workers' stop messages.
        """
        while self._running and self._pending:
            slot = self._pick_worker_locked(idle=True)
            if slot is None:
                return
            self._dispatch_locked(slot, self._pending.pop(next(iter(self._pending))))

    def _pick_worker_locked(self, *, idle: bool = False) -> Optional[_WorkerSlot]:
        """The ready worker with the fewest outstanding queries, ties broken
        round-robin; with ``idle``, only a worker owing nothing qualifies."""
        ready = [
            slot
            for slot in self._slots.values()
            if slot.ready and not (idle and slot.outstanding)
        ]
        if not ready:
            return None
        count = len(self._slots)
        chosen = min(
            ready,
            key=lambda slot: (
                slot.outstanding_queries,
                (slot.worker_id - self._cursor) % count,
            ),
        )
        self._cursor = (chosen.worker_id + 1) % count
        return chosen

    def _dispatch_locked(self, slot: _WorkerSlot, tickets: List[ServingTicket]) -> None:
        batch_id = self._batch_counter
        self._batch_counter += 1
        now = self.clock.now()
        for ticket in tickets:
            ticket.dispatched_at = now
        slot.outstanding[batch_id] = tickets
        slot.request_queue.put(
            ("batch", batch_id, [ticket.query for ticket in tickets])
        )

    def _recover_worker_locked(self, slot: _WorkerSlot) -> None:
        """Requeue a dead worker's owed queries, then respawn it."""
        slot.ready = False
        orphans = [
            ticket
            for tickets in slot.outstanding.values()
            for ticket in tickets
            if not ticket.done
        ]
        slot.outstanding = {}
        for ticket in orphans:
            self._requeued += 1
            self._enqueue_locked(ticket)
        self._dispatch_idle_locked()
        self._swap_pending.discard(slot.worker_id)
        self._state_changed.notify_all()
        if self._running:
            self._spawn_locked(slot.worker_id, count_respawn=True)

    # --------------------------------------------------------------- threads
    def _pump_loop(self) -> None:
        """Worker-death detection; dispatch never waits on this thread."""
        while True:
            with self._state_changed:
                if not self._running:
                    return
                for slot in self._slots.values():
                    if (
                        slot.process is not None
                        and not slot.process.is_alive()
                        and (slot.ready or slot.outstanding)
                    ):
                        if self.auto_respawn:
                            self._recover_worker_locked(slot)
                        else:
                            slot.ready = False
                            self._swap_pending.discard(slot.worker_id)
                            self._state_changed.notify_all()
            self.clock.sleep(PUMP_TICK)

    def _collector_loop(self) -> None:
        """Drain the shared reply queue and resolve tickets."""
        while True:
            try:
                message = self._reply_queue.get(timeout=0.05)
            except Empty:
                if not self._running:
                    return
                continue
            except (EOFError, OSError):  # queue torn down during stop
                return
            with self._state_changed:
                self._on_message_locked(message)

    def _on_message_locked(self, message) -> None:
        """Apply one worker message, then dispatch to any worker it idled."""
        kind = message[0]
        if kind == "batch":
            self._on_batch_locked(message)
        elif kind == "batch-error":
            self._on_batch_error_locked(message)
        elif kind == "ready":
            _, worker_id, epoch = message
            slot = self._slots.get(worker_id)
            if slot is not None:
                slot.ready = True
                slot.epoch = epoch
        elif kind == "swapped":
            _, worker_id, epoch = message
            slot = self._slots.get(worker_id)
            if slot is not None:
                slot.epoch = epoch
            self._swap_pending.discard(worker_id)
        elif kind == "swap-error":
            _, worker_id, detail = message
            self._swap_errors.append(f"worker {worker_id}: {detail}")
            self._swap_pending.discard(worker_id)
        elif kind == "start-error":
            _, worker_id, detail = message
            slot = self._slots.get(worker_id)
            if slot is not None:
                slot.start_error = detail
        # A reply frees a worker and a ready report adds one.
        self._dispatch_idle_locked()
        self._state_changed.notify_all()

    def _on_batch_locked(self, message) -> None:
        _, worker_id, batch_id, replies, service_seconds = message
        slot = self._slots.get(worker_id)
        if slot is None:
            return
        tickets = slot.outstanding.pop(batch_id, None)
        if tickets is None:
            return  # batch was requeued after a presumed death; late reply
        slot.batches += 1
        slot.busy_seconds += service_seconds
        now = self.clock.now()
        for ticket, reply in zip(tickets, replies):
            if ticket.done:
                continue  # already resolved by a requeued duplicate
            ticket.reply = reply
            ticket.worker_id = worker_id
            ticket.completed_at = now
            slot.served += 1
            ticket._event.set()

    def _on_batch_error_locked(self, message) -> None:
        _, worker_id, batch_id, detail = message
        slot = self._slots.get(worker_id)
        if slot is None:
            return
        tickets = slot.outstanding.pop(batch_id, None)
        if tickets is None:
            return
        now = self.clock.now()
        for ticket in tickets:
            if ticket.done:
                continue
            ticket.error = detail
            ticket.worker_id = worker_id
            ticket.completed_at = now
            ticket._event.set()


class WorkerProxy:
    """One serving worker presented through the server ``execute`` surface.

    Makes a worker *process* a drop-in replica for
    :class:`repro.resilience.pool.ReplicaPool`: ``execute`` raises
    :class:`QueryProcessingError` when the worker is dead, errors or times
    out (the pool's "replica fault, try another one"), and ``epoch``
    exposes the worker's current ADS epoch for staleness accounting.
    """

    def __init__(self, frontend: ServingFrontEnd, worker_id: int, timeout: float = 30.0):
        self.frontend = frontend
        self.worker_id = worker_id
        self.timeout = timeout

    @property
    def epoch(self) -> Optional[int]:
        return self.frontend.epochs().get(self.worker_id)

    def execute(self, query: AnalyticQuery) -> QueryExecution:
        reply = self.frontend.execute_on(self.worker_id, query, timeout=self.timeout)
        return QueryExecution(
            query=reply.query,
            result=reply.result,
            verification_object=reply.verification_object,
            counters=reply.counters,
        )
