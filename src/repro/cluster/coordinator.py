"""The cluster coordinator: a scenario service whose backend is a pool.

One :class:`ClusterCoordinator` listens on one port and speaks the
ordinary service protocol to clients (``submit``/``status``/``stream``/
``cancel``/``shutdown``) *and* the worker protocol to
``repro worker`` processes (``register``/``heartbeat``/
``lease-result``) on the same listener.  Submitted jobs flow through
the server machinery unchanged — validation, streaming, cancel,
status — but execution happens in the :class:`ClusterPool`: every
spec becomes one lease off a work-stealing queue, so a slow worker
never strands the tail of a sweep.  A worker holds its ``capacity``
of leases at least, and beyond that a *window* of cheap specs sized
from their measured cost, so a sweep of sub-millisecond specs does
not pay a lease round trip per spec.

Failure model:

* a worker connection drop (or missed heartbeats past the lease
  timeout) requeues its in-flight leases at the *front* of the
  backlog and returns its unstarted queue items to the backlog; only
  the head lease — the one it was executing — is charged against
  the spec's retry budget;
* a coordinator crash is recovered by ``--resume``: the job journal
  is replayed, finished jobs are restored for late ``status``/
  ``stream`` requests, unfinished jobs re-enter the pool with only
  their *pending* specs — journal-completed specs are never
  re-executed (and the journal's lease trail proves it);
* a stale lease result (from a worker that was evicted and later
  answers anyway) is dropped; the requeued copy of that spec is the
  one whose result counts.  Determinism makes the occasional double
  execution harmless.
"""

from __future__ import annotations

import asyncio
import math
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.cluster.journal import JobJournal, JournalState
from repro.cluster.queue import WorkStealingQueue
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import PoolBackend
from repro.service.protocol import ProtocolError
from repro.service.server import DEFAULT_HOST, Job, ScenarioServer
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id

DEFAULT_PORT = 7452
DEFAULT_LEASE_TIMEOUT_S = 30.0

_COMPONENT = "cluster.coordinator"

#: involuntary requeues one spec survives before quarantine (shared by
#: the pool scheduler and the federation front).
DEFAULT_MAX_SPEC_RETRIES = 5


def quarantine_result(
    spec: ScenarioSpec,
    requeues: int,
    max_retries: int,
    *,
    backend: str = "cluster",
    suspect: str = "workers",
) -> ScenarioResult:
    """A poisoned spec's structured failure result.

    Shared by :class:`ClusterPool` (a spec that keeps killing workers)
    and the federation front (a spec that keeps killing whole pools):
    past the retry budget the spec terminates as an ``error`` result
    instead of cycling through every replacement the supervisor or
    breaker brings up.
    """
    return ScenarioResult(
        name=spec.name,
        spec_hash=spec.content_hash,
        params=dict(spec.params),
        seed=spec.seed,
        tags=tuple(sorted(spec.tags)),
        status="error",
        backend=backend,
        error=(
            f"quarantined: requeued {requeues} times "
            f"(max_spec_retries={max_retries}) — suspected poisoned "
            f"spec (kills or wedges {suspect})"
        ),
    )


class WorkItem:
    """One spec awaiting (or under) execution for one batch."""

    __slots__ = ("spec", "job_id", "sink", "batch_id", "abandoned",
                 "delivered", "leased_at", "estimate_s", "requeues",
                 "trace_id", "span_id", "parent_span")

    def __init__(self, spec: ScenarioSpec, job_id: str, sink,
                 batch_id: str):
        self.spec = spec
        self.job_id = job_id
        self.sink = sink          # thread-safe queue.Queue of the batch
        self.batch_id = batch_id
        self.abandoned = False
        self.delivered = False
        self.leased_at = 0.0      # loop time of the latest grant
        self.estimate_s = 0.0     # cost charged to the holder's window
        # involuntary requeues only (worker death, undecodable result)
        # — graceful lease releases are free.  Past max_spec_retries
        # the spec is quarantined instead of requeued.
        self.requeues = 0
        # trace identity of the *latest* grant: the lease span id is
        # re-minted per grant, so only the grant that completes emits
        self.trace_id = ""
        self.span_id = ""
        self.parent_span = ""


class BatchTable:
    """Open backend batches, each with its count of undelivered items.

    Shared by :class:`ClusterPool` and the federation front.  The count
    makes closing a batch O(1) per delivery, where rescanning its items
    cost O(batch) per spec and O(batch²) per sweep.  Requeues and
    releases leave an item undelivered, so only :meth:`deliver` moves
    the count; an abandoned batch leaves the table at once.  Not
    thread-safe: each pool calls it under its own serialization.
    """

    def __init__(self) -> None:
        #: batch id -> [items, undelivered count]
        self._open: Dict[str, list] = {}

    def __len__(self) -> int:
        return len(self._open)

    def open(self, batch_id: str, items: List[WorkItem]) -> None:
        if items:
            self._open[batch_id] = [items, len(items)]

    def deliver(self, item: WorkItem) -> None:
        """Mark *item* delivered; close its batch on the last one."""
        item.delivered = True
        entry = self._open.get(item.batch_id)
        if entry is not None:
            entry[1] -= 1
            if entry[1] == 0:
                del self._open[item.batch_id]

    def abandon(self, batch_id: str) -> None:
        """Drop a batch's undelivered items (cancel / client abandon)."""
        items, _undelivered = self._open.pop(batch_id, ((), 0))
        for item in items:
            item.abandoned = True

    def abandon_all(self, reason: str) -> None:
        """Abandon every open batch and wake each one with an abort."""
        for items, _undelivered in self._open.values():
            for item in items:
                item.abandoned = True
            items[0].sink.put(("abort", reason))
        self._open.clear()


class WorkerHandle:
    """Coordinator-side state for one registered worker connection."""

    def __init__(self, worker_id: str, name: str, capacity: int,
                 writer, lock: asyncio.Lock, now: float):
        self.id = worker_id
        self.name = name
        self.capacity = max(1, capacity)
        self.writer = writer
        self.lock = lock
        self.last_seen = now
        #: lease id -> item, in grant order (the worker executes in
        #: that order, so the first entry is the one it is running)
        self.leases: Dict[str, WorkItem] = {}
        #: summed cost estimate of the held leases (the window fill)
        self.held_s = 0.0
        self.connected = True
        self.completed = 0
        # set when the worker sends a release frame: a draining worker
        # gets no further grants, or its returned leases would bounce
        # straight back to it
        self.draining = False

    def status(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "leases": len(self.leases),
            "completed": self.completed,
        }


class ClusterPool:
    """Work-stealing spec scheduler over registered workers.

    Lives entirely on the coordinator's event loop; the only
    cross-thread surfaces are :meth:`submit_batch` (scheduled via
    ``run_coroutine_threadsafe`` by :class:`PoolBackend`),
    :meth:`abandon_batch` (via ``call_soon_threadsafe``) and the
    thread-safe sink queues results are delivered to.
    """

    #: involuntary requeues one spec survives before quarantine.
    DEFAULT_MAX_SPEC_RETRIES = DEFAULT_MAX_SPEC_RETRIES
    #: estimated seconds of work a worker may hold beyond its capacity
    WINDOW_BUDGET_S = 0.005
    #: hard cap on the leases one worker holds through its window
    WINDOW_CAP = 32
    #: weight of the newest wall time in a scenario's running mean
    COST_WEIGHT = 0.25

    def __init__(
        self,
        journal: Optional[JobJournal] = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        max_spec_retries: Optional[int] = None,
        chaos=None,
    ):
        self.journal = journal
        self.lease_timeout_s = lease_timeout_s
        self.max_spec_retries = (
            self.DEFAULT_MAX_SPEC_RETRIES
            if max_spec_retries is None else max(0, max_spec_retries)
        )
        #: optional :class:`repro.cluster.chaos.ChaosMonkey`; the
        #: ``kill-pool`` trigger is counted per granted lease and takes
        #: the whole coordinator process down abruptly.
        self.chaos = chaos
        #: callable ``job_id -> (trace_id, job_span_id) | None`` set by
        #: the owning coordinator so lease spans parent on job spans
        #: without the pool reaching into server state.
        self.trace_resolver = None
        self.heartbeat_s = max(0.05, lease_timeout_s / 4.0)
        self.queue = WorkStealingQueue()
        self.workers: Dict[str, WorkerHandle] = {}
        self._by_writer: Dict[int, str] = {}
        self._batches = BatchTable()
        #: scenario name -> running mean of its specs' wall time, and
        #: the estimate windows are sized with
        self._mean: Dict[str, float] = {}
        self._cost: Dict[str, float] = {}
        self.closed = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self._worker_counter = 0
        self._lease_counter = 0
        self._batch_counter = 0
        self.total_completed = 0
        self.total_requeued = 0
        self.total_quarantined = 0
        self.total_released = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        self.loop = loop
        self._monitor_task = loop.create_task(self._monitor())

    def shutdown(self) -> None:
        """Stop scheduling; wake every blocked batch with an abort."""
        if self.closed:
            return
        self.closed = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        self._batches.abandon_all("coordinator stopped")
        for worker in list(self.workers.values()):
            worker.connected = False
            try:
                worker.writer.close()
            except Exception:
                pass

    def describe(self) -> str:
        return (
            f"workers={len(self.workers)}, queued={self.queue.pending()}, "
            f"lease_timeout={self.lease_timeout_s:g}s"
        )

    def status(self) -> Dict[str, Any]:
        return {
            "workers": {w.id: w.status() for w in self.workers.values()},
            "queued": self.queue.pending(),
            "inflight": sum(len(w.leases) for w in self.workers.values()),
            "completed": self.total_completed,
            "requeued": self.total_requeued,
            "quarantined": self.total_quarantined,
            "released": self.total_released,
            "steals": self.queue.steals,
        }

    def backlog(self) -> int:
        """Queued + in-flight specs — the autoscaler's demand signal."""
        return self.queue.pending() + sum(
            len(w.leases) for w in self.workers.values()
        )

    # -- batches (PoolBackend face) ------------------------------------------

    async def submit_batch(self, specs: List[ScenarioSpec], sink,
                           label: Optional[str] = None) -> str:
        """Queue every spec of one backend batch; returns the batch id."""
        self._batch_counter += 1
        batch_id = f"batch-{self._batch_counter}"
        if self.closed:
            sink.put(("abort", "coordinator stopped"))
            return batch_id
        items = [
            WorkItem(spec, job_id=label or "", sink=sink,
                     batch_id=batch_id)
            for spec in specs
        ]
        self._batches.open(batch_id, items)
        for item in items:
            self.queue.push(item)
        await self.dispatch_all()
        return batch_id

    def abandon_batch(self, batch_id: str) -> None:
        """Drop a batch's undelivered items (cancel / client abandon)."""
        self._batches.abandon(batch_id)

    # -- workers -------------------------------------------------------------

    def register(self, name: str, capacity: int, writer,
                 lock: asyncio.Lock) -> WorkerHandle:
        self._worker_counter += 1
        worker = WorkerHandle(
            f"w{self._worker_counter}", name, capacity, writer, lock,
            now=self.loop.time(),
        )
        self.workers[worker.id] = worker
        self._by_writer[id(writer)] = worker.id
        self.queue.add_worker(worker.id)
        METRICS.counter("cluster.workers_registered").inc()
        METRICS.gauge("cluster.workers").set(len(self.workers))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-register", worker=worker.id,
                     name=name, capacity=worker.capacity)
        return worker

    def worker_for_writer(self, writer) -> Optional[WorkerHandle]:
        worker_id = self._by_writer.get(id(writer))
        return self.workers.get(worker_id) if worker_id else None

    def heartbeat(self, worker: WorkerHandle) -> None:
        # liveness is per worker, not per lease: one pulse renews every
        # lease the worker holds (a long scenario just keeps pulsing)
        worker.last_seen = self.loop.time()

    def worker_lost(self, worker_id: str) -> None:
        """Evict a worker; requeue its leases ahead of fresh work."""
        worker = self.workers.pop(worker_id, None)
        if worker is None:
            return
        worker.connected = False
        self._by_writer.pop(id(worker.writer), None)
        leases = list(worker.leases.values())
        worker.leases.clear()
        worker.held_s = 0.0
        # only the head lease, the one the worker was executing, can
        # have taken it down; the rest of its window was prefetched and
        # goes back uncharged.  Pushed tail first, so the window keeps
        # its order at the front of the backlog.
        requeued = 0
        for n, item in reversed(list(enumerate(leases))):
            if not item.abandoned and not item.delivered:
                if self._requeue_or_quarantine(item, front=True,
                                               charge=n == 0):
                    requeued += 1
        self.queue.remove_worker(worker_id)
        METRICS.counter("cluster.workers_lost").inc()
        METRICS.gauge("cluster.workers").set(len(self.workers))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "worker-lost", worker=worker_id,
                     name=worker.name, requeued=requeued)
        if not self.closed and (requeued or self.queue.pending()):
            self.loop.create_task(self.dispatch_all())

    def _requeue_or_quarantine(self, item: WorkItem, front: bool,
                               charge: bool = True) -> bool:
        """Requeue an involuntarily-lost lease, or quarantine it.

        Returns True when the item went back on the queue.  A charged
        call burns one retry; past ``max_spec_retries`` the spec is
        deemed poisoned — it has now taken down (or confused) too many
        workers — and is converted into a structured failure result so
        the batch can finish instead of cycling the same landmine
        through every worker the supervisor restarts.
        """
        if charge:
            item.requeues += 1
            if item.requeues > self.max_spec_retries:
                self._quarantine(item)
                return False
        if front:
            self.queue.push_front(item)
        else:
            self.queue.push(item)
        self.total_requeued += 1
        METRICS.counter("cluster.leases_requeued").inc()
        return True

    def _quarantine(self, item: WorkItem) -> None:
        """Deliver a poisoned spec as an error result, not a retry."""
        spec = item.spec
        result = quarantine_result(
            spec, item.requeues, self.max_spec_retries,
            backend="cluster", suspect="workers",
        )
        self._batches.deliver(item)
        self.total_quarantined += 1
        METRICS.counter("cluster.quarantined").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "quarantine", job_id=item.job_id,
                     spec_hash=spec.content_hash,
                     requeues=item.requeues)
        item.sink.put(("result", result))

    def release(self, worker: WorkerHandle,
                lease_ids: List[str]) -> int:
        """Take back leases a draining worker returns unstarted.

        A graceful release goes to the *front* of the backlog (it was
        already next in line) and does not count against the spec's
        retry budget — the spec did nothing wrong.
        """
        worker.draining = True    # no more grants to this worker
        returned = 0
        for lease_id in lease_ids:
            item = worker.leases.pop(lease_id, None)
            if item is None:
                continue
            self._unhold(worker, item)
            if not item.abandoned and not item.delivered:
                self.queue.push_front(item)
                returned += 1
        self.total_released += returned
        METRICS.counter("cluster.leases_released").inc(returned)
        if BUS.enabled:
            BUS.emit(_COMPONENT, "lease-release", worker=worker.id,
                     released=returned)
        if returned and not self.closed:
            self.loop.create_task(self.dispatch_all())
        return returned

    async def complete(self, worker: WorkerHandle, lease_id: str,
                       result_data: Mapping[str, Any]) -> None:
        worker.last_seen = self.loop.time()
        item = worker.leases.pop(lease_id, None)
        if item is None:
            # stale lease: already expired and requeued
            METRICS.counter("cluster.stale_results").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "stale-result", worker=worker.id,
                         lease=lease_id)
            return
        self._unhold(worker, item)
        if not item.abandoned and not item.delivered:
            try:
                result = ScenarioResult.from_dict(result_data)
                elapsed_s = float(result.elapsed_s)
            except (KeyError, TypeError, ValueError):
                # an undecodable result must not orphan the spec;
                # requeue it WITHOUT re-granting this worker, or a
                # deterministic decode failure would spin at network
                # speed (heartbeats re-pump idle workers instead)
                self._requeue_or_quarantine(item, front=False)
                raise
            self._learn(item.spec.name, elapsed_s)
            self._batches.deliver(item)
            worker.completed += 1
            self.total_completed += 1
            METRICS.counter("cluster.leases_completed").inc()
            if item.leased_at:
                # grant-to-result latency: execution + queueing + wire
                METRICS.histogram("cluster.lease_latency_s").observe(
                    self.loop.time() - item.leased_at
                )
            if BUS.enabled:
                BUS.emit(_COMPONENT, "lease-complete",
                         job_id=item.job_id,
                         spec_hash=item.spec.content_hash,
                         worker=worker.id, lease=lease_id,
                         status=result.status)
                if item.trace_id:
                    emit_span(
                        _COMPONENT, "lease",
                        trace_id=item.trace_id, span_id=item.span_id,
                        parent_id=item.parent_span,
                        job_id=item.job_id,
                        spec_hash=item.spec.content_hash,
                        duration_s=self.loop.time() - item.leased_at,
                        worker=worker.id, status=result.status,
                    )
            item.sink.put(("result", result))
        await self._grant(worker)

    # -- scheduling ----------------------------------------------------------

    def _estimate(self, spec: ScenarioSpec) -> float:
        """Expected wall time of *spec*: its scenario's estimate, or a
        full window for a scenario not seen yet."""
        return self._cost.get(spec.name, self.WINDOW_BUDGET_S)

    def _learn(self, name: str, elapsed_s: float) -> None:
        """Fold one wall time into *name*'s estimate.

        The estimate assumes a scenario's cost can be told from its
        name, and errs high where it cannot: it is the larger of the
        running mean and the latest wall time, so a sweep whose cost
        rises with a parameter is windowed at its newest cost, not at
        a lagging mean, while one slow outlier only holds the window
        back until the scenario's next result.  A wall time that is
        negative or not finite teaches nothing.
        """
        if not 0.0 <= elapsed_s < math.inf:
            return
        mean = self._mean.get(name)
        mean = elapsed_s if mean is None else (
            mean + self.COST_WEIGHT * (elapsed_s - mean)
        )
        self._mean[name] = mean
        self._cost[name] = max(mean, elapsed_s)

    @staticmethod
    def _unhold(worker: WorkerHandle, item: WorkItem) -> None:
        """Take a lease that left *worker* out of its window fill."""
        if worker.leases:
            worker.held_s -= item.estimate_s
        else:
            worker.held_s = 0.0   # no float drift on an empty window

    async def dispatch_all(self) -> None:
        for worker in list(self.workers.values()):
            await self._grant(worker)

    async def _grant(self, worker: WorkerHandle) -> None:
        """Top *worker* up: its ``capacity`` floor, then its window.

        The floor takes items one at a time from the worker's own
        deque, the backlog or a steal.  The window only tops up once
        the estimate the worker holds has fallen below half of
        :attr:`WINDOW_BUDGET_S`, and only from the worker's own deque,
        so it never takes work another idle worker would get.  It takes
        the next item while that fits the budget, up to
        :attr:`WINDOW_CAP` leases; a heavy spec therefore only lands in
        an empty window.  The grant goes out as one write and one
        journal flush.
        """
        if (self.closed or not worker.connected or worker.draining
                or worker.id not in self.workers):
            return
        granted: List[tuple] = []
        while len(worker.leases) < worker.capacity:
            item = self.queue.pop(worker.id)
            if item is None:
                break
            lease = self._lease(worker, item, self.queue.stole_last)
            if lease is not None:
                granted.append(lease)
        budget = self.WINDOW_BUDGET_S
        if worker.held_s < budget / 2:
            def fits(item: WorkItem) -> bool:
                return (item.abandoned or item.delivered
                        or worker.held_s + self._estimate(item.spec)
                        <= budget)

            while len(worker.leases) < self.WINDOW_CAP:
                item = self.queue.pop_own(worker.id, fits)
                if item is None:
                    break
                lease = self._lease(worker, item, False)
                if lease is not None:
                    granted.append(lease)
        if not granted:
            return
        METRICS.counter("cluster.leases_granted").inc(len(granted))
        METRICS.gauge("cluster.queued").set(self.queue.pending())
        if self.journal is not None:
            self.journal.record_leases(
                (item.job_id, item.spec.content_hash, worker.id)
                for _lease_id, item, _frame in granted
            )
        try:
            async with worker.lock:
                worker.writer.write(
                    b"".join(frame for _l, _i, frame in granted)
                )
                await worker.writer.drain()
        except OSError:
            self.worker_lost(worker.id)
            return
        if self.chaos is not None:
            for lease_id, _item, _frame in granted:
                if self.chaos.fire("kill-pool"):
                    # chaos: the whole pool dies abruptly at this
                    # grant — the in-schedule stand-in for SIGKILLing a
                    # federated pool (no farewell frames, journal left
                    # mid-job)
                    import os as _os
                    import sys as _sys

                    print(
                        f"chaos: kill-pool firing at lease {lease_id}",
                        file=_sys.stderr, flush=True,
                    )
                    _os._exit(86)

    def _lease(self, worker: WorkerHandle, item: WorkItem,
               stolen: bool) -> Optional[tuple]:
        """Book *item* as a new lease of *worker*; returns
        ``(lease_id, item, frame)``, or None for an item already done
        with and for a spec too large to lease, which burns a retry
        instead of evicting the worker."""
        if item.abandoned or item.delivered:
            return None
        self._lease_counter += 1
        lease_id = f"lease-{self._lease_counter}"
        trace = None
        if self.trace_resolver is not None and item.job_id:
            context = self.trace_resolver(item.job_id)
            if context:
                item.trace_id, item.parent_span = context
                item.span_id = new_span_id()
                trace = {"id": item.trace_id, "span": item.span_id}
        try:
            frame = protocol.encode_frame(
                protocol.make_lease(lease_id, item.spec.to_dict(),
                                    job=item.job_id, trace=trace)
            )
        except ProtocolError:
            self._requeue_or_quarantine(item, front=False)
            return None
        worker.leases[lease_id] = item
        item.leased_at = self.loop.time()
        item.estimate_s = self._estimate(item.spec)
        worker.held_s += item.estimate_s
        if stolen:
            METRICS.counter("cluster.steals").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT,
                     "lease-steal" if stolen else "lease-grant",
                     job_id=item.job_id,
                     spec_hash=item.spec.content_hash,
                     worker=worker.id, lease=lease_id)
        return lease_id, item, frame

    async def _monitor(self) -> None:
        """Expire leases of workers that stopped heartbeating."""
        try:
            while not self.closed:
                await asyncio.sleep(self.heartbeat_s)
                deadline = self.loop.time() - self.lease_timeout_s
                stale = [
                    w for w in self.workers.values()
                    if w.last_seen < deadline
                ]
                for worker in stale:
                    METRICS.counter("cluster.heartbeat_misses").inc()
                    if BUS.enabled:
                        BUS.emit(_COMPONENT, "heartbeat-miss",
                                 worker=worker.id, name=worker.name,
                                 silent_for_s=round(
                                     self.loop.time() - worker.last_seen,
                                     3,
                                 ))
                    try:
                        worker.writer.close()
                    except Exception:
                        pass
                    self.worker_lost(worker.id)
        except asyncio.CancelledError:
            pass


class JournaledServer(ScenarioServer):
    """A :class:`ScenarioServer` whose jobs survive a crash.

    The shared durability layer under both the cluster coordinator and
    the federation front (:mod:`repro.cluster.federation`): every job
    transition lands in the :class:`JobJournal`, every streamed result
    optionally lands as a warehouse row, and ``resume=True`` replays
    the journal on startup — finished jobs restored for late
    ``status``/``stream`` requests, unfinished jobs re-entered with
    only their *pending* specs, so journal-completed specs are never
    re-executed.
    """

    def __init__(
        self,
        backend,
        *,
        journal: Optional[JobJournal] = None,
        resume: bool = False,
        warehouse=None,
        warehouse_source: str = "coordinator",
        **server_kwargs,
    ):
        self.journal = journal
        # every streamed result also lands as a warehouse row (journal
        # replays on --resume bypass _append_result, so no duplicates)
        if isinstance(warehouse, (str, Path)):
            from repro.telemetry.warehouse import ResultsWarehouse

            warehouse = ResultsWarehouse(warehouse,
                                         source=warehouse_source)
        self.warehouse = warehouse
        super().__init__(backend, **server_kwargs)
        self._resume = resume

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._serving_started(asyncio.get_running_loop())
        if self._resume and self.journal is not None:
            # the journal replayed its file once when it opened
            self._restore(self.journal.recovered)
            self.journal.record_resume()

    def _serving_started(self, loop: asyncio.AbstractEventLoop) -> None:
        """Hook: the listener is up, the restore has not run yet —
        start whatever executes restored batches (pool, federation)."""

    def _interrupted(self) -> bool:
        """Hook: True once execution stopped mid-flight — a job ending
        now is an interruption to resume, not an outcome to journal."""
        return False

    def _restore(self, state: JournalState) -> None:
        """Rebuild journaled jobs; resume the unfinished ones."""
        self._job_counter = max(self._job_counter,
                                state.max_job_number())
        for jj in state.jobs.values():
            pending = [] if jj.finished else jj.pending_specs()
            job = Job(
                id=jj.id,
                specs=list(jj.specs),
                batches=[pending] if pending else [],
                state=jj.state,
                results=list(jj.results),
            )
            self.jobs[job.id] = job
            if jj.finished:
                job.updated.set()
                continue
            if not pending:
                # everything completed before the crash; only the
                # job-done record was lost
                job.state = "done"
                job.updated.set()
                if self.journal is not None:
                    self.journal.record_job_done(job.id, job.state)
                continue
            self._spawn(self._run_job(job))

    def request_stop(self) -> None:
        if self.warehouse is not None:
            try:
                self.warehouse.close()
            except Exception:
                pass  # shutdown must not hang on a sick warehouse
        super().request_stop()

    # -- server hooks -------------------------------------------------------

    def _job_created(self, job: Job) -> None:
        if self.journal is not None:
            self.journal.record_submit(job.id, job.specs)

    def _append_result(self, job: Job, result: ScenarioResult) -> None:
        if self.journal is not None:
            self.journal.record_complete(job.id, result)
        if self.warehouse is not None:
            try:
                self.warehouse.record_result(result, job_id=job.id)
            except Exception:
                # the warehouse is observability, not correctness: a
                # full queue or dead writer must not fail the sweep
                pass
        super()._append_result(job, result)

    def _job_finished(self, job: Job) -> None:
        # a shutdown mid-job is an interruption, not an outcome:
        # leaving the journal without a job-done record is exactly what
        # lets --resume pick the job back up
        if self.journal is not None and not self._interrupted():
            self.journal.record_job_done(job.id, job.state)


class ClusterCoordinator(JournaledServer):
    """A :class:`ScenarioServer` that executes through worker leases."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        journal_path: Optional[str] = None,
        resume: bool = False,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        auth_token: Optional[str] = None,
        max_pending: Optional[int] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        warehouse=None,
        max_spec_retries: Optional[int] = None,
        compact_every: Optional[int] = None,
        supervisor=None,
        chaos=None,
    ):
        journal = (
            JobJournal(journal_path, compact_every=compact_every)
            if journal_path else None
        )
        self.pool = ClusterPool(
            journal=journal, lease_timeout_s=lease_timeout_s,
            max_spec_retries=max_spec_retries, chaos=chaos,
        )
        #: optional :class:`repro.cluster.supervisor.WorkerSupervisor`
        #: started/stopped with the coordinator.
        self.supervisor = supervisor
        super().__init__(
            PoolBackend(self.pool),
            journal=journal,
            resume=resume,
            warehouse=warehouse,
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            auth_token=auth_token,
            max_pending=max_pending,
        )
        # lease spans parent on the submitting job's span
        self.pool.trace_resolver = self._job_trace

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        if self.supervisor is not None:
            self.supervisor.start(asyncio.get_running_loop(), self.pool)

    def _serving_started(self, loop: asyncio.AbstractEventLoop) -> None:
        self.pool.start(loop)

    def _interrupted(self) -> bool:
        return self.pool.closed

    def request_stop(self) -> None:
        if self.supervisor is not None:
            self.supervisor.shutdown()
        self.pool.shutdown()
        super().request_stop()

    # -- server hooks -------------------------------------------------------

    def _job_batches(self, specs, shards):
        # the pool leases spec-by-spec; shard batching would only
        # serialize the fan-out, so a cluster job is always one batch
        return [list(specs)]

    def _connection_closed(self, writer) -> None:
        worker = self.pool.worker_for_writer(writer)
        if worker is not None:
            self.pool.worker_lost(worker.id)

    def _cluster_status(self) -> Optional[Dict[str, Any]]:
        status = self.pool.status()
        if self.supervisor is not None:
            status["supervisor"] = self.supervisor.status()
        if self.journal is not None and self.journal.last_compaction:
            status["last_compaction"] = dict(self.journal.last_compaction)
        return status

    # -- worker frames ------------------------------------------------------

    async def _handle_worker_frame(self, type_, message, writer,
                                   lock) -> bool:
        if type_ == "register":
            worker = self.pool.register(
                message["name"], message.get("capacity", 1), writer, lock
            )
            await self._send(
                writer, lock,
                protocol.make_registered(
                    worker.id,
                    heartbeat_s=self.pool.heartbeat_s,
                    lease_timeout_s=self.pool.lease_timeout_s,
                ),
            )
            await self.pool._grant(worker)
            return False
        worker = self.pool.worker_for_writer(writer)
        if worker is None:
            await self._send_error(
                writer, lock,
                ProtocolError(
                    "unknown-worker",
                    f"{type_!r} before a successful register on this "
                    "connection",
                ),
            )
            return False
        if type_ == "heartbeat":
            self.pool.heartbeat(worker)
            # heartbeats double as a grant pump: an idle worker picks
            # up anything requeued since its last completion
            await self.pool._grant(worker)
            return False
        if type_ == "release":
            # a draining worker returning unstarted leases; ack so the
            # worker knows the hand-off landed before it exits
            released = self.pool.release(
                worker, [str(x) for x in message.get("leases", ())]
            )
            await self._send(
                writer, lock, protocol.make_ack("release", released)
            )
            return False
        # lease-result
        try:
            await self.pool.complete(
                worker, message["lease"], message["result"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            await self._send_error(
                writer, lock,
                ProtocolError(
                    "bad-message",
                    f"undecodable lease result: "
                    f"{type(exc).__name__}: {exc}",
                ),
            )
        return False

    # -- status -------------------------------------------------------------

    def cluster_status(self) -> Dict[str, Any]:
        return self.pool.status()
