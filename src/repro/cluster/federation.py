"""Federated coordinators: one sweep sharded across peer pools.

A :class:`FederatedCoordinator` is a front-end listener that executes
nothing itself and owns no workers: every submitted spec goes onto a
federation queue and is granted, chunk by chunk, to N *peer
coordinator pools* — ordinary ``repro coordinator`` listeners, each
with its own worker fleet, journal, and supervisor — over the same
client protocol a ``repro submit`` would use.  Each pool keeps
tracking only its local state; the front composes their health
signals instead of centralizing them.

Failure model (composing with the pool-level story in
:mod:`repro.cluster.coordinator`):

* **pool dark** — a dedicated prober pings every pool; failures feed
  a per-pool :class:`CircuitBreaker` (closed → open on consecutive
  failures, half-open trial probes on a jittered exponential
  schedule from :mod:`repro.service.backoff`).  A forwarder mid-chunk
  aborts as soon as its stream breaks or its breaker opens, and the
  chunk's uncompleted specs are *re-homed*: returned to the front of
  the federation queue and re-granted to surviving pools.  Every
  involuntary re-home is charged against ``max_spec_retries``, so a
  spec that keeps killing whole pools terminates as a structured
  quarantine error instead of cycling forever;
* **front crash** — the front journals ``submit`` / ``assign`` /
  ``complete`` / ``job-done`` through the same
  :class:`~repro.cluster.journal.JobJournal` as a coordinator
  (``assign`` is the cross-hop analogue of ``lease``, folded into the
  same audit trail), so ``repro federate --resume`` re-enters only
  the specs no pool completed — merged reports stay identical to an
  uninterrupted serial run with zero re-executions of completed
  hashes;
* **hung peer** — every hop to a pool uses finite connect and poll
  timeouts; a pool that accepts TCP but stops answering fails its
  probes, opens the breaker, and its chunk re-homes.  A pool is only
  granted work while its breaker is closed (a probe success closes
  it), so a flapping pool cannot strand specs;
* **operator drain** — a ``pool-rehome`` frame marks a pool draining:
  no further chunks, and its in-flight specs return to the queue
  *uncharged* (a voluntary drain, like a worker ``release``).  A
  ``pool-register`` frame re-attaches it.

The scheduler itself is thread-based, not asyncio: the front's event
loop serves clients, while one forwarder thread per pool drives the
blocking :class:`~repro.service.client.ServiceClient` hop, because
the hop is exactly the synchronous submit/stream protocol.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.coordinator import (
    DEFAULT_MAX_SPEC_RETRIES,
    BatchTable,
    JournaledServer,
    WorkItem,
    quarantine_result,
)
from repro.cluster.journal import JobJournal
from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backend import Backend
from repro.service.backoff import Backoff
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import ProtocolError
from repro.service.server import DEFAULT_HOST
from repro.telemetry.events import BUS
from repro.telemetry.metrics import METRICS
from repro.telemetry.spans import emit_span, new_span_id

DEFAULT_PORT = 7460
DEFAULT_PROBE_INTERVAL_S = 2.0
DEFAULT_FAILURE_THRESHOLD = 3
DEFAULT_CHUNK_SPECS = 4
#: per-read poll bound on a pool stream; a slow spec streams nothing
#: for a while, so a timeout is a *tick* (re-check breaker/drain/close
#: state), not a failure.
DEFAULT_POLL_TIMEOUT_S = 0.5
DEFAULT_CONNECT_TIMEOUT_S = 5.0

_COMPONENT = "cluster.federation"

PoolAddress = Union[str, Tuple[str, int]]


class CircuitBreaker:
    """Closed → open → half-open failure gate for one peer pool.

    ``record_failure`` trips the breaker after ``failure_threshold``
    consecutive failures (immediately when half-open); while open,
    :meth:`allow` denies until a reopen delay — drawn from the shared
    jittered exponential :class:`~repro.service.backoff.Backoff` —
    has elapsed, then grants exactly one half-open trial.  A success
    closes the breaker and resets the backoff; a failed trial re-opens
    it with a longer delay.  ``clock`` is injectable for fake-clock
    tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        backoff: Optional[Backoff] = None,
        clock=time.monotonic,
    ):
        self.failure_threshold = max(1, failure_threshold)
        self.backoff = backoff or Backoff(base_s=1.0, max_s=30.0)
        self.clock = clock
        self.state = self.CLOSED
        self.failures = 0          # consecutive
        self.opened_total = 0
        self.retry_at = 0.0

    def record_success(self) -> None:
        self.state = self.CLOSED
        self.failures = 0
        self.backoff.reset()

    def record_failure(self) -> None:
        self.failures += 1
        if (self.state == self.HALF_OPEN
                or self.failures >= self.failure_threshold):
            if self.state != self.OPEN:
                self.opened_total += 1
            self.state = self.OPEN
            self.retry_at = self.clock() + self.backoff.next_delay()

    def allow(self) -> bool:
        """May the caller try the peer right now?

        Closed: always.  Open: only once the reopen delay elapsed,
        which transitions to half-open (that call *is* the trial).
        Half-open: no — one trial is already out.
        """
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN and self.clock() >= self.retry_at:
            self.state = self.HALF_OPEN
            return True
        return False

    def status(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "consecutive_failures": self.failures,
            "opened_total": self.opened_total,
        }


class PoolPeer:
    """Front-side state for one federated coordinator pool."""

    def __init__(self, name: str, host: str, port: int,
                 breaker: CircuitBreaker):
        self.name = name
        self.host = host
        self.port = port
        self.breaker = breaker
        self.draining = False
        self.removed = False
        self.assigned = 0
        self.completed = 0
        self.rehomed = 0
        #: the chunk currently streaming on this pool (forwarder-owned,
        #: mutated under the federation lock).
        self.inflight: List[WorkItem] = []
        self.thread: Optional[threading.Thread] = None

    def status(self) -> Dict[str, Any]:
        return {
            "host": self.host,
            "port": self.port,
            "breaker": self.breaker.status(),
            "draining": self.draining,
            "assigned": self.assigned,
            "completed": self.completed,
            "rehomed": self.rehomed,
            "inflight": len(self.inflight),
        }


class FederationPool:
    """Chunked spec scheduler over peer coordinator pools.

    The thread-based sibling of :class:`~repro.cluster.coordinator.
    ClusterPool`: batches arrive via :meth:`submit_batch` (called from
    the server's executor threads), items wait on one deque guarded by
    a condition, and one forwarder thread per peer takes chunks while
    that peer's breaker is closed.  Results are delivered to the
    batch's thread-safe sink, completions are journaled by the server
    hooks, and pool grants are journaled here as ``assign`` events.
    """

    def __init__(
        self,
        journal: Optional[JobJournal] = None,
        *,
        max_spec_retries: Optional[int] = None,
        chunk_specs: int = DEFAULT_CHUNK_SPECS,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
        auth_token: Optional[str] = None,
    ):
        self.journal = journal
        self.max_spec_retries = (
            DEFAULT_MAX_SPEC_RETRIES
            if max_spec_retries is None else max(0, max_spec_retries)
        )
        self.chunk_specs = max(1, chunk_specs)
        self.probe_interval_s = probe_interval_s
        self.failure_threshold = failure_threshold
        self.poll_timeout_s = poll_timeout_s
        self.connect_timeout_s = connect_timeout_s
        self.auth_token = auth_token
        #: callable ``job_id -> (trace_id, job_span_id) | None`` set by
        #: the owning front so chunk ``assign`` spans parent on the
        #: front job span and pools inherit the trace over the wire.
        self.trace_resolver = None
        self.peers: Dict[str, PoolPeer] = {}
        self.closed = False
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._batches = BatchTable()
        self._batch_counter = 0
        self._peer_counter = 0
        self._started = False
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        self.total_completed = 0
        self.total_rehomed = 0
        self.total_quarantined = 0
        self.total_assigned = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._started or self.closed:
                return
            self._started = True
            peers = list(self.peers.values())
        self._prober = threading.Thread(
            target=self._probe_loop, name="fed-prober", daemon=True
        )
        self._prober.start()
        for peer in peers:
            self._start_forwarder(peer)

    def _start_forwarder(self, peer: PoolPeer) -> None:
        peer.thread = threading.Thread(
            target=self._forward_loop, args=(peer,),
            name=f"fed-forward-{peer.name}", daemon=True,
        )
        peer.thread.start()

    def shutdown(self) -> None:
        """Stop scheduling; wake every blocked batch with an abort."""
        with self._cond:
            if self.closed:
                return
            self.closed = True
            self._batches.abandon_all("federation front stopped")
            self._cond.notify_all()
        self._stop.set()

    def describe(self) -> str:
        return (
            f"pools={len(self.peers)}, queued={len(self._queue)}, "
            f"chunk={self.chunk_specs}"
        )

    # -- pools ---------------------------------------------------------------

    def add_pool(self, host: str, port: int,
                 name: Optional[str] = None) -> PoolPeer:
        """Attach (or re-attach) a peer pool; idempotent by name.

        Re-registering an existing name clears its drain flag, closes
        its breaker, and re-points it at ``host:port`` — the recovery
        path after an operator ``pool-rehome``.
        """
        with self._cond:
            peer = self.peers.get(name) if name else None
            if peer is None:
                for existing in self.peers.values():
                    if (existing.host, existing.port) == (host, int(port)):
                        peer = existing
                        break
            if peer is not None:
                peer.host = host
                peer.port = int(port)
                peer.draining = False
                peer.breaker.record_success()
                self._cond.notify_all()
                started = False
            else:
                self._peer_counter += 1
                peer = PoolPeer(
                    name or f"pool-{self._peer_counter}",
                    host, int(port),
                    CircuitBreaker(
                        failure_threshold=self.failure_threshold
                    ),
                )
                self.peers[peer.name] = peer
                started = self._started
            METRICS.gauge("federation.pools").set(len(self.peers))
        if BUS.enabled:
            BUS.emit(_COMPONENT, "pool-register", pool=peer.name,
                     host=peer.host, port=peer.port)
        if started:
            self._start_forwarder(peer)
        return peer

    def rehome_pool(self, name: str) -> int:
        """Drain a pool by name; returns its in-flight spec count.

        The named pool stops receiving chunks immediately; its current
        chunk's uncompleted specs return to the queue (uncharged) as
        soon as the forwarder observes the drain flag — within one
        poll tick.  Raises ``KeyError`` for an unknown pool.
        """
        with self._cond:
            peer = self.peers[name]
            peer.draining = True
            pending = [
                i for i in peer.inflight
                if not i.delivered and not i.abandoned
            ]
            self._cond.notify_all()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "pool-drain", pool=name,
                     inflight=len(pending))
        return len(pending)

    def pool_health(self) -> Dict[str, Dict[str, Any]]:
        with self._cond:
            return {p.name: p.status() for p in self.peers.values()}

    def status(self) -> Dict[str, Any]:
        with self._cond:
            return {
                "pools": {
                    p.name: p.status() for p in self.peers.values()
                },
                "queued": len(self._queue),
                "inflight": sum(
                    len(p.inflight) for p in self.peers.values()
                ),
                "completed": self.total_completed,
                "rehomed": self.total_rehomed,
                "quarantined": self.total_quarantined,
                "assigned": self.total_assigned,
            }

    # -- batches (FederationBackend face) ------------------------------------

    def submit_batch(self, specs: Sequence[ScenarioSpec], sink,
                     label: Optional[str] = None) -> str:
        """Queue one backend batch; thread-safe; returns the batch id."""
        with self._cond:
            self._batch_counter += 1
            batch_id = f"fbatch-{self._batch_counter}"
            if self.closed:
                sink.put(("abort", "federation front stopped"))
                return batch_id
            items = [
                WorkItem(spec, job_id=label or "", sink=sink,
                         batch_id=batch_id)
                for spec in specs
            ]
            self._batches.open(batch_id, items)
            self._queue.extend(items)
            self._cond.notify_all()
        return batch_id

    def abandon_batch(self, batch_id: str) -> None:
        with self._cond:
            self._batches.abandon(batch_id)

    # -- probing -------------------------------------------------------------

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            for peer in list(self.peers.values()):
                if self.closed:
                    return
                if peer.draining or peer.removed:
                    continue
                breaker = peer.breaker
                if breaker.state == CircuitBreaker.CLOSED or breaker.allow():
                    self._probe(peer)

    def _probe(self, peer: PoolPeer) -> None:
        was_open = peer.breaker.state != CircuitBreaker.CLOSED
        try:
            with ServiceClient(
                peer.host, peer.port,
                timeout=self.connect_timeout_s,
                connect_timeout=self.connect_timeout_s,
                auth_token=self.auth_token,
            ) as client:
                ok = client.ping()
        except (ServiceError, OSError):
            ok = False
        if ok:
            peer.breaker.record_success()
            if was_open:
                METRICS.counter("federation.pool_recoveries").inc()
                if BUS.enabled:
                    BUS.emit(_COMPONENT, "pool-recovered",
                             pool=peer.name)
                with self._cond:
                    self._cond.notify_all()
        else:
            self._record_peer_failure(peer)

    def _record_peer_failure(self, peer: PoolPeer) -> None:
        was_dark = peer.breaker.state == CircuitBreaker.OPEN
        peer.breaker.record_failure()
        METRICS.counter("federation.probe_failures").inc()
        if peer.breaker.state == CircuitBreaker.OPEN and not was_dark:
            METRICS.counter("federation.breaker_opens").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "pool-dark", pool=peer.name,
                         failures=peer.breaker.failures)
            with self._cond:
                self._cond.notify_all()

    # -- forwarding ----------------------------------------------------------

    def _forward_loop(self, peer: PoolPeer) -> None:
        while True:
            chunk = self._next_chunk(peer)
            if chunk is None:
                return
            self._run_chunk(peer, chunk)

    def _next_chunk(self, peer: PoolPeer) -> Optional[List[WorkItem]]:
        """Block until this peer may take work; None ends the thread."""
        with self._cond:
            while True:
                if self.closed or peer.removed:
                    return None
                if (not peer.draining
                        and peer.breaker.state == CircuitBreaker.CLOSED
                        and self._queue):
                    items: List[WorkItem] = []
                    while self._queue and len(items) < self.chunk_specs:
                        item = self._queue.popleft()
                        if item.abandoned or item.delivered:
                            continue
                        items.append(item)
                    if items:
                        for item in items:
                            peer.assigned += 1
                            self.total_assigned += 1
                            if self.journal is not None:
                                self.journal.record_assign(
                                    item.job_id,
                                    item.spec.content_hash,
                                    peer.name,
                                )
                            METRICS.counter("federation.assigned").inc()
                            if BUS.enabled:
                                BUS.emit(
                                    _COMPONENT, "pool-assign",
                                    job_id=item.job_id,
                                    spec_hash=item.spec.content_hash,
                                    pool=peer.name,
                                )
                        # the roster must be its own list: delivery
                        # removes items from it while the forwarder
                        # still iterates the chunk
                        peer.inflight = list(items)
                        return items
                # the timed wait doubles as the breaker-reopen clock:
                # a notify is not guaranteed when retry_at elapses
                self._cond.wait(timeout=0.25)

    def _chunk_trace(self, items: List[WorkItem]):
        """Mint this chunk's ``assign`` span under the front job span.

        Returns ``(wire_trace, span_id, parent_id)`` — all empty when
        the job carries no trace (e.g. journal-restored work).  The
        wire trace names the *chunk* span as parent, so the pool-side
        job span nests under this hop.
        """
        if self.trace_resolver is not None:
            for item in items:
                if not item.job_id:
                    continue
                context = self.trace_resolver(item.job_id)
                if context:
                    trace_id, parent_id = context
                    span_id = new_span_id()
                    return ({"id": trace_id, "span": span_id},
                            span_id, parent_id)
        return None, "", ""

    def _run_chunk(self, peer: PoolPeer, items: List[WorkItem]) -> None:
        pending: Dict[str, deque] = {}
        for item in items:
            pending.setdefault(item.spec.content_hash,
                               deque()).append(item)
        outstanding = set(items)
        trace_ctx, chunk_span, trace_parent = self._chunk_trace(items)
        chunk_started = time.monotonic()
        try:
            client = ServiceClient(
                peer.host, peer.port,
                timeout=self.poll_timeout_s,
                connect_timeout=self.connect_timeout_s,
                auth_token=self.auth_token,
            )
        except ServiceError:
            self._record_peer_failure(peer)
            self._rehome(peer, outstanding, charged=True)
            return
        try:
            with client:
                client.send(protocol.make_submit(
                    [i.spec.to_dict() for i in items], stream=True,
                    trace=trace_ctx,
                ))
                while outstanding:
                    try:
                        frame = client.recv()
                    except ServiceError as exc:
                        if exc.code != "timeout":
                            raise
                        if self.closed:
                            return
                        if peer.draining:
                            self._rehome(peer, outstanding,
                                         charged=False)
                            return
                        if peer.breaker.state == CircuitBreaker.OPEN:
                            # the prober declared the pool dark while
                            # this stream sat silent
                            self._rehome(peer, outstanding,
                                         charged=True)
                            return
                        if all(i.abandoned for i in outstanding):
                            return  # nobody wants these results
                        continue
                    type_ = frame.get("type")
                    if type_ == "error":
                        raise ServiceError(
                            frame.get("code", "error"),
                            frame.get("message", "pool error"),
                        )
                    if type_ == "result":
                        result = ScenarioResult.from_dict(
                            frame["result"]
                        )
                        queue = pending.get(result.spec_hash)
                        if queue:
                            item = queue.popleft()
                            outstanding.discard(item)
                            self._deliver(peer, item, result)
                    elif type_ == "done":
                        break
                    # ack / pong frames are stream noise; ignore
            # a 'done' with specs still outstanding means the pool
            # finished the job without returning them (server-side
            # cancel): treat as an involuntary loss
            if outstanding:
                self._rehome(peer, outstanding, charged=True)
        except (ServiceError, OSError, KeyError, TypeError,
                ValueError) as exc:
            busy = isinstance(exc, ServiceError) and exc.code == "busy"
            if not busy:
                self._record_peer_failure(peer)
            if BUS.enabled:
                BUS.emit(_COMPONENT, "pool-chunk-failed",
                         pool=peer.name, specs=len(outstanding),
                         error=f"{type(exc).__name__}: {exc}")
            # a busy pool did nothing wrong and neither did the specs:
            # requeue uncharged and let another pool (or a later
            # chunk) take them
            self._rehome(peer, outstanding, charged=not busy)
            if busy:
                self._stop.wait(self.poll_timeout_s)
        finally:
            with self._cond:
                peer.inflight = []
            if trace_ctx and BUS.enabled:
                # one span per chunk (not per spec): the federation's
                # unit of assignment is the chunk, and its duration is
                # the pool hop the critical path actually paid
                emit_span(
                    _COMPONENT, "assign",
                    trace_id=trace_ctx["id"], span_id=chunk_span,
                    parent_id=trace_parent, job_id=items[0].job_id,
                    duration_s=time.monotonic() - chunk_started,
                    pool=peer.name, specs=len(items),
                    completed=len(items) - len(outstanding),
                )

    def _deliver(self, peer: PoolPeer, item: WorkItem,
                 result: ScenarioResult) -> None:
        with self._cond:
            if item.abandoned or item.delivered:
                return
            self._batches.deliver(item)
            # leave the inflight roster under the same lock: a client
            # that has every result must see inflight == 0 in status,
            # not wait on the forwarder reaching its chunk epilogue
            if item in peer.inflight:
                peer.inflight.remove(item)
            peer.completed += 1
            self.total_completed += 1
        peer.breaker.record_success()
        METRICS.counter("federation.completed").inc()
        if BUS.enabled:
            BUS.emit(_COMPONENT, "pool-complete", job_id=item.job_id,
                     spec_hash=item.spec.content_hash, pool=peer.name,
                     status=result.status)
        item.sink.put(("result", result))

    def _rehome(self, peer: PoolPeer, items, *, charged: bool) -> None:
        """Return a failed/drained chunk's specs to the queue.

        ``charged`` burns one retry per spec (involuntary loss: dark
        pool, broken stream); past ``max_spec_retries`` the spec is
        quarantined as a structured error.  Uncharged re-homes
        (operator drain, busy pool) are free, mirroring a worker's
        graceful ``release``.
        """
        rehomed = 0
        quarantined: List[WorkItem] = []
        with self._cond:
            for item in items:
                if item.abandoned or item.delivered:
                    continue
                if charged:
                    item.requeues += 1
                    if item.requeues > self.max_spec_retries:
                        quarantined.append(item)
                        continue
                self._queue.appendleft(item)
                rehomed += 1
            peer.rehomed += rehomed
            self.total_rehomed += rehomed
            for item in quarantined:
                self._batches.deliver(item)
                self.total_quarantined += 1
            self._cond.notify_all()
        if rehomed:
            METRICS.counter("federation.rehomed").inc(rehomed)
            if BUS.enabled:
                BUS.emit(_COMPONENT, "pool-rehome", pool=peer.name,
                         specs=rehomed, charged=charged)
        for item in quarantined:
            METRICS.counter("federation.quarantined").inc()
            if BUS.enabled:
                BUS.emit(_COMPONENT, "quarantine", job_id=item.job_id,
                         spec_hash=item.spec.content_hash,
                         requeues=item.requeues)
            item.sink.put((
                "result",
                quarantine_result(
                    item.spec, item.requeues, self.max_spec_retries,
                    backend="federation", suspect="pools",
                ),
            ))


class FederationBackend(Backend):
    """The federation queue as a :class:`Backend`: forward everything.

    The thread-side twin of :class:`~repro.service.backend.
    PoolBackend`: ``run`` executes on the server's executor thread,
    hands the batch to the :class:`FederationPool` directly (it is
    already thread-safe — no event-loop hop needed), and drains the
    sink until every spec has a result or the federation stops.
    """

    name = "federation"

    def __init__(self, fed: FederationPool):
        self.fed = fed

    def run(self, specs, progress=None, *, label=None):
        import queue as stdlib_queue

        specs = list(specs)
        if not specs:
            return []
        sink: "stdlib_queue.Queue" = stdlib_queue.Queue()
        batch_id = self.fed.submit_batch(specs, sink, label=label)
        completed: List[ScenarioResult] = []
        try:
            while len(completed) < len(specs):
                try:
                    kind, payload = sink.get(timeout=1.0)
                except stdlib_queue.Empty:
                    if self.fed.closed:
                        raise RuntimeError(
                            "federation front stopped while the batch "
                            "was in flight"
                        ) from None
                    continue
                if kind == "abort":
                    raise RuntimeError(
                        f"federation aborted the batch: {payload}"
                    )
                completed.append(payload)
                if progress:
                    progress(payload)
        finally:
            if len(completed) < len(specs):
                self.fed.abandon_batch(batch_id)
        return completed

    def describe(self) -> str:
        return f"federation({self.fed.describe()})"


def _parse_pool_address(entry: PoolAddress) -> Tuple[str, int]:
    if isinstance(entry, str):
        host, _colon, port = entry.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"pool address {entry!r} must be HOST:PORT"
            )
        return host, int(port)
    host, port = entry
    return str(host), int(port)


class FederatedCoordinator(JournaledServer):
    """The front-end listener: clients submit here, pools execute.

    Speaks the full client protocol (``submit`` / ``status`` /
    ``stream`` / ``cancel`` / ``shutdown``) plus the federation admin
    frames (``pool-register`` / ``pool-health`` / ``pool-rehome``).
    ``pools`` seeds the peer set; more can be attached at runtime via
    ``repro submit --pool``.  Durability composes with the pools':
    this front journals assignments and completions, each pool
    journals its own leases, and ``--resume`` here re-enters only
    specs no pool completed.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        pools: Sequence[PoolAddress] = (),
        journal_path: Optional[str] = None,
        resume: bool = False,
        auth_token: Optional[str] = None,
        pool_auth_token: Optional[str] = None,
        max_pending: Optional[int] = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        warehouse=None,
        max_spec_retries: Optional[int] = None,
        compact_every: Optional[int] = None,
        chunk_specs: int = DEFAULT_CHUNK_SPECS,
        probe_interval_s: float = DEFAULT_PROBE_INTERVAL_S,
        failure_threshold: int = DEFAULT_FAILURE_THRESHOLD,
        poll_timeout_s: float = DEFAULT_POLL_TIMEOUT_S,
        connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
    ):
        journal = (
            JobJournal(journal_path, compact_every=compact_every)
            if journal_path else None
        )
        self.fed = FederationPool(
            journal=journal,
            max_spec_retries=max_spec_retries,
            chunk_specs=chunk_specs,
            probe_interval_s=probe_interval_s,
            failure_threshold=failure_threshold,
            poll_timeout_s=poll_timeout_s,
            connect_timeout_s=connect_timeout_s,
            auth_token=(
                pool_auth_token if pool_auth_token is not None
                else auth_token
            ),
        )
        for entry in pools:
            pool_host, pool_port = _parse_pool_address(entry)
            self.fed.add_pool(pool_host, pool_port)
        super().__init__(
            FederationBackend(self.fed),
            journal=journal,
            resume=resume,
            warehouse=warehouse,
            warehouse_source="federation",
            host=host,
            port=port,
            max_frame_bytes=max_frame_bytes,
            auth_token=auth_token,
            max_pending=max_pending,
        )
        # chunk assign spans parent on the front job's span, and the
        # wire trace makes pool-side jobs nest under the chunk
        self.fed.trace_resolver = self._job_trace

    # -- lifecycle ----------------------------------------------------------

    def _serving_started(self, loop) -> None:
        self.fed.start()

    def _interrupted(self) -> bool:
        return self.fed.closed

    def request_stop(self) -> None:
        self.fed.shutdown()
        super().request_stop()

    # -- server hooks -------------------------------------------------------

    def _job_batches(self, specs, shards):
        # the federation chunks specs itself; shard batching here
        # would only serialize the pool fan-out
        return [list(specs)]

    def _cluster_status(self) -> Optional[Dict[str, Any]]:
        status = self.fed.status()
        status["federation"] = True
        if self.journal is not None and self.journal.last_compaction:
            status["last_compaction"] = dict(
                self.journal.last_compaction
            )
        return status

    # -- federation admin frames --------------------------------------------

    async def _handle_fed_frame(self, type_, message, writer,
                                lock) -> bool:
        if type_ == "pool-register":
            peer = self.fed.add_pool(
                message["host"], message["port"], message.get("name")
            )
            await self._send(
                writer, lock, protocol.make_ack(peer.name, 0)
            )
            return False
        if type_ == "pool-health":
            await self._send(
                writer, lock,
                protocol.make_pool_health_reply(self.fed.pool_health()),
            )
            return False
        # pool-rehome
        try:
            count = self.fed.rehome_pool(message["pool"])
        except KeyError:
            await self._send_error(
                writer, lock,
                ProtocolError(
                    "unknown-pool",
                    f"no pool {message['pool']!r} registered on this "
                    "front",
                ),
            )
            return False
        await self._send(
            writer, lock, protocol.make_ack(message["pool"], count)
        )
        return False
