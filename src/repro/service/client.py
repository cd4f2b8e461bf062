"""Blocking client for the scenario service (CLI, tests, RemoteBackend).

Deliberately synchronous: the consumers — ``repro submit``, a
:class:`~repro.service.backend.RemoteBackend` running inside a server's
worker thread, CI smoke scripts — all want a plain iterator of results,
not an event loop.  Framing is shared with the server via
:mod:`repro.service.protocol`, including the max-frame guard on reads.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.engine.results import ScenarioResult
from repro.engine.spec import ScenarioSpec
from repro.service import protocol
from repro.service.backoff import Backoff, jittered_delay
from repro.service.protocol import FrameDecoder, ProtocolError


class ServiceError(Exception):
    """A structured ``error`` frame (or transport failure) from the service."""

    def __init__(self, code: str, message: str,
                 detail: Optional[Any] = None):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = detail


class ServiceClient:
    """One connection speaking the JSON-lines protocol."""

    #: ``busy`` backoff: attempts beyond the first submit, base delay,
    #: and the ceiling one sleep may reach.  Delays come from the
    #: shared :func:`repro.service.backoff.jittered_delay` helper —
    #: exponential base times a uniform jitter in [0.5, 1.0) — so a
    #: burst of rejected clients doesn't re-stampede in lockstep.
    BUSY_RETRIES = 6
    BUSY_BASE_DELAY_S = 0.1
    BUSY_MAX_DELAY_S = 5.0

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: Optional[float] = None,
        connect_timeout: Optional[float] = None,
        retries: int = 0,
        retry_delay_s: float = 0.2,
        auth_token: Optional[str] = None,
        busy_retries: Optional[int] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: dial timeout for :func:`socket.create_connection`; falls back
        #: to ``timeout`` when None, so a read timeout alone still bounds
        #: the connect and a finite connect bound never loosens reads.
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.auth_token = auth_token
        self.busy_retries = (
            self.BUSY_RETRIES if busy_retries is None else busy_retries
        )
        self._decoder = FrameDecoder()
        self._sock: Optional[socket.socket] = None
        self.last_done: Optional[Dict[str, Any]] = None
        self.last_job: Optional[str] = None
        self._connect(retries, retry_delay_s)

    def _connect(self, retries: int, delay_s: float) -> None:
        last_error: Optional[OSError] = None
        attempts = max(1, retries + 1)
        backoff = Backoff(base_s=delay_s, max_s=max(delay_s, 2.0))
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                self._sock.settimeout(self.timeout)
                # frames are small and often back to back (a worker's
                # results); Nagle would hold each behind a delayed ACK
                self._sock.setsockopt(socket.IPPROTO_TCP,
                                      socket.TCP_NODELAY, 1)
                return
            except OSError as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    time.sleep(backoff.next_delay())
        raise ServiceError(
            "connect-failed",
            f"cannot reach {self.host}:{self.port}: {last_error}",
        )

    # -- transport ----------------------------------------------------------

    def send(self, message: Mapping[str, Any]) -> None:
        message = protocol.attach_token(dict(message), self.auth_token)
        try:
            self._sock.sendall(protocol.encode_frame(message))
        except OSError as exc:
            raise ServiceError(
                "connection-lost", f"send failed: {exc}"
            ) from None

    def recv(self) -> Dict[str, Any]:
        """Next frame from the server (blocking).

        Transport and framing failures surface as :class:`ServiceError`
        so callers (the CLI in particular) have one exception to catch.
        """
        while True:
            try:
                message = self._decoder.next_frame()
                if message is not None:
                    return message
                data = self._sock.recv(65536)
                if not data:
                    raise ServiceError(
                        "connection-closed",
                        "server closed the connection mid-stream",
                    )
                self._decoder.feed(data)
            except ProtocolError as exc:
                raise ServiceError(
                    exc.code, f"undecodable reply from "
                    f"{self.host}:{self.port}: {exc}",
                ) from None
            except socket.timeout:
                raise ServiceError(
                    "timeout",
                    f"no frame from {self.host}:{self.port} within "
                    f"{self.timeout}s",
                ) from None
            except OSError as exc:
                raise ServiceError(
                    "connection-lost", f"receive failed: {exc}"
                ) from None

    def _recv_checked(self) -> Dict[str, Any]:
        message = self.recv()
        if message.get("type") == "error":
            raise ServiceError(
                message.get("code", "error"),
                message.get("message", "unspecified server error"),
                detail=message.get("detail"),
            )
        return message

    # -- requests -----------------------------------------------------------

    def submit_iter(
        self,
        specs: Sequence[ScenarioSpec | Mapping[str, Any]],
        *,
        sweep: Optional[Mapping[str, Sequence[Any]]] = None,
        shards: Optional[int] = None,
        shard: Optional[Sequence[int]] = None,
        options: Optional[Mapping[str, Any]] = None,
        trace: Optional[Mapping[str, str]] = None,
    ) -> Iterator[ScenarioResult]:
        """Submit and yield each streamed result as it arrives.

        Raises :class:`ServiceError` on a structured rejection.  A
        ``busy`` rejection (the listener's ``--max-pending`` cap) is
        retried with jittered exponential backoff before giving up.
        After the iterator is exhausted, :attr:`last_done` holds the
        final ``done`` frame (counts, cancelled flag).  ``trace``
        threads an existing trace context through the submit so the
        server-side job span parents on the caller's span.
        """
        payload = [
            s.to_dict() if isinstance(s, ScenarioSpec) else dict(s)
            for s in specs
        ]
        submit = protocol.make_submit(
            payload, stream=True, sweep=sweep, shards=shards,
            shard=shard, options=options, trace=trace,
        )
        for attempt in range(self.busy_retries + 1):
            self.send(submit)
            try:
                ack = self._recv_checked()
                break
            except ServiceError as exc:
                if exc.code != "busy" or attempt >= self.busy_retries:
                    raise
                time.sleep(jittered_delay(
                    attempt, self.BUSY_BASE_DELAY_S, self.BUSY_MAX_DELAY_S
                ))
        if ack.get("type") != "ack":
            raise ServiceError(
                "protocol",
                f"expected ack, got {ack.get('type')!r}",
            )
        self.last_job = ack.get("job")
        self.last_done = None
        while True:
            message = self._recv_checked()
            type_ = message.get("type")
            if type_ == "result":
                yield ScenarioResult.from_dict(message["result"])
            elif type_ == "done":
                self.last_done = message
                return
            elif type_ in ("ack", "pong"):
                continue  # reply to an interleaved cancel/ping
            else:
                raise ServiceError(
                    "protocol",
                    f"unexpected frame {type_!r} in result stream",
                )

    def submit(
        self,
        specs: Sequence[ScenarioSpec | Mapping[str, Any]],
        *,
        sweep: Optional[Mapping[str, Sequence[Any]]] = None,
        shards: Optional[int] = None,
        shard: Optional[Sequence[int]] = None,
        options: Optional[Mapping[str, Any]] = None,
        progress: Optional[Callable[[ScenarioResult], None]] = None,
    ) -> List[ScenarioResult]:
        """Submit and collect the full streamed result list."""
        results: List[ScenarioResult] = []
        for result in self.submit_iter(
            specs, sweep=sweep, shards=shards, shard=shard, options=options
        ):
            results.append(result)
            if progress:
                progress(result)
        return results

    def stream_job(self, job: str) -> Iterator[ScenarioResult]:
        """Re-attach to a job by id: replay what it has, follow the tail.

        This is how a client collects a job that outlived its original
        connection — a coordinator restarted with ``--resume`` keeps
        the job id, so the same ``stream`` request drains the merged
        (journal-replayed + freshly executed) result list.
        """
        self.send(protocol.make_stream(job))
        self.last_job = job
        self.last_done = None
        while True:
            message = self._recv_checked()
            type_ = message.get("type")
            if type_ == "result":
                yield ScenarioResult.from_dict(message["result"])
            elif type_ == "done":
                self.last_done = message
                return
            elif type_ in ("ack", "pong"):
                continue
            else:
                raise ServiceError(
                    "protocol",
                    f"unexpected frame {type_!r} in result stream",
                )

    def status(self, job: Optional[str] = None) -> Dict[str, Any]:
        self.send(protocol.make_status(job))
        return self._recv_checked().get("jobs", {})

    def status_full(self, job: Optional[str] = None) -> Dict[str, Any]:
        """The whole ``status-reply`` frame: jobs + the listener's live
        telemetry (``metrics`` snapshot, ``cluster`` pool state when
        the peer is a coordinator, ``watchers`` when anyone holds a
        watch subscription)."""
        self.send(protocol.make_status(job))
        frame = self._recv_checked()
        status = {
            "jobs": frame.get("jobs", {}),
            "metrics": frame.get("metrics"),
            "cluster": frame.get("cluster"),
        }
        if "watchers" in frame:
            status["watchers"] = frame["watchers"]
        return status

    # -- watch (live telemetry fan-out) --------------------------------------

    def watch_events(
        self,
        *,
        kinds: Optional[Sequence[str]] = None,
        job: Optional[str] = None,
        components: Optional[Sequence[str]] = None,
        queue: Optional[int] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Subscribe to the server's live event feed; yields event dicts.

        The generator blocks on the connection (honoring ``timeout``)
        and runs until the caller abandons it or the server goes away.
        A server predating the ``watch`` frame answers ``unknown-type``
        (older still: ``unsupported``), surfaced as a
        :class:`ServiceError` (``repro status --watch`` exits 2 on it).
        """
        self.send(protocol.make_watch(
            kinds=kinds, job=job, components=components, queue=queue,
        ))
        ack = self._recv_checked()
        if ack.get("type") != "watch-ack":
            raise ServiceError(
                "protocol",
                f"expected watch-ack, got {ack.get('type')!r}",
            )
        while True:
            frame = self._recv_checked()
            if frame.get("type") == "event":
                yield frame.get("event", {})
            elif frame.get("type") in ("pong", "status-reply"):
                continue
            else:
                raise ServiceError(
                    "protocol",
                    f"unexpected frame {frame.get('type')!r} in "
                    "event stream",
                )

    def watch_status(
        self, interval: float, job: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        """Push-based ``--watch``: server sends a status snapshot at
        most every ``interval`` seconds, only when something changed.

        Yields the same dict shape as :meth:`status_full`.  A read
        timeout is treated as a quiet interval: the client pings to
        prove the server is alive and keeps waiting, so ``timeout``
        acts as the liveness bound rather than a hard deadline.
        """
        self.send(protocol.make_watch(
            events=False, status_interval=float(interval), job=job,
        ))
        ack = self._recv_checked()
        if ack.get("type") != "watch-ack":
            raise ServiceError(
                "protocol",
                f"expected watch-ack, got {ack.get('type')!r}",
            )
        while True:
            try:
                frame = self._recv_checked()
            except ServiceError as exc:
                if exc.code != "timeout":
                    raise
                self.send(protocol.make_ping())
                continue
            type_ = frame.get("type")
            if type_ == "status-reply":
                status = {
                    "jobs": frame.get("jobs", {}),
                    "metrics": frame.get("metrics"),
                    "cluster": frame.get("cluster"),
                }
                if "watchers" in frame:
                    status["watchers"] = frame["watchers"]
                yield status
            elif type_ in ("pong", "event"):
                continue
            else:
                raise ServiceError(
                    "protocol",
                    f"unexpected frame {type_!r} in status stream",
                )

    def cancel(self, job: str) -> None:
        self.send(protocol.make_cancel(job))
        self._recv_checked()

    # -- federation admin ----------------------------------------------------

    def register_pool(
        self, host: str, port: int, name: Optional[str] = None
    ) -> str:
        """Attach a coordinator pool to a federation front; returns the
        pool's federation name (acked in the ``job`` slot)."""
        self.send(protocol.make_pool_register(host, port, name))
        ack = self._recv_checked()
        if ack.get("type") != "ack":
            raise ServiceError(
                "protocol", f"expected ack, got {ack.get('type')!r}"
            )
        return str(ack.get("job"))

    def pool_health(self) -> Dict[str, Any]:
        """Per-pool breaker state + counters from a federation front."""
        self.send(protocol.make_pool_health())
        frame = self._recv_checked()
        if frame.get("type") != "pool-health-reply":
            raise ServiceError(
                "protocol",
                f"expected pool-health-reply, got {frame.get('type')!r}",
            )
        return frame.get("pools", {})

    def rehome_pool(self, pool: str) -> int:
        """Drain ``pool``: its uncompleted specs return to the
        federation queue.  Returns how many specs were re-homed."""
        self.send(protocol.make_pool_rehome(pool))
        ack = self._recv_checked()
        if ack.get("type") != "ack":
            raise ServiceError(
                "protocol", f"expected ack, got {ack.get('type')!r}"
            )
        return int(ack.get("specs", 0))

    def ping(self) -> bool:
        self.send(protocol.make_ping())
        return self._recv_checked().get("type") == "pong"

    def shutdown(self) -> None:
        """Ask the server to stop (acknowledged with ``bye``)."""
        self.send(protocol.make_shutdown())
        try:
            self._recv_checked()
        except ServiceError as exc:
            if exc.code != "connection-closed":
                raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
