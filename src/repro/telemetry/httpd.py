"""Read-only HTTP/JSON endpoint over a :class:`ResultsWarehouse`.

``repro query --serve`` for scrapers, dashboards and curl: GET-only,
stdlib-only (``http.server``), answering the same allowlisted
filter/aggregate surface as ``repro query`` — no SQL ever reaches
this layer, field names are validated by the warehouse's allowlists
exactly as on the CLI path.

Every query runs via :meth:`ResultsWarehouse.run_serialized`, i.e. on
the single writer thread, after any pending writes: an endpoint
serving a *live* campaign database (the coordinator writing while
scrapers read) always sees committed, ordered state and never
contends on sqlite locks.  The HTTP layer itself is a
``ThreadingHTTPServer`` — many sockets, but every database touch is
funneled through that one thread.

Routes (all JSON)::

    /            route list
    /results     filtered rows        ?scenario=&status=&job=&limit=...
    /count       {"count": N}         same filters
    /aggregate   grouped aggregates   ?agg=mean:wall_time&group_by=...
    /stats       warehouse stats
    /metrics     process metrics snapshot + http counters
    /status      endpoint liveness (uptime, request/error counts)
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qs, urlparse

from repro.telemetry.metrics import METRICS
from repro.telemetry.warehouse import ResultsWarehouse, WarehouseError

__all__ = ["WarehouseHTTP", "DEFAULT_HTTP_PORT"]

DEFAULT_HTTP_PORT = 7470

_ROUTES = (
    "/results", "/count", "/aggregate", "/stats", "/metrics", "/status",
)

#: query-string names -> warehouse filter kwargs (dashes tolerated so
#: curl invocations read like the CLI flags).
_FILTER_KEYS = {
    "scenario": "scenario",
    "status": "status",
    "job": "job",
    "spec_hash": "spec_hash",
    "spec-hash": "spec_hash",
    "source": "source",
    "code_version": "code_version",
    "code-version": "code_version",
    "since": "since",
    "until": "until",
}


def _filters_from_query(params: Dict[str, list]) -> Dict[str, Any]:
    filters: Dict[str, Any] = {}
    for key, target in _FILTER_KEYS.items():
        values = params.get(key)
        if values:
            filters[target] = values[-1]
    cached = params.get("cached")
    if cached:
        value = cached[-1].strip().lower()
        if value in ("yes", "true", "1"):
            filters["cached"] = True
        elif value in ("no", "false", "0"):
            filters["cached"] = False
        else:
            raise WarehouseError(
                f"cached must be yes/no, got {cached[-1]!r}"
            )
    return filters


def _limit_from_query(params: Dict[str, list]) -> Optional[int]:
    values = params.get("limit")
    if not values:
        return None
    try:
        limit = int(values[-1])
    except ValueError:
        raise WarehouseError(
            f"limit must be an integer, got {values[-1]!r}"
        ) from None
    if limit < 0:
        raise WarehouseError("limit must be >= 0")
    return limit


class _Handler(BaseHTTPRequestHandler):
    # set by WarehouseHTTP on the subclassed handler
    endpoint: "WarehouseHTTP"

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # stdout/stderr belong to the CLI, not per-request noise

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        endpoint = self.endpoint
        endpoint.requests += 1
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        params = parse_qs(parsed.query)
        try:
            payload = endpoint.handle(route, params)
        except WarehouseError as exc:
            endpoint.errors += 1
            self._reply(400, {"error": str(exc)})
            return
        except KeyError:
            endpoint.errors += 1
            self._reply(404, {"error": f"no route {route!r}",
                              "routes": list(_ROUTES)})
            return
        except Exception as exc:  # a bug must answer, not hang curl
            endpoint.errors += 1
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
            return
        self._reply(200, payload)

    def do_POST(self) -> None:  # noqa: N802
        self._method_not_allowed()

    do_PUT = do_DELETE = do_PATCH = do_POST

    def _method_not_allowed(self) -> None:
        self.endpoint.errors += 1
        self._reply(405, {"error": "read-only endpoint: GET only"})

    def _reply(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, default=str).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # scraper went away mid-reply


class WarehouseHTTP:
    """The endpoint: a threading HTTP server bound to one warehouse."""

    def __init__(
        self,
        warehouse: ResultsWarehouse,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        query_timeout_s: float = 30.0,
    ):
        self.warehouse = warehouse
        self.query_timeout_s = query_timeout_s
        self.started_at = time.time()
        self.requests = 0
        self.errors = 0
        handler = type("WarehouseHandler", (_Handler,),
                       {"endpoint": self})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- request handling ---------------------------------------------------

    def _serialized(self, fn):
        return self.warehouse.run_serialized(
            lambda conn: fn(), timeout_s=self.query_timeout_s
        )

    def handle(self, route: str, params: Dict[str, list]) -> Any:
        """Dispatch one GET; raises KeyError on unknown routes."""
        if route == "/":
            return {"routes": list(_ROUTES), "db": str(self.warehouse.path)}
        if route == "/results":
            filters = _filters_from_query(params)
            limit = _limit_from_query(params)
            rows = self._serialized(
                lambda: self.warehouse.query(limit=limit, **filters)
            )
            return {"results": rows, "count": len(rows)}
        if route == "/count":
            filters = _filters_from_query(params)
            return {"count": self._serialized(
                lambda: self.warehouse.count(**filters)
            )}
        if route == "/aggregate":
            filters = _filters_from_query(params)
            aggs = params.get("agg") or ["count:"]
            group_by = (params.get("group_by")
                        or params.get("group-by") or ["scenario"])[-1]
            rows = self._serialized(
                lambda: self.warehouse.aggregate(
                    aggs, group_by=group_by, **filters
                )
            )
            return {"aggregate": rows, "group_by": group_by}
        if route == "/stats":
            return self._serialized(self.warehouse.stats)
        if route == "/metrics":
            snapshot = METRICS.snapshot()
            snapshot["http"] = {
                "requests": self.requests, "errors": self.errors,
            }
            return snapshot
        if route == "/status":
            return {
                "db": str(self.warehouse.path),
                "uptime_s": round(time.time() - self.started_at, 3),
                "requests": self.requests,
                "errors": self.errors,
                "warehouse": self._serialized(self.warehouse.stats),
            }
        raise KeyError(route)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "WarehouseHTTP":
        """Serve on a daemon thread (tests, embedding)."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"warehouse-http:{self.port}", daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's ``--serve`` path)."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> "WarehouseHTTP":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
