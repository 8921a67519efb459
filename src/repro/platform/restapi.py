"""A small HTTP/JSON front-end for the API gateway.

The paper's deployment exposes the gateway as a REST service that the
browser-based Web UI calls.  This module reproduces that surface with the
standard library only (``http.server``), so the platform can actually be
driven over HTTP — by ``curl``, by the example client, or by a real web
front-end — without any additional dependencies.

Endpoints
---------
``GET    /``                                    minimal HTML index (dataset + algorithm pickers)
``GET    /api/datasets``                        dataset picker payload
``GET    /api/datasets/<id>/summary``           structural summary of one dataset
``GET    /api/algorithms``                      algorithm picker payload
``POST   /api/comparisons``                     submit a comparison; body ``{"queries": [...], "synchronous": bool,
                                                "deadline_ms": N}`` (``"synchronous": false`` returns the permalink
                                                id immediately while the comparison runs on the worker pool;
                                                ``deadline_ms`` bounds how long the submission may wait + run
                                                before it is settled with a ``deadline_exceeded`` event).
                                                When the gateway is over its admission budget the submission is
                                                shed with ``429`` + a ``Retry-After`` header and body
                                                ``{"error": ..., "retry_after": seconds, "shed": true}`` —
                                                nothing was enqueued; re-submit after the hinted delay.
``GET    /api/comparisons``                     job listing: one summary row per known comparison
``GET    /api/comparisons/<id>/status``         progress snapshot
``GET    /api/comparisons/<id>/events?after=N`` long-poll: blocks up to ``timeout`` seconds (default 10,
                                                max 30) for events with ``seq > N``; returns
                                                ``{"events": [...], "next_after": M, "state": ...}``
``GET    /api/comparisons/<id>/events?stream=sse``
                                                server-sent events (``text/event-stream``): one frame per
                                                event (``id:`` = seq), ends after ``task_done``.  Works on
                                                the stdlib ``ThreadingHTTPServer`` because each stream holds
                                                one handler thread while submissions return immediately.
                                                Idle streams emit ``: ping`` comment frames (every
                                                ``keepalive`` seconds, default 15) so aggressive proxies do
                                                not drop them; a client that reconnects resumes exactly
                                                where it left off via ``after=N``.
``POST   /api/storage/replicate``               start a replication-repair job; ``202`` with its job id
``POST   /api/storage/spill``                   start a spill job; body ``{"max_resident": N}``,
                                                ``{"max_resident_bytes": N}`` or ``{"dataset_ids": [...]}``
``POST   /api/storage/rebalance``               start a rebalance job (canonical placement + R copies).
``POST   /api/storage/read-repair``             drain the read-repair queue (failover reads fill it; the
                                                gateway normally drains automatically).
                                                Storage jobs stream progress through the same
                                                ``/api/comparisons/<job id>/events`` endpoints and are
                                                cancelled with ``DELETE /api/comparisons/<job id>``.
``GET    /api/comparisons/<id>/results?k=5``    the top-k comparison table; ``409`` with the current job
                                                state while the comparison is not completed
``GET    /api/comparisons/<id>/logs``           execution log: ``{"lines": [...]}``, the comparison's events
                                                rendered one per line (the CLI ``--follow`` lines); ``404``
                                                for an unknown id and once the record is evicted
``DELETE /api/comparisons/<id>``                request cooperative cancellation of a running comparison
``GET    /api/stats``                           result-cache, batch-dispatch, compiled-artifact and
                                                job-registry counters; on a sharded deployment also the
                                                shard topology, per-shard health and hit rates, and
                                                per-shard occupancy (``datasets``, ``results`` — result
                                                files, 0 on in-memory shards —, ``compiled_artifacts``,
                                                ``cached_rankings``);
                                                the ``overload`` section reports deadline, admission
                                                (shed/admitted) and storage-retry counters
                                                plus the version-quorum read counters (``digest_reads``,
                                                ``stale_reads_prevented``, ``version_conflicts_resolved``
                                                — also under ``shards.replication``);
                                                the ``telemetry`` section reports tracer occupancy, the
                                                slow-span ring and a snapshot of the metrics registry
``GET    /api/comparisons/<id>/trace``          reconstructed telemetry span tree of a submission
                                                (``comparison`` root → scheduler group dispatch → batch
                                                execution → storage writes with per-replica attempts);
                                                ``trace`` is ``null`` when telemetry is disabled or the
                                                trace aged out of the tracer's bounded store
``GET    /metrics``                             Prometheus text exposition of the gateway's metrics
                                                registry: request/submission counters, runtime gauges
                                                (including the replicated store's withheld-read/digest
                                                counters) and the per-span-name latency histograms

Errors are returned as ``{"error": "..."}`` with an appropriate status code
(400 for bad requests, 404 for unknown resources, 409 for results of an
unfinished comparison, 429 for submissions shed by admission control).

Example — submit without blocking, then follow the stream::

    curl -X POST $URL/api/comparisons -d '{"queries": [...], "synchronous": false}'
    curl "$URL/api/comparisons/$ID/events?after=0"            # long-poll
    curl -N "$URL/api/comparisons/$ID/events?stream=sse"      # live stream
    curl -X DELETE $URL/api/comparisons/$ID                   # cancel
"""

from __future__ import annotations

import json
import logging
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..exceptions import GatewayOverloadedError, ReproError
from .gateway import ApiGateway
from .tasks import TaskState
from .telemetry import trace_scope
from .webui import WebUI

__all__ = ["RestApiServer"]

#: The access log: one DEBUG line per request, so it is quiet by default.
_ACCESS_LOG = logging.getLogger(__name__)


def _route_label(path: str) -> str:
    """Collapse a request path onto the fixed route vocabulary.

    Metric labels must stay low-cardinality, so comparison/dataset ids are
    folded to ``*`` and anything unrecognised becomes ``other``.
    """
    parts = [part for part in path.split("/") if part]
    if not parts:
        return "/"
    if parts == ["metrics"]:
        return "/metrics"
    if parts[0] != "api":
        return "other"
    if parts[1:] in (["datasets"], ["algorithms"], ["stats"], ["comparisons"]):
        return "/api/" + parts[1]
    if parts[1] == "datasets" and len(parts) == 4 and parts[3] == "summary":
        return "/api/datasets/*/summary"
    if parts[1] == "comparisons" and len(parts) == 3:
        return "/api/comparisons/*"
    if parts[1] == "comparisons" and len(parts) == 4 and parts[3] in (
        "status", "events", "results", "logs", "trace"
    ):
        return "/api/comparisons/*/" + parts[3]
    if parts[1] == "storage" and len(parts) == 3 and parts[2] in (
        "replicate", "spill", "rebalance", "read-repair"
    ):
        return "/api/storage/" + parts[2]
    return "other"


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning :class:`RestApiServer`'s gateway."""

    #: Set by :class:`RestApiServer` when the handler class is created.
    server_wrapper: "RestApiServer"

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        # The stdlib writes access lines to stderr; route them to the
        # module's logger instead.
        _ACCESS_LOG.debug("%s " + format, self.address_string(), *args)

    def _send_json(
        self,
        payload: Any,
        status: int = 200,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, ensure_ascii=False, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_html(self, html: str, status: int = 200) -> None:
        body = html.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _traced(self, method: str, handler) -> None:
        """Run one request handler under a ``rest_request`` telemetry span.

        The span is the trace root of whatever the handler triggers — a
        submission's ``comparison`` span becomes its child, so the HTTP
        request and the work it spawned share one trace id.  SSE streams
        bypass the wrapper in :meth:`do_GET`: they pin the handler thread
        for the stream's lifetime and would record stream duration, not
        request-handling latency.
        """
        gateway = self.server_wrapper.gateway
        route = _route_label(self.path)
        gateway.metrics.counter_inc(
            "http_requests_total", help="REST requests handled, by method and route",
            method=method, route=route,
        )
        span = gateway.tracer.start_trace("rest_request", method=method, route=route)
        with trace_scope(span if span.recording else None):
            try:
                handler()
            finally:
                span.finish()

    def _send_error_json(self, message: str, status: int, **extra: Any) -> None:
        self._send_json({"error": message, **extra}, status=status)

    def _stream_sse(self, comparison_id: str, after: int, keepalive: float) -> None:
        """Stream a comparison's events as ``text/event-stream`` frames.

        The handler thread is pinned for the duration of the stream — which
        is exactly the deal the threading server offers: submissions return
        immediately, observers each hold one thread.  The stream ends after
        the ``task_done`` frame (or silently when the client disconnects).

        While the job is idle, a ``: ping`` SSE comment is written every
        ``keepalive`` seconds: comments are ignored by every SSE client but
        keep the connection warm through proxies that reap idle upstreams.
        A client that loses the stream anyway resumes losslessly by
        reconnecting with ``after=<last seen id>``.
        """
        gateway = self.server_wrapper.gateway
        # Probe the event cursor itself before committing the response, so
        # unknown (or registry-evicted) ids still 404: get_status would fall
        # back to an evicted comparison's stored result and let the stream
        # raise *after* the 200 headers were sent.
        gateway.get_events(comparison_id, after=after, timeout=0.0)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.end_headers()
        cursor = after

        def write_frames(events) -> bool:
            """Write the frames; return True once ``task_done`` went out."""
            nonlocal cursor
            for event in events:
                cursor = event["seq"]
                frame = (
                    f"id: {event['seq']}\n"
                    f"event: {event['type']}\n"
                    f"data: {json.dumps(event, ensure_ascii=False, default=str)}\n\n"
                )
                self.wfile.write(frame.encode("utf-8"))
                self.wfile.flush()
                if event["type"] == "task_done":
                    return True
            return False

        try:
            while True:
                events = gateway.get_events(
                    comparison_id, after=cursor, timeout=keepalive
                )
                if not events:
                    if gateway.get_status(comparison_id).state.is_terminal():
                        # The job finished right after the poll timed out:
                        # drain the tail so the promised task_done frame is
                        # delivered before the stream closes.
                        write_frames(
                            gateway.get_events(
                                comparison_id, after=cursor, timeout=0.0
                            )
                        )
                        return
                    self.wfile.write(b": ping\n\n")
                    self.wfile.flush()
                    continue
                if write_frames(events):
                    return
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away; nothing to clean up
        except ReproError:
            # The record was evicted mid-stream (it had finished; only
            # terminal jobs age out) — the response is already committed,
            # so just end the stream.
            return

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("the request body must be a JSON object")
        return payload

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        query = parse_qs(urlparse(self.path).query)
        if query.get("stream", [""])[0] == "sse":
            self._handle_get()  # SSE pins the thread; no request span
            return
        self._traced("GET", self._handle_get)

    def _handle_get(self) -> None:
        gateway = self.server_wrapper.gateway
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        query = parse_qs(parsed.query)
        try:
            if not parts:
                self._send_html(self.server_wrapper.render_index())
                return
            if parts == ["metrics"]:
                self._send_text(gateway.render_metrics())
                return
            if parts[:2] == ["api", "datasets"] and len(parts) == 2:
                self._send_json(gateway.list_datasets())
                return
            if parts[:2] == ["api", "datasets"] and len(parts) == 4 and parts[3] == "summary":
                self._send_json(gateway.dataset_summary(parts[2]))
                return
            if parts == ["api", "algorithms"]:
                self._send_json(gateway.list_algorithms())
                return
            if parts == ["api", "stats"]:
                self._send_json(gateway.get_platform_stats())
                return
            if parts == ["api", "comparisons"]:
                self._send_json(gateway.list_comparisons())
                return
            if parts[:2] == ["api", "comparisons"] and len(parts) == 4:
                comparison_id = parts[2]
                if parts[3] == "status":
                    progress = gateway.get_status(comparison_id)
                    self._send_json(
                        {
                            "comparison_id": comparison_id,
                            "state": progress.state.value,
                            "completed_queries": progress.completed_queries,
                            "total_queries": progress.total_queries,
                            "error": progress.error,
                        }
                    )
                    return
                if parts[3] == "events":
                    after = int(query.get("after", ["0"])[0])
                    if query.get("stream", [""])[0] == "sse":
                        keepalive = float(query.get("keepalive", ["15"])[0])
                        self._stream_sse(
                            comparison_id, after, min(max(keepalive, 0.05), 30.0)
                        )
                        return
                    timeout = min(float(query.get("timeout", ["10"])[0]), 30.0)
                    events = gateway.get_events(
                        comparison_id, after=after, timeout=max(timeout, 0.0)
                    )
                    progress = gateway.get_status(comparison_id)
                    if progress.state.is_terminal():
                        # The job finished between the events snapshot and
                        # the status read: top the batch up with the (now
                        # immediately available) tail so a terminal-state
                        # response always carries the complete log through
                        # task_done — clients may stop polling on `state`.
                        cursor = events[-1]["seq"] if events else after
                        events.extend(
                            gateway.get_events(
                                comparison_id, after=cursor, timeout=0.0
                            )
                        )
                    self._send_json(
                        {
                            "comparison_id": comparison_id,
                            "state": progress.state.value,
                            "events": events,
                            "next_after": events[-1]["seq"] if events else after,
                        }
                    )
                    return
                if parts[3] == "results":
                    k = int(query.get("k", ["5"])[0])
                    progress = gateway.get_status(comparison_id)
                    if progress.state is not TaskState.COMPLETED:
                        if progress.state.is_terminal():
                            # Failed/cancelled: results will never exist —
                            # say so (with the failure detail) instead of
                            # implying a retry might succeed.
                            message = (
                                f"comparison {comparison_id} finished "
                                f"{progress.state.value} and has no results"
                            )
                            if progress.error:
                                message += f": {progress.error}"
                        else:
                            message = (
                                f"comparison {comparison_id} has no results yet "
                                f"(state: {progress.state.value})"
                            )
                        self._send_error_json(
                            message,
                            409,
                            state=progress.state.value,
                            completed_queries=progress.completed_queries,
                            total_queries=progress.total_queries,
                            task_error=progress.error,
                        )
                        return
                    table = gateway.get_comparison_table(comparison_id, k=k)
                    self._send_json(table.as_dict())
                    return
                if parts[3] == "logs":
                    self._send_json({"lines": gateway.get_logs(comparison_id)})
                    return
                if parts[3] == "trace":
                    self._send_json(gateway.get_trace(comparison_id))
                    return
            self._send_error_json(f"unknown resource {parsed.path!r}", 404)
        except KeyError as exc:
            self._send_error_json(str(exc), 404)
        except ReproError as exc:
            self._send_error_json(str(exc), 404)
        except ValueError as exc:
            self._send_error_json(str(exc), 400)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._traced("POST", self._handle_post)

    def _handle_post(self) -> None:
        gateway = self.server_wrapper.gateway
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts == ["api", "comparisons"]:
                payload = self._read_json_body()
                queries = payload.get("queries")
                if not isinstance(queries, list) or not queries:
                    raise ValueError("the body must contain a non-empty 'queries' list")
                synchronous = bool(payload.get("synchronous", False))
                comparison_id = gateway.run_queries(
                    queries,
                    synchronous=synchronous,
                    deadline_ms=payload.get("deadline_ms"),
                )
                self._send_json({"comparison_id": comparison_id}, status=201)
                return
            if parts[:2] == ["api", "storage"] and len(parts) == 3:
                kind = parts[2]
                payload = self._read_json_body()
                if kind == "replicate":
                    job_id = gateway.replicate_storage()
                elif kind == "spill":
                    job_id = gateway.spill_storage(
                        max_resident=payload.get("max_resident"),
                        max_resident_bytes=payload.get("max_resident_bytes"),
                        dataset_ids=payload.get("dataset_ids"),
                    )
                elif kind == "rebalance":
                    job_id = gateway.rebalance_storage()
                elif kind == "read-repair":
                    job_id = gateway.read_repair_storage()
                else:
                    self._send_error_json(f"unknown storage operation {kind!r}", 404)
                    return
                self._send_json({"job_id": job_id, "kind": kind}, status=202)
                return
            self._send_error_json(f"unknown resource {parsed.path!r}", 404)
        except GatewayOverloadedError as exc:
            # Shed by admission control: nothing was enqueued.  429 plus the
            # standard Retry-After header (integer seconds, rounded up so the
            # client never comes back early) and the precise hint in the body.
            self._send_json(
                {"error": str(exc), "retry_after": exc.retry_after, "shed": True},
                status=429,
                headers={"Retry-After": str(max(1, math.ceil(exc.retry_after)))},
            )
        except ReproError as exc:
            self._send_error_json(str(exc), 400)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_error_json(str(exc), 400)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._traced("DELETE", self._handle_delete)

    def _handle_delete(self) -> None:
        gateway = self.server_wrapper.gateway
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        try:
            if parts[:2] == ["api", "comparisons"] and len(parts) == 3:
                self._send_json(gateway.cancel_comparison(parts[2]))
                return
            self._send_error_json(f"unknown resource {parsed.path!r}", 404)
        except ReproError as exc:
            self._send_error_json(str(exc), 404)
        except ValueError as exc:
            self._send_error_json(str(exc), 400)


class RestApiServer:
    """Serve an :class:`ApiGateway` over HTTP on a background thread.

    Parameters
    ----------
    gateway:
        The gateway to expose; a default one (50 pre-loaded datasets) is
        created when omitted.
    host, port:
        Bind address.  ``port=0`` (the default) picks a free port; read the
        actual address from :attr:`address` after :meth:`start`.

    Examples
    --------
    >>> from repro.platform.restapi import RestApiServer
    >>> server = RestApiServer()            # doctest: +SKIP
    >>> server.start()                      # doctest: +SKIP
    >>> server.address                      # doctest: +SKIP
    ('127.0.0.1', 54321)
    >>> server.stop()                       # doctest: +SKIP
    """

    def __init__(
        self,
        gateway: Optional[ApiGateway] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._owns_gateway = gateway is None
        self.gateway = gateway if gateway is not None else ApiGateway()
        self._host = host
        self._port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._webui = WebUI(self.gateway)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> Tuple[str, int]:
        """Bind the socket, start serving on a daemon thread, return the address."""
        if self._httpd is not None:
            return self.address
        handler_class = type(
            "BoundGatewayRequestHandler", (_GatewayRequestHandler,), {"server_wrapper": self}
        )
        self._httpd = ThreadingHTTPServer((self._host, self._port), handler_class)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-restapi", daemon=True
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop serving and, if this server created the gateway, shut it down."""
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._owns_gateway:
            self.gateway.shutdown()

    @property
    def address(self) -> Tuple[str, int]:
        """Return the bound ``(host, port)``; raises if the server is not started."""
        if self._httpd is None:
            raise RuntimeError("the server is not running; call start() first")
        return self._httpd.server_address  # type: ignore[return-value]

    @property
    def url(self) -> str:
        """Return the base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self) -> "RestApiServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # HTML index
    # ------------------------------------------------------------------ #
    def render_index(self) -> str:
        """Render the HTML landing page (delegates to the Web UI renderer)."""
        return self._webui.render_index()
