"""The asyncio HTTP front end: routes, backpressure, graceful shutdown.

:class:`VisibilityServer` is stdlib-only: a hand-rolled HTTP/1.1 loop
over ``asyncio.start_server`` (request line, headers, ``Content-Length``
body, keep-alive), four routes, and a thread-pool executor for the
solver work so the event loop never blocks on a solve:

* ``POST /solve``  — run one tenant's attribute selection;
* ``POST /ingest`` — append a batch of queries to a tenant's window;
* ``GET /status``  — server + per-tenant summaries;
* ``GET /metrics`` — Prometheus exposition of the installed recorder;
* ``GET /healthz`` — liveness with admission/tenant probes.

Backpressure is decided before any work is queued: the
:class:`~repro.serve.admission.AdmissionController` sheds a tenant over
its queue depth with **429**, a tenant draining its token bucket (when
``--rate-limit`` is set) with **429**, and a saturated box with **503**
(all carry ``Retry-After``), so the executor's backlog is always bounded and
a request is either served or refused — never parked on an unbounded
queue.  :meth:`VisibilityServer.stop` drains: the listener closes, all
admitted requests finish, durable tenants checkpoint, then the executor
shuts down.

:class:`ServerThread` runs the whole server on a private event loop in
a daemon thread — the shape the CLI, tests and the load-generating
benchmark share.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.booldata.schema import Schema
from repro.common.errors import ValidationError
from repro.core.registry import DEFAULT_FALLBACK_CHAIN
from repro.obs.recorder import get_recorder
from repro.serve.admission import SHED_STATUS, AdmissionController
from repro.serve.protocol import ProtocolError, parse_ingest, parse_solve
from repro.serve.tenants import TenantConfig, TenantManager
from repro.store import StoreConfig

__all__ = [
    "ServeConfig",
    "ServerThread",
    "VisibilityServer",
    "admission_health",
    "tenants_health",
]

#: largest accepted request body (an ingest batch of masks fits easily)
MAX_BODY_BYTES = 1 << 20

#: most header lines accepted in one request
MAX_HEADER_LINES = 100

#: seconds suggested to shed clients via ``Retry-After``
RETRY_AFTER_S = 1

#: endpoint label values for ``repro_serve_api_requests_total``
_ENDPOINTS = {
    ("POST", "/solve"): "solve",
    ("POST", "/ingest"): "ingest",
    ("GET", "/status"): "status",
    ("GET", "/metrics"): "metrics",
    ("GET", "/healthz"): "healthz",
}


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server needs; the CLI flags map 1:1 onto fields."""

    width: int = 16
    host: str = "127.0.0.1"
    port: int = 0
    window_size: int = 512
    compact_threshold: float = 0.5
    cache_size: int = 64
    kernel: str | None = None
    chain: tuple[str, ...] = DEFAULT_FALLBACK_CHAIN
    engine: str | None = None
    deadline_ms: float | None = 250.0
    max_tenants: int = 256
    queue_depth: int = 8
    max_pending: int | None = None
    rate_limit: float | None = None
    rate_burst: int | None = None
    workers: int = 4
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0
    store_dir: Path | None = None
    store_config: StoreConfig | None = None
    attribute_names: tuple[str, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValidationError(f"width must be >= 1, got {self.width}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.port < 0 or self.port > 65535:
            raise ValidationError(f"port must be in [0, 65535], got {self.port}")

    @property
    def schema(self) -> Schema:
        if self.attribute_names is not None:
            return Schema(self.attribute_names)
        return Schema.anonymous(self.width)

    def resolved_max_pending(self) -> int:
        if self.max_pending is not None:
            return max(self.max_pending, self.queue_depth)
        # enough for every worker to be busy with a full backlog behind it
        return max(self.queue_depth, self.workers * 4)


class VisibilityServer:
    """Multi-tenant HTTP server over the streaming/solver stack."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        schema = config.schema
        self.tenants = TenantManager(
            TenantConfig(
                schema=schema,
                window_size=config.window_size,
                compact_threshold=config.compact_threshold,
                cache_size=config.cache_size,
                kernel=config.kernel,
                chain=tuple(config.chain),
                engine=config.engine,
                deadline_ms=config.deadline_ms,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown_s=config.breaker_cooldown_s,
                store_dir=config.store_dir,
                store_config=config.store_config,
            ),
            max_tenants=config.max_tenants,
        )
        self.admission = AdmissionController(
            config.queue_depth,
            config.resolved_max_pending(),
            rate_limit=config.rate_limit,
            burst=config.rate_burst,
        )
        self.width = schema.width
        self._executor: ThreadPoolExecutor | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stopping = False
        self._inflight = 0
        self._drained: asyncio.Event | None = None
        self._connections: set[asyncio.Task] = set()
        self.started_s: float | None = None
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._server is not None

    async def start(self) -> None:
        if self._server is not None:
            raise ValidationError("server already started")
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._drained = asyncio.Event()
        self._drained.set()
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_s = time.time()
        recorder = get_recorder()
        if recorder.enabled:
            recorder.event(
                "serve.tenant_server_start",
                host=self.config.host,
                port=self.port,
                workers=self.config.workers,
            )

    async def stop(self) -> None:
        """Graceful shutdown: refuse new work, drain, checkpoint, close."""
        if self._server is None:
            return
        self._stopping = True
        self._server.close()
        # every admitted request finishes before tenant state is torn down
        await self._drained.wait()
        # idle keep-alive connections are parked in readline(); cancel them
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None
        executor = self._executor
        self._executor = None
        closed = await asyncio.get_running_loop().run_in_executor(
            None, self.tenants.close_all
        )
        if executor is not None:
            executor.shutdown(wait=True)
        recorder = get_recorder()
        if recorder.enabled:
            recorder.event("serve.tenant_server_stop", tenants_closed=len(closed))

    # -- connection handling ------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        except asyncio.CancelledError:
            # stop() cancels idle keep-alive readers; that is a normal
            # connection end, not an error to propagate
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_one(self, reader, writer) -> bool:
        try:
            head = await _read_head(reader)
        except ProtocolError as error:
            await self._respond(writer, error.status, {"error": str(error)})
            return False
        if head is None:
            return False
        method, target, version, headers, length = head
        body = await reader.readexactly(length) if length > 0 else b""
        keep_alive = (
            headers.get("connection", "").lower() != "close"
            and version != "HTTP/1.0"
        )

        path = target.split("?", 1)[0]
        endpoint = _ENDPOINTS.get((method, path), "other")
        self._inflight += 1
        self._drained.clear()
        try:
            try:
                status, payload, text = await self._route(method, path, body)
            except ProtocolError as error:
                status, payload, text = error.status, {"error": str(error)}, None
            except Exception as error:  # a handler bug must not kill the loop
                status, payload, text = 500, {"error": f"internal: {error}"}, None
            await self._respond(writer, status, payload, text)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count(
                "repro_serve_api_requests_total",
                1,
                {"endpoint": endpoint, "code": str(status)},
            )
            recorder.gauge(
                "repro_serve_queue_depth", self.admission.total_pending
            )
        return keep_alive and status != 500

    async def _respond(self, writer, status, payload, text=None) -> None:
        if text is not None:
            data = text.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            data = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  413: "Payload Too Large", 429: "Too Many Requests",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Error")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
        ]
        if status in (429, 503):
            head.append(f"Retry-After: {RETRY_AFTER_S}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data)
        await writer.drain()

    # -- routing ------------------------------------------------------------------

    async def _route(self, method, path, body):
        if path == "/solve" and method == "POST":
            return await self._handle_work(
                parse_solve(body, self.width), "solve"
            )
        if path == "/ingest" and method == "POST":
            return await self._handle_work(
                parse_ingest(body, self.width), "ingest"
            )
        if path == "/status" and method == "GET":
            return 200, self._status_payload(), None
        if path == "/metrics" and method == "GET":
            recorder = get_recorder()
            if recorder.enabled:
                return 200, None, recorder.export_prometheus()
            return 200, None, "# no live recorder installed\n"
        if path == "/healthz" and method == "GET":
            healthy, payload = self._health_payload()
            return (200 if healthy else 503), payload, None
        if path in {"/solve", "/ingest", "/status", "/metrics", "/healthz"}:
            return 405, {"error": f"{method} not allowed on {path}"}, None
        return 404, {"error": f"unknown path {path}"}, None

    async def _handle_work(self, request, kind):
        """Common admission + executor dispatch for solve/ingest."""
        if self._stopping:
            self._count_shed("stopping")
            return 503, {"error": "server is shutting down"}, None
        try:
            tenant = self.tenants.get_or_create(request.tenant)
        except ProtocolError as error:
            if error.status == 429:
                self._count_shed("tenant_limit")
            raise
        reason = self.admission.try_acquire(request.tenant)
        if reason is not None:
            self._count_shed(reason)
            return (
                SHED_STATUS[reason],
                {"error": f"shed: {reason}", "tenant": request.tenant},
                None,
            )
        loop = asyncio.get_running_loop()
        try:
            handler = tenant.solve if kind == "solve" else tenant.ingest
            payload = await loop.run_in_executor(self._executor, handler, request)
            return 200, payload, None
        finally:
            self.admission.release(request.tenant)

    def _count_shed(self, reason: str) -> None:
        recorder = get_recorder()
        if recorder.enabled:
            recorder.count("repro_serve_shed_total", 1, {"reason": reason})

    # -- status & health ----------------------------------------------------------

    def _status_payload(self) -> dict:
        return {
            "uptime_s": round(time.time() - (self.started_s or time.time()), 3),
            "width": self.width,
            "workers": self.config.workers,
            "stopping": self._stopping,
            "admission": self.admission.snapshot(),
            "tenants": self.tenants.status(),
        }

    def _health_payload(self) -> tuple[bool, dict]:
        checks = {
            "admission": admission_health(self.admission)(),
            "tenants": tenants_health(self.tenants)(),
        }
        healthy = all(ok for ok, _ in checks.values())
        return healthy, {
            "status": "ok" if healthy and not self._stopping else "degraded",
            "stopping": self._stopping,
            "checks": {
                name: {"healthy": ok, "detail": detail}
                for name, (ok, detail) in checks.items()
            },
        }


async def _read_head(reader):
    """The next request's ``(method, target, version, headers, length)``.

    Returns ``None`` when the client closed the connection between
    requests.  A head the server refuses raises :class:`ProtocolError`;
    the caller answers it and closes the connection, since the rest of
    the stream can no longer be framed.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split(" ", 2)
        if len(parts) != 3:
            raise ProtocolError("malformed request line")
        headers = {}
        for _ in range(MAX_HEADER_LINES + 1):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            # a second, different length would frame the body two ways
            if name == "content-length" and headers.get(name, value) != value:
                raise ProtocolError("conflicting Content-Length headers")
            headers[name] = value
        else:
            raise ProtocolError(f"more than {MAX_HEADER_LINES} header lines")
    except ValueError:  # readline: a line longer than the stream's limit
        raise ProtocolError("request line or header line too long") from None
    declared = headers.get("content-length") or "0"
    try:
        length = int(declared)
    except ValueError:  # not a number, or more digits than int() converts
        length = -1
    # int() alone also takes a sign, spaces and underscores
    if length < 0 or not declared.isdigit():
        raise ProtocolError("bad Content-Length")
    if length > MAX_BODY_BYTES:
        raise ProtocolError(f"body exceeds {MAX_BODY_BYTES} bytes", 413)
    return (*parts, headers, length)


def admission_health(admission: AdmissionController):
    """Health probe: degrades while the global pending bound is hit."""

    def check() -> tuple[bool, str]:
        snapshot = admission.snapshot()
        saturated = snapshot["pending"] >= snapshot["max_total"]
        return (
            not saturated,
            f"pending={snapshot['pending']}/{snapshot['max_total']} "
            f"shed_429={snapshot['shed']['tenant_queue']} "
            f"shed_503={snapshot['shed']['overload']}",
        )

    return check


def tenants_health(manager: TenantManager):
    """Health probe: degrades once the tenant namespace is full."""

    def check() -> tuple[bool, str]:
        population = len(manager)
        return (
            population < manager.max_tenants,
            f"tenants={population}/{manager.max_tenants}",
        )

    return check


class ServerThread:
    """A :class:`VisibilityServer` on a private loop in a daemon thread.

    The synchronous-world adapter: the CLI's foreground run, the test
    suite and the load benchmark all start the server this way, talk to
    it over real sockets, and stop it with a clean drain.

    >>> thread = ServerThread(ServeConfig(width=4))   # doctest: +SKIP
    >>> with thread as server:                        # doctest: +SKIP
    ...     print(server.port)
    """

    def __init__(self, config: ServeConfig) -> None:
        self.server = VisibilityServer(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int | None:
        return self.server.port

    def start(self) -> "VisibilityServer":
        if self._thread is not None:
            raise ValidationError("server thread already started")
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as error:  # surface bind errors to the caller
                failure.append(error)
                started.set()
                return
            started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait(timeout=10.0)
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self.server

    def stop(self, timeout_s: float = 30.0) -> None:
        if self._thread is None or self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout=timeout_s)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout_s)
        self._loop.close()
        self._thread = None
        self._loop = None

    def __enter__(self) -> "VisibilityServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
