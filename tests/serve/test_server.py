"""End-to-end serving tests over real sockets (ephemeral ports).

Every test starts a :class:`~repro.serve.ServerThread` on port 0 and
talks plain HTTP through ``conftest.request``.  The tier-1 smoke test
drives two tenants and checks the served answers are bit-identical to a
serial :class:`~repro.simulate.monitor.VisibilityMonitor` replay of the
same query streams.
"""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.booldata.schema import Schema
from repro.common.errors import ReproError
from repro.obs.recorder import Recorder, recording
from repro.runtime import SolverHarness
from repro.serve import ServeConfig, ServerThread
from repro.serve.app import MAX_HEADER_LINES
from repro.simulate.monitor import VisibilityMonitor
from tests.serve.conftest import request

WIDTH = 6
CHAIN = ("ILP", "ConsumeAttrCumul")

TENANT_STREAMS = {
    "alpha": [0b110000, 0b100100, 0b010100, 0b000101, 0b001010],
    "beta": [0b111000, 0b000111, 0b101010, 0b010101, 0b110011, 0b001100],
}
NEW_TUPLE = 0b110111
BUDGET = 3


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError("condition not reached in time")


def serial_reference(queries: list[int]):
    """What a serial monitor replay of the same stream answers."""
    monitor = VisibilityMonitor(
        NEW_TUPLE,
        0,
        BUDGET,
        Schema.anonymous(WIDTH),
        window_size=512,
        harness=SolverHarness(CHAIN, deadline_ms=None),
    )
    monitor.observe_many(queries)
    return monitor.reoptimize_anytime()


def test_smoke_two_tenants_bit_identical_and_clean_shutdown():
    """Tier-1 smoke: serve two tenants, match the serial monitor exactly."""
    thread = ServerThread(
        ServeConfig(width=WIDTH, chain=CHAIN, deadline_ms=None)
    )
    with thread as server:
        port = server.port
        for name, queries in TENANT_STREAMS.items():
            status, body, _ = request(
                port, "POST", "/ingest", {"tenant": name, "queries": queries}
            )
            assert status == 200
            assert body["accepted"] == len(queries)
            assert body["window"] == len(queries)

        answers = {}
        for name in TENANT_STREAMS:
            status, body, _ = request(
                port, "POST", "/solve",
                {"tenant": name, "new_tuple": NEW_TUPLE, "budget": BUDGET},
            )
            assert status == 200
            assert body["status"] == "exact"
            answers[name] = body

        status, body, _ = request(port, "GET", "/status")
        assert status == 200
        assert sorted(body["tenants"]) == sorted(TENANT_STREAMS)

    # bit-identical to the serial monitor replay, tenant by tenant
    for name, queries in TENANT_STREAMS.items():
        outcome = serial_reference(queries)
        served = answers[name]
        assert served["keep_mask"] == outcome.solution.keep_mask
        assert served["satisfied"] == outcome.solution.satisfied
        assert served["algorithm"] == outcome.solution.algorithm
        assert served["optimal"] is outcome.solution.optimal
        assert served["status"] == outcome.status

    # clean shutdown: the context manager drained and the port is dead
    assert not thread.server.running
    with pytest.raises(OSError):
        request(port, "GET", "/status", timeout_s=2.0)


def test_protocol_errors_over_the_wire():
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        port = server.port
        status, body, _ = request(port, "POST", "/solve", {"tenant": "t"})
        assert status == 400 and "new_tuple" in body["error"]

        status, body, _ = request(port, "GET", "/nowhere")
        assert status == 404

        status, body, _ = request(port, "POST", "/status", {})
        assert status == 405

        # solving against an empty window is a conflict, not a crash
        status, body, _ = request(
            port, "POST", "/solve",
            {"tenant": "empty", "new_tuple": 1, "budget": 1},
        )
        assert status == 409 and "no ingested queries" in body["error"]

        # a protocol-level oversized batch is 413
        status, body, _ = request(
            port, "POST", "/ingest",
            {"tenant": "t", "queries": [1] * 10_001},
        )
        assert status == 413


def exchange(port: int, raw: bytes, timeout_s: float = 10.0) -> bytes:
    """Send ``raw`` on a fresh connection; return every byte the server
    sends until it closes the connection."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        sock.sendall(raw)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


#: asyncio.start_server's default StreamReader line limit; each over-long
#: case ends on the byte that crosses it, so the server has read every
#: byte sent when it answers and closes
STREAM_LIMIT = 1 << 16


@pytest.mark.parametrize(
    "raw, error",
    [
        pytest.param(
            b"GET /status HTTP/1.1\r\n" + b"X-Repeat: 1\r\n" * (MAX_HEADER_LINES + 1),
            b"header lines", id="too-many-header-lines",
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"bad Content-Length", id="negative-content-length",
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
            b"bad Content-Length", id="underscored-content-length",
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\nContent-Length: 25\r\nContent-Length: 0\r\n\r\n",
            b"conflicting Content-Length", id="conflicting-content-lengths",
        ),
        pytest.param(
            b"G" * (STREAM_LIMIT + 1), b"too long", id="over-long-request-line",
        ),
        pytest.param(
            b"GET /status HTTP/1.1\r\n" + b"X" * (STREAM_LIMIT + 1),
            b"too long", id="over-long-header-line",
        ),
    ],
)
def test_malformed_request_head_is_400_and_closes(raw, error):
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        reply = exchange(server.port, raw)
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert reply.count(b"HTTP/1.1 ") == 1  # nothing after it is framed
    assert error in reply


def test_header_block_at_the_cap_is_served():
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        reply = exchange(
            server.port,
            b"GET /status HTTP/1.1\r\nConnection: close\r\n"
            + b"X-Repeat: 1\r\n" * (MAX_HEADER_LINES - 1) + b"\r\n",
        )
    assert reply.startswith(b"HTTP/1.1 200 ")


def test_tenant_isolation():
    """One tenant's bad requests and window never leak into another's."""
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        port = server.port
        request(port, "POST", "/ingest", {"tenant": "a", "queries": [1, 2, 3]})
        request(port, "POST", "/ingest", {"tenant": "b", "queries": [4]})

        # a's unknown-solver chain fails for a only
        status, body, _ = request(
            port, "POST", "/solve",
            {"tenant": "a", "new_tuple": 7, "budget": 2,
             "chain": ["NoSuchSolver"]},
        )
        assert status == 400

        status, body, _ = request(
            port, "POST", "/solve", {"tenant": "b", "new_tuple": 7, "budget": 2}
        )
        assert status == 200

        status, body, _ = request(port, "GET", "/status")
        assert body["tenants"]["a"]["window"] == 3
        assert body["tenants"]["b"]["window"] == 1
        assert body["tenants"]["a"]["solves"] == 0
        assert body["tenants"]["b"]["solves"] == 1


def _gate_tenant_solve(server, tenant_name: str):
    """Replace a tenant's solve with one that blocks on an event."""
    tenant = server.tenants.get(tenant_name)
    gate = threading.Event()
    started = threading.Event()

    def slow_solve(request_obj):
        started.set()
        assert gate.wait(timeout=30.0)
        return {"tenant": tenant_name, "gated": True}

    tenant.solve = slow_solve
    return gate, started


def test_tenant_queue_shed_is_429_with_retry_after():
    config = ServeConfig(width=WIDTH, chain=CHAIN, queue_depth=1, workers=2)
    with ServerThread(config) as server:
        port = server.port
        request(port, "POST", "/ingest", {"tenant": "t", "queries": [1]})
        gate, started = _gate_tenant_solve(server, "t")

        payload = {"tenant": "t", "new_tuple": 1, "budget": 1}
        background = []
        worker = threading.Thread(
            target=lambda: background.append(
                request(port, "POST", "/solve", payload)
            )
        )
        worker.start()
        started.wait(timeout=10.0)
        wait_until(lambda: server.admission.pending_for("t") == 1)

        # the tenant's single slot is taken: the second solve is shed
        status, body, headers = request(port, "POST", "/solve", payload)
        assert status == 429
        assert body["error"] == "shed: tenant_queue"
        assert "retry-after" in headers

        gate.set()
        worker.join(timeout=10.0)
        status, body, _ = background[0]
        assert status == 200 and body["gated"] is True
        assert server.admission.total_pending == 0


def test_global_overload_shed_is_503():
    config = ServeConfig(
        width=WIDTH, chain=CHAIN, queue_depth=1, max_pending=1, workers=2
    )
    with ServerThread(config) as server:
        port = server.port
        for name in ("a", "b"):
            request(port, "POST", "/ingest", {"tenant": name, "queries": [1]})
        gate, started = _gate_tenant_solve(server, "a")

        worker = threading.Thread(
            target=lambda: request(
                port, "POST", "/solve",
                {"tenant": "a", "new_tuple": 1, "budget": 1},
            )
        )
        worker.start()
        started.wait(timeout=10.0)

        # the whole box is saturated: a *different* tenant is shed 503
        status, body, headers = request(
            port, "POST", "/solve", {"tenant": "b", "new_tuple": 1, "budget": 1}
        )
        assert status == 503
        assert body["error"] == "shed: overload"
        assert "retry-after" in headers

        gate.set()
        worker.join(timeout=10.0)


def test_tiny_bounds_shed_yet_every_retrying_tenant_is_served():
    """Bounded rejection under tiny admission bounds: clients that retry
    on 429/503 all land, none gives up, every answer matches the serial
    replay, and nothing stays pending after the drain."""
    config = ServeConfig(
        width=WIDTH, chain=CHAIN, deadline_ms=None,
        queue_depth=1, max_pending=1, workers=2,
    )
    rng = random.Random(7)
    streams = {
        f"t{index}": [rng.randint(1, (1 << WIDTH) - 1) for _ in range(8)]
        for index in range(6)
    }
    answers, gave_up = {}, []

    def call(port, path, payload):
        for attempt in range(1_000):
            status, body, _ = request(port, "POST", path, payload)
            if status not in (429, 503):
                return status, body
            time.sleep(0.002 * (1 + attempt % 5))
        gave_up.append(payload["tenant"])
        return status, body

    def client(port, name, queries):
        for start in range(0, len(queries), 2):
            call(port, "/ingest", {"tenant": name, "queries": queries[start:start + 2]})
        answers[name] = call(
            port, "/solve", {"tenant": name, "new_tuple": NEW_TUPLE, "budget": BUDGET}
        )

    with ServerThread(config) as server:
        port = server.port
        # hold the only global slot, so the clients' first requests are shed
        request(port, "POST", "/ingest", {"tenant": "holder", "queries": [1]})
        gate, started = _gate_tenant_solve(server, "holder")
        holder = threading.Thread(
            target=request,
            args=(port, "POST", "/solve", {"tenant": "holder", "new_tuple": 1, "budget": 1}),
        )
        holder.start()
        assert started.wait(timeout=10.0)
        clients = [
            threading.Thread(target=client, args=(port, name, queries))
            for name, queries in streams.items()
        ]
        for thread in clients:
            thread.start()
        wait_until(lambda: server.admission.shed["overload"] > 0)
        gate.set()
        for thread in (holder, *clients):
            thread.join(timeout=60.0)
            assert not thread.is_alive()
        assert server.admission.total_pending == 0

    assert gave_up == []
    for name, queries in streams.items():
        status, body = answers[name]
        assert status == 200
        outcome = serial_reference(queries)
        assert (body["keep_mask"], body["satisfied"]) == (
            outcome.solution.keep_mask, outcome.solution.satisfied,
        )


def test_tenant_limit_shed_is_429():
    with ServerThread(
        ServeConfig(width=WIDTH, chain=CHAIN, max_tenants=1)
    ) as server:
        port = server.port
        status, _, _ = request(
            port, "POST", "/ingest", {"tenant": "only", "queries": [1]}
        )
        assert status == 200
        status, body, _ = request(
            port, "POST", "/ingest", {"tenant": "extra", "queries": [1]}
        )
        assert status == 429
        assert "tenant limit" in body["error"]
        # the existing tenant keeps being served
        status, _, _ = request(
            port, "POST", "/ingest", {"tenant": "only", "queries": [2]}
        )
        assert status == 200


def test_graceful_shutdown_drains_inflight_requests():
    thread = ServerThread(ServeConfig(width=WIDTH, chain=CHAIN, workers=2))
    server = thread.start()
    try:
        port = server.port
        request(port, "POST", "/ingest", {"tenant": "t", "queries": [1]})
        gate, started = _gate_tenant_solve(server, "t")

        background = []
        worker = threading.Thread(
            target=lambda: background.append(
                request(port, "POST", "/solve",
                        {"tenant": "t", "new_tuple": 1, "budget": 1})
            )
        )
        worker.start()
        started.wait(timeout=10.0)

        stopper = threading.Thread(target=thread.stop)
        stopper.start()
        wait_until(lambda: server._stopping)
        assert stopper.is_alive()  # stop() is waiting on the drain

        gate.set()
        worker.join(timeout=10.0)
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()

        # the in-flight request was answered, not dropped
        status, body, _ = background[0]
        assert status == 200 and body["gated"] is True
        assert not server.running
    finally:
        gate.set()
        thread.stop()


def test_durable_tenants_resume_across_restarts(tmp_path):
    store = tmp_path / "serve-store"
    config = ServeConfig(
        width=WIDTH, chain=("ConsumeAttrCumul",), deadline_ms=None,
        store_dir=store,
    )
    payload = {"tenant": "persisted", "new_tuple": NEW_TUPLE, "budget": BUDGET}
    queries = TENANT_STREAMS["alpha"]

    with ServerThread(config) as server:
        port = server.port
        request(port, "POST", "/ingest",
                {"tenant": "persisted", "queries": queries})
        status, first, _ = request(port, "POST", "/solve", payload)
        assert status == 200

    # a fresh server over the same store resumes the window on first touch
    with ServerThread(config) as server:
        port = server.port
        status, resumed, _ = request(port, "POST", "/solve", payload)
        assert status == 200
        assert resumed["keep_mask"] == first["keep_mask"]
        assert resumed["satisfied"] == first["satisfied"]
        assert resumed["window"] == len(queries)

        status, body, _ = request(port, "GET", "/status")
        assert body["tenants"]["persisted"]["durable"] is True


def test_metrics_and_healthz_with_live_recorder():
    with recording(Recorder()) as recorder:
        with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
            port = server.port
            request(port, "POST", "/ingest", {"tenant": "t", "queries": [1, 3]})
            request(port, "POST", "/solve",
                    {"tenant": "t", "new_tuple": 7, "budget": 2})

            status, text, _ = request(port, "GET", "/metrics")
            assert status == 200
            assert "repro_serve_api_requests_total" in text
            assert "repro_serve_solve_seconds" in text
            assert "repro_serve_tenants 1" in text

            status, body, _ = request(port, "GET", "/healthz")
            assert status == 200
            assert body["status"] == "ok"
            assert body["checks"]["admission"]["healthy"] is True
            assert body["checks"]["tenants"]["healthy"] is True

    assert recorder.metrics.counter_total("repro_serve_solves_total") == 1
    assert recorder.metrics.counter_total("repro_serve_tenants_created_total") == 1


def test_metrics_without_recorder_is_explicit():
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        status, text, _ = request(server.port, "GET", "/metrics")
        assert status == 200
        assert text.startswith("# no live recorder installed")


def test_bind_failure_propagates():
    with ServerThread(ServeConfig(width=WIDTH, chain=CHAIN)) as server:
        taken = server.port
        clash = ServerThread(ServeConfig(width=WIDTH, chain=CHAIN, port=taken))
        with pytest.raises((OSError, ReproError)):
            clash.start()
