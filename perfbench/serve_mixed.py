"""serve_mixed: the multi-tenant HTTP server under mixed reads and writes.

Why: the only workload where ``repro.serve``, ``repro.stream`` (the
window and the ``SolveCache``), ``repro.store`` (the WAL) and
``repro.runtime`` do the work.  It puts writes beside reads, cache hits
beside misses, and tenant-lock contention on the hot tenants, while
mining, LP and numpy stay idle.

* Server: an in-process ``ServerThread`` with ``workers=2``, durable
  tenants in a scratch directory with the default ``fsync=interval``,
  the chain ``("ConsumeAttrCumul",)`` (the default chain's terminal
  tier) and ``deadline_ms=None``, so no deadline can fire.
* Client: one asyncio client in this process driving two keep-alive
  connections in a closed loop (two = the vCPUs of the machine the
  baseline was recorded on).
* Each connection owns three writing tenants; a round sends one ingest
  batch to one of them, then solves on it, and solves on the two hot
  tenants.  Hot tenants take no ingest in the timed phase and are
  solved from both connections; a tenant that takes ingests is touched
  by one connection only, so no answer depends on thread timing.
* The read op is a ``POST /solve``, the write op a ``POST /ingest``;
  ``ops_per_s`` counts 200 responses of both.
* Set-up starts the server, creates the tenants and ingests every
  tenant's window durably over HTTP.
* ``visibility_ratio`` is greedy quality: the answers of the first
  ``quality_solves`` solves of each connection against the BruteForce
  optimum on the same window.  Those solves are the same in every run
  of a seed, however far the timed phase gets.
"""

from __future__ import annotations

import asyncio
import json
from array import array
import random
import time
from dataclasses import dataclass
from pathlib import Path

from repro import Recorder, SolverHarness, VisibilityProblem, make_solver, recording
from repro.booldata import Schema
from repro.data import synthetic_workload
from repro.serve import ServeConfig, ServerThread
from repro.store import StoreConfig
from repro.stream import StreamingLog

from perfbench import tracing
from perfbench.measure import (
    InjectedFailure,
    Pass,
    peak_rss_mb,
    reset_peak_rss,
    work_dir,
)

WIDTH = 32
SCHEMA = Schema.anonymous(WIDTH)
CHAIN = ("ConsumeAttrCumul",)
CONNECTIONS = 2
WRITERS_PER_CONNECTION = 3
HOT_TENANTS = 2
#: queries per timed-phase ingest request
BATCH = 8
#: queries per warm-up ingest request
WARMUP_BATCH = 128
TUPLE_SIZE = 14
BUDGETS = (3, 4, 5)
#: (new_tuple, budget) keys a writer cycles through, one per write
WRITER_KEYS = 64
#: keys of a hot tenant; after their first solve every one is a cache hit
HOT_KEYS = 4
#: rounds in one cycle of a connection's script
ROUNDS = 1_500


@dataclass(frozen=True)
class Scale:
    window: int
    setup_repeats: int
    #: requests per connection in the traced pass
    trace_requests: int
    #: solves per connection that feed visibility_ratio
    quality_solves: int


SCALES = {
    "full": Scale(window=512, setup_repeats=11, trace_requests=2_500, quality_solves=400),
    "toy": Scale(window=64, setup_repeats=2, trace_requests=100, quality_solves=20),
}


@dataclass(frozen=True)
class Step:
    kind: str
    tenant: str
    #: the complete HTTP request
    raw: bytes
    #: ingest: the queries; solve: (new_tuple, budget)
    payload: tuple


@dataclass(frozen=True)
class Inputs:
    tenants: tuple[str, ...]
    #: tenant -> warm-up window
    windows: dict
    #: per connection: warm-up steps, then one cycle of timed steps
    warmups: tuple[tuple[Step, ...], ...]
    scripts: tuple[tuple[Step, ...], ...]


def _request(kind: str, body: dict) -> bytes:
    data = json.dumps(body).encode()
    head = (
        f"POST /{kind} HTTP/1.1\r\nHost: perfbench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


def _ingest(tenant: str, queries) -> Step:
    queries = tuple(queries)
    return Step("ingest", tenant, _request("ingest", {"tenant": tenant, "queries": list(queries)}), queries)


def _solve(tenant: str, key: tuple[int, int]) -> Step:
    new_tuple, budget = key
    body = {"tenant": tenant, "new_tuple": new_tuple, "budget": budget}
    return Step("solve", tenant, _request("solve", body), key)


def generate(seed: int, scale: Scale) -> Inputs:
    rng = random.Random(seed)
    writers = [
        [f"w{connection}-{index}" for index in range(WRITERS_PER_CONNECTION)]
        for connection in range(CONNECTIONS)
    ]
    hot = [f"hot-{index}" for index in range(HOT_TENANTS)]
    tenants = [name for group in writers for name in group] + hot

    def key() -> tuple[int, int]:
        attributes = rng.sample(range(WIDTH), TUPLE_SIZE)
        return sum(1 << attribute for attribute in attributes), rng.choice(BUDGETS)

    keys = {
        tenant: [key() for _ in range(HOT_KEYS if tenant in hot else WRITER_KEYS)]
        for tenant in tenants
    }
    writes = ROUNDS // WRITERS_PER_CONNECTION + 1
    streams = {
        tenant: list(synthetic_workload(
            SCHEMA, scale.window + (0 if tenant in hot else writes * BATCH),
            seed=rng.getrandbits(32),
        ))
        for tenant in tenants
    }
    windows = {tenant: streams[tenant][:scale.window] for tenant in tenants}

    def warm(tenant: str) -> list[Step]:
        window = windows[tenant]
        return [
            _ingest(tenant, window[start:start + WARMUP_BATCH])
            for start in range(0, len(window), WARMUP_BATCH)
        ]

    warmups, scripts = [], []
    for connection in range(CONNECTIONS):
        owned = writers[connection]
        warmups.append(tuple(
            step for tenant in owned + hot[connection::CONNECTIONS] for step in warm(tenant)
        ))
        steps = []
        for round_ in range(ROUNDS):
            writer = owned[round_ % WRITERS_PER_CONNECTION]
            write = round_ // WRITERS_PER_CONNECTION
            start = scale.window + write * BATCH
            steps.append(_ingest(writer, streams[writer][start:start + BATCH]))
            writer_key = keys[writer][write % WRITER_KEYS]
            steps.append(_solve(writer, writer_key))
            first_hot = hot[(round_ + connection) % HOT_TENANTS]
            steps.append(_solve(first_hot, keys[first_hot][round_ % HOT_KEYS]))
            steps.append(_solve(writer, writer_key))
            second_hot = hot[(round_ + connection + 1) % HOT_TENANTS]
            steps.append(_solve(second_hot, keys[second_hot][(round_ // 2) % HOT_KEYS]))
        scripts.append(tuple(steps))
    return Inputs(tuple(tenants), windows, tuple(warmups), tuple(scripts))


class Connection:
    """One keep-alive HTTP/1.1 connection, just enough for the server.

    Not ``repro.serve.loadgen.HttpClient``: its per-request
    ``asyncio.wait_for`` wrappers and JSON encoding took a cached solve's
    median from 0.70 to 0.98 ms (alternating blocks on one server, 2-vCPU
    Xeon VM, Python 3.11), so the client's own cost would weigh in
    ``p50_ms`` and ``serve.front_ms``.  Requests here are encoded before
    the timed phase.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> Connection:
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def send(self, raw: bytes) -> tuple[int, bytes]:
        self.writer.write(raw)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return int(status_line.split(b" ", 2)[1]), await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def _encode(kind: str, body: dict) -> tuple[int, int, int, int]:
    """The response fields a request is checked on, as four ints."""
    if kind == "ingest":
        return body["accepted"], body["evicted"], body["epoch"], body["window"]
    keep_mask = body.get("keep_mask")
    return (
        int(body.get("status") == "exact"),
        -1 if keep_mask is None else keep_mask,
        -1 if keep_mask is None else body["satisfied"],
        body["epoch"],
    )


class Received:
    """What one connection's requests got back, request ``seq`` at index
    ``seq``.  Packed in arrays, so the client's own memory stays small
    and the same whatever the request count."""

    def __init__(self) -> None:
        self.latency_ms = array("d")
        #: status and the four encoded answer fields per request
        self.fields = array("q")

    def add(self, latency_ms: float, status: int, answer: tuple[int, int, int, int]) -> None:
        self.latency_ms.append(latency_ms)
        self.fields.append(status)
        self.fields.extend(answer)

    def __len__(self) -> int:
        return len(self.latency_ms)

    def status(self, seq: int) -> int:
        return self.fields[5 * seq]

    def answer(self, seq: int) -> tuple[int, ...]:
        return tuple(self.fields[5 * seq + 1:5 * seq + 5])


async def _together(coroutines) -> None:
    """Run ``coroutines`` concurrently.  The first one to raise cancels
    the others, and its error is raised once every one has ended."""
    tasks = [asyncio.ensure_future(each) for each in coroutines]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


class Session:
    """A running server, its store directory and the client's connections."""

    def __init__(self, directory: Path, window: int) -> None:
        self.thread = ServerThread(ServeConfig(
            width=WIDTH,
            window_size=window,
            chain=CHAIN,
            deadline_ms=None,
            workers=2,
            store_dir=directory,
            store_config=StoreConfig(),
        ))
        self.connections: list[Connection] = []

    async def start(self, warmups) -> None:
        server = self.thread.start()
        for _ in range(CONNECTIONS):
            self.connections.append(await Connection.open(server.port))

        async def warm(connection: Connection, steps) -> None:
            for step in steps:
                status, data = await connection.send(step.raw)
                if status != 200:
                    raise RuntimeError(f"warm-up ingest answered {status}: {data[:200]!r}")

        await _together(
            warm(connection, steps) for connection, steps in zip(self.connections, warmups)
        )

    async def stop(self) -> None:
        # the server first: it drains, then cancels its handlers while
        # they wait for the next request, which they treat as a clean end
        self.thread.stop()
        for connection in self.connections:
            await connection.close()
        self.connections.clear()


async def _drive(
    session: Session,
    scripts,
    *,
    seconds: float | None,
    count: int | None,
    fail_at: int | None,
) -> tuple[list[Received], float]:
    received = [Received() for _ in scripts]
    clock = time.perf_counter
    start = clock()
    deadline = float("inf") if seconds is None else start + seconds

    async def loop(connection: Connection, steps, log: Received) -> None:
        seq = 0
        while (count is None or seq < count) and clock() < deadline:
            if log is received[0] and seq == fail_at:
                raise InjectedFailure(f"injected failure before request {seq}")
            step = steps[seq % len(steps)]
            begin = clock()
            status, data = await connection.send(step.raw)
            latency = (clock() - begin) * 1e3
            answer = _encode(step.kind, json.loads(data)) if status == 200 else (0, 0, 0, 0)
            log.add(latency, status, answer)
            seq += 1

    await _together(
        loop(connection, steps, log)
        for connection, steps, log in zip(session.connections, scripts, received)
    )
    return received, clock() - start


async def _session_pass(
    inputs: Inputs, scale: Scale, directory: Path, run: Pass, *,
    seconds: float | None, count: int | None, fail_at: int | None,
    tracer: tracing.Tracer | None = None, recorder: Recorder | None = None,
) -> tuple[list[Received], float, dict]:
    """Set up ``setup_repeats`` (or, traced, one) sessions, drive the last one."""
    repeats = 1 if tracer is not None else scale.setup_repeats
    session = None
    try:
        for repeat in range(repeats):
            if session is not None:
                await session.stop()
                session = None
            store = directory / f"store-{repeat}"
            begin = time.perf_counter()
            session = Session(store, scale.window)
            await session.start(inputs.warmups)
            run.setup_s.append(time.perf_counter() - begin)
        state = {}
        if tracer is not None:
            tracer.phase = "timed"
            state["caches"] = _cache_totals(session, inputs)
            state["counters"] = tracing.counter_totals(recorder)
        received, elapsed = await _drive(
            session, inputs.scripts, seconds=seconds, count=count, fail_at=fail_at
        )
        if tracer is not None:
            caches = _cache_totals(session, inputs)
            state["caches"] = [after - before for after, before in zip(caches, state["caches"])]
            counters = tracing.counter_totals(recorder)
            state["counters"] = {
                name: counters[name] - state["counters"][name] for name in counters
            }
        run.peak_rss_mb = peak_rss_mb()
        return received, elapsed, state
    finally:
        if session is not None:
            await session.stop()


def _cache_totals(session: Session, inputs: Inputs) -> tuple[int, int]:
    hits = misses = 0
    for name in inputs.tenants:
        stats = session.thread.server.tenants.get(name).cache.stats()
        hits += stats["hits"]
        misses += stats["misses"]
    return hits, misses


def _requests(inputs: Inputs, received: list[Received]):
    """Every timed request as (connection, seq, step), each connection in
    send order."""
    for connection, log in enumerate(received):
        script = inputs.scripts[connection]
        for seq in range(len(log)):
            yield connection, seq, script[seq % len(script)]


def _verify(run: Pass, inputs: Inputs, scale: Scale, received: list[Received]) -> None:
    """Replay each tenant's requests serially through ``StreamingLog`` and
    ``SolverHarness``; the BruteForce optimum feeds visibility_ratio."""
    harness = SolverHarness(CHAIN, deadline_ms=None)
    brute = make_solver("BruteForce")
    logs = {}
    for tenant in inputs.tenants:
        logs[tenant] = StreamingLog(SCHEMA, window_size=scale.window, kernel="python")
        logs[tenant].extend(inputs.windows[tenant])
    quality = set()
    for connection, log in enumerate(received):
        script = inputs.scripts[connection]
        solves = [seq for seq in range(len(log)) if script[seq % len(script)].kind == "solve"]
        quality.update((connection, seq) for seq in solves[:scale.quality_solves])
    if len(quality) < len(received) * scale.quality_solves:
        run.problems.append("too few solves for visibility_ratio")
    answers: dict[tuple, tuple[int, ...]] = {}
    optimum: dict[tuple, int] = {}
    # a writer's requests all come from one connection and hot tenants
    # take no writes, so replaying connection by connection in send
    # order replays every tenant in its own order
    for connection, seq, step in _requests(inputs, received):
        status = received[connection].status(seq)
        answer = received[connection].answer(seq)
        run.attempted += 1
        run.answers[connection, seq] = (status, answer)
        if status != 200:
            run.problems.append(f"{step.kind} on {step.tenant} answered {status}")
            continue
        log = logs[step.tenant]
        if step.kind == "ingest":
            evicted = log.extend(step.payload)
            expected = (len(step.payload), len(evicted), log.epoch, len(log))
        else:
            new_tuple, budget = step.payload
            key = (step.tenant, log.epoch, new_tuple, budget)
            if key not in answers:
                outcome = harness.run(VisibilityProblem.from_stream(log, new_tuple, budget))
                answers[key] = _encode("solve", {
                    "status": outcome.status,
                    "keep_mask": outcome.solution.keep_mask,
                    "satisfied": outcome.solution.satisfied,
                    "epoch": log.epoch,
                })
            expected = answers[key]
            if (connection, seq) in quality:
                if key not in optimum:
                    problem = VisibilityProblem.from_stream(log, new_tuple, budget)
                    optimum[key] = brute.solve(problem).satisfied
                run.satisfied += expected[2]
                run.optimum += optimum[key]
        if answer == expected:
            run.verified += 1
        else:
            run.problems.append(f"{step.kind} on {step.tenant}: got {answer}, replay {expected}")


def _record(run: Pass, inputs: Inputs, received: list[Received], elapsed: float) -> None:
    for connection, seq, step in _requests(inputs, received):
        if received[connection].status(seq) == 200:
            latencies = run.read_ms if step.kind == "solve" else run.ingest_ms
            latencies.append(received[connection].latency_ms[seq])
    run.completed = len(run.read_ms) + len(run.ingest_ms)
    run.elapsed_s = elapsed


def measure(seed: int, seconds: float, scale: str = "full", fail_at: int | None = None) -> Pass:
    """The untraced pass: set-up medians, the timed phase, the checks."""
    config = SCALES[scale]
    run = Pass()
    inputs = generate(seed, config)
    with work_dir("serve_mixed") as directory:
        reset_peak_rss()
        received, elapsed, _ = asyncio.run(_session_pass(
            inputs, config, directory, run, seconds=seconds, count=None, fail_at=fail_at
        ))
    _record(run, inputs, received, elapsed)
    _verify(run, inputs, config, received)
    return run


def trace(seed: int, scale: str = "full", out: Path | None = None) -> Pass:
    """The traced pass: one set-up, then a fixed number of requests per
    connection."""
    config = SCALES[scale]
    run = Pass()
    inputs = generate(seed, config)
    tracer = tracing.Tracer()
    with work_dir("serve_mixed") as directory:
        tracing.install(tracer)
        try:
            with recording(Recorder(max_spans=256)) as recorder:
                received, elapsed, state = asyncio.run(_session_pass(
                    inputs, config, directory, run, seconds=None,
                    count=config.trace_requests, fail_at=None,
                    tracer=tracer, recorder=recorder,
                ))
        finally:
            tracer.uninstall()
    _record(run, inputs, received, elapsed)
    _verify(run, inputs, config, received)
    ops = run.completed
    requests = [each for each in tracer.requests if each[2] == "timed"]
    latency = sum(sum(log.latency_ms) for log in received) / sum(map(len, received))
    queue_wait = sum(each[3] for each in requests) * 1e3 / len(requests)
    handler = sum(each[4] for each in requests) * 1e3 / len(requests)
    lock_wait = sum(each[5] for each in requests) * 1e3 / len(requests)
    tenant_self = sum(each[6] for each in requests) * 1e3 / len(requests)
    hits, misses = state["caches"]
    counters = state["counters"]
    writes = [step for _, _, step in _requests(inputs, received) if step.kind == "ingest"]
    ingests = len(writes)
    queries = sum(len(step.payload) for step in writes)
    run.layers = tracing.span_metrics(tracer, ops)
    run.layers.update({
        "serve.front_ms": latency - queue_wait - handler,
        "serve.queue_wait_ms": queue_wait,
        "serve.lock_wait_ms": lock_wait,
        "serve.tenant.self_ms": tenant_self - lock_wait,
        "serve.shed": tracer.sheds / ops,
        "stream.cache.hit_ratio": hits / (hits + misses),
        "stream.log.compactions": counters["repro_stream_compactions_total"] / ops,
        "store.fsyncs_per_ingest": counters["repro_store_wal_fsyncs_total"] / ingests,
        "store.wal_bytes_per_query": counters["repro_store_wal_bytes_total"] / queries,
        "runtime.harness.fallbacks": counters["repro_harness_fallbacks_total"] / ops,
        "booldata.index.bitmap_ops": counters["repro_index_bitmap_ops_total"] / ops,
    })
    if out is not None:
        tracer.write(out)
    return run
