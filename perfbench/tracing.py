"""Outside-in tracing for the traced pass of a workload.

:func:`install` wraps public functions of every layer of ``repro`` with
span recorders defined here, so the program itself is unchanged.  A
span has a name, a layer, start and end times, a parent (the span open
on the same thread when it started) and a request id shared by every
span of one op, across the event-loop and worker threads of the
server.  A span's self time is its duration minus the durations of its
children.  Spans stay in memory until :meth:`Tracer.write` dumps them
at the end of the run.

Work counts are not measured here: they come from counters the program
already keeps (``repro.recording()``, ``SolveCache.stats()`` and
``VerticalIndex.ops_snapshot()``), read by the workloads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

#: per-layer metrics a traced pass prints, as ``(name, unit, better)``;
#: a layer that a workload bypasses reads 0
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("serve.front_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.lock_wait_ms", "ms", "lower"),
    ("serve.tenant.self_ms", "ms", "lower"),
    ("serve.shed", "count", "lower"),
    ("stream.cache.hit_ratio", "ratio", "higher"),
    ("stream.cache.self_ms", "ms", "lower"),
    ("stream.snapshot.self_ms", "ms", "lower"),
    ("stream.log.self_ms", "ms", "lower"),
    ("stream.log.compactions", "count", "lower"),
    ("store.wal.self_ms", "ms", "lower"),
    ("store.fsyncs_per_ingest", "count", "lower"),
    ("store.wal_bytes_per_query", "B", "lower"),
    ("runtime.harness.self_ms", "ms", "lower"),
    ("runtime.harness.fallbacks", "count", "lower"),
    ("core.ILP.self_ms", "ms", "lower"),
    ("core.MaxFreqItemSets.self_ms", "ms", "lower"),
    ("core.ConsumeAttr.self_ms", "ms", "lower"),
    ("core.ConsumeAttrCumul.self_ms", "ms", "lower"),
    ("mining.self_ms", "ms", "lower"),
    ("mining.dfs_expansions", "count", "lower"),
    ("mining.level_candidates", "count", "lower"),
    ("lp.self_ms", "ms", "lower"),
    ("lp.simplex_pivots", "count", "lower"),
    ("lp.bnb_nodes", "count", "lower"),
    ("booldata.index.build_ms", "ms", "lower"),
    ("booldata.index.self_ms", "ms", "lower"),
    ("booldata.kernels.self_ms", "ms", "lower"),
    ("booldata.index.bitmap_ops", "count", "lower"),
    ("booldata.io.self_ms", "ms", "lower"),
    ("booldata.io.setup_ms", "ms", "lower"),
    ("variants.batch.self_ms", "ms", "lower"),
    ("bench.loop.self_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: ``repro.recording()`` counters the traced passes read
COUNTERS = (
    "repro_itemset_dfs_expansions_total",
    "repro_itemset_level_candidates_total",
    "repro_simplex_pivots_total",
    "repro_bnb_nodes_total",
    "repro_harness_fallbacks_total",
    "repro_stream_compactions_total",
    "repro_store_wal_fsyncs_total",
    "repro_store_wal_bytes_total",
    "repro_index_bitmap_ops_total",
)


class _Frame:
    __slots__ = (
        "span_id", "parent", "rid", "name", "layer", "phase",
        "start", "end", "child_s", "first_child",
    )

    def __init__(self, span_id, parent, rid, name, layer, phase) -> None:
        self.span_id = span_id
        self.parent = parent
        self.rid = rid
        self.name = name
        self.layer = layer
        self.phase = phase
        self.child_s = 0.0
        self.first_child = None
        self.start = time.perf_counter()
        self.end = 0.0


class Tracer:
    """Collects spans from every thread; phase ``setup`` or ``timed``."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: finished spans: (id, parent id, rid, name, layer, phase,
        #: start, end, self seconds, thread id)
        self.spans: list[tuple] = []
        #: one entry per served request: (rid, kind, phase, queue wait,
        #: handler duration, lock wait, handler self time) in seconds
        self.requests: list[tuple] = []
        self.sheds = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pending: dict[int, tuple] = {}
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1].layer if stack else None

    def open(self, name: str, layer: str, rid: int | None = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent.rid
        frame = _Frame(next(self._ids), parent, rid, name, layer, self.phase)
        stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> None:
        frame.end = end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child_s += duration
            if parent.first_child is None:
                parent.first_child = frame.start
        self.spans.append((
            frame.span_id, parent.span_id if parent is not None else None,
            frame.rid, frame.name, frame.layer, frame.phase,
            frame.start, end, duration - frame.child_s, threading.get_ident(),
        ))

    def rooted(self, ops: dict) -> dict:
        """``ops`` with every call inside a ``bench.op`` span that starts
        a new request id."""

        def wrap(op):
            def traced(item):
                frame = self.open("bench.op", "bench", rid=next(self._ids))
                try:
                    return op(item)
                finally:
                    self.close(frame)

            return traced

        return {kind: wrap(op) for kind, op in ops.items()}

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr: str, layer: str, name: str | None = None) -> None:
        """Record a span around ``owner.attr`` (function, method or classmethod)."""
        span_name = name or f"{layer}.{attr}"

        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                frame = self.open(span_name, layer)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.close(frame)

            return traced

        self._patch(owner, attr, make)

    def wrap_methods(self, cls, names, layer: str) -> None:
        for attr in names:
            raw = cls.__dict__.get(attr)
            if raw is not None and not isinstance(raw, property):
                self.wrap(cls, attr, layer, f"{layer}.{cls.__name__}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_seconds(self, phase: str = "timed") -> tuple[dict, dict]:
        """Total self time per layer and per span name in ``phase``."""
        by_layer: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span[5] == phase:
                by_layer[span[4]] += span[8]
                by_name[span[3]] += span[8]
        return by_layer, by_name

    def inclusive_seconds(self, name: str, phase: str) -> tuple[float, int]:
        """Total duration and count of the spans called ``name`` in ``phase``."""
        total, count = 0.0, 0
        for span in self.spans:
            if span[3] == name and span[5] == phase:
                total += span[7] - span[6]
                count += 1
        return total, count

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "rid", "name", "layer", "phase",
                "start", "end", "self_s", "thread")
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.booldata import index as index_module
    from repro.booldata import io as io_module
    from repro.booldata.kernels.base import ColumnStore
    from repro.booldata.kernels.packed import PackedNumpyStore
    from repro.booldata.kernels.pyint import PythonIntStore
    from repro.core import itemsets
    from repro.core.base import Solver
    from repro.lp.branch_and_bound import BranchAndBoundSolver
    from repro.lp.simplex import SimplexSolver
    from repro.mining.transactions import ComplementedTransactions, TransactionDatabase
    from repro.runtime.harness import SolverHarness
    from repro.serve import app
    from repro.serve.admission import AdmissionController
    from repro.serve.tenants import Tenant
    from repro.store.wal import WriteAheadLog
    from repro.stream.cache import SolveCache
    from repro.stream.log import StreamingLog
    from repro.variants import batch

    kernel_methods = (
        "build", "from_int_columns", "merge_rows", "drop_prefix", "union_rows",
        "subset_rows", "subset_count", "subset_counts", "intersect_rows",
        "counts", "int_column", "int_columns", "clone",
    )
    for store in (ColumnStore, PythonIntStore, PackedNumpyStore):
        tracer.wrap_methods(store, kernel_methods, "booldata.kernels")
    index_cls = index_module.VerticalIndex
    tracer.wrap(index_cls, "__init__", "booldata.index", "booldata.index.build")
    tracer.wrap(index_cls, "from_columns", "booldata.index", "booldata.index.build")
    tracer.wrap_methods(index_cls, (
        "column", "violators", "satisfied_rows", "satisfied_count",
        "satisfied_counts", "cooccurring_rows", "cooccurrence_count",
        "disjoint_rows", "disjoint_count", "attribute_frequencies", "best_subset",
    ), "booldata.index")
    tracer.wrap(io_module, "load_table_csv", "booldata.io")

    def make_solve(func):
        @functools.wraps(func)
        def traced(solver, problem):
            frame = tracer.open(f"core.{solver.name}", "core")
            try:
                return func(solver, problem)
            finally:
                tracer.close(frame)

        return traced

    tracer._patch(Solver, "solve", make_solve)

    tracer.wrap(itemsets, "mine_maximal_dfs", "mining")
    tracer.wrap(TransactionDatabase, "__init__", "mining", "mining.TransactionDatabase")

    def make_support(func):
        # support() runs once per candidate; inside the miner it is
        # already covered by the miner's own span
        @functools.wraps(func)
        def traced(database, itemset):
            if tracer.current_layer() == "mining":
                return func(database, itemset)
            frame = tracer.open("mining.support", "mining")
            try:
                return func(database, itemset)
            finally:
                tracer.close(frame)

        return traced

    tracer._patch(ComplementedTransactions, "support", make_support)
    tracer.wrap(SimplexSolver, "solve", "lp", "lp.simplex")
    tracer.wrap(BranchAndBoundSolver, "solve", "lp", "lp.branch_and_bound")
    tracer.wrap(SolverHarness, "run", "runtime.harness")
    tracer.wrap(SolveCache, "run", "stream.cache")
    tracer.wrap(StreamingLog, "extend", "stream.log")
    tracer.wrap(StreamingLog, "snapshot", "stream.snapshot")
    tracer.wrap(WriteAheadLog, "append", "store.wal")
    tracer.wrap(WriteAheadLog, "sync", "store.wal")
    tracer.wrap(batch, "optimize_inventory", "variants.batch")

    # -- serve: request ids from parse to the worker thread --------------------

    def make_parse(func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            request = func(*args, **kwargs)
            # keyed by the request object, which travels to the worker
            tracer._pending[id(request)] = (next(tracer._ids), time.perf_counter(), request)
            return request

        return traced

    tracer._patch(app, "parse_solve", make_parse)
    tracer._patch(app, "parse_ingest", make_parse)

    def make_handler(kind):
        def make(func):
            @functools.wraps(func)
            def traced(tenant, request):
                rid, parsed, _ = tracer._pending.pop(id(request), (None, None, None))
                frame = tracer.open(f"serve.tenant.{kind}", "serve", rid=rid)
                try:
                    return func(tenant, request)
                finally:
                    tracer.close(frame)
                    if parsed is not None:
                        duration = frame.end - frame.start
                        lock_wait = (
                            frame.first_child - frame.start
                            if frame.first_child is not None else 0.0
                        )
                        tracer.requests.append((
                            rid, kind, frame.phase, frame.start - parsed,
                            duration, lock_wait, duration - frame.child_s,
                        ))

            return traced

        return make

    tracer._patch(Tenant, "solve", make_handler("solve"))
    tracer._patch(Tenant, "ingest", make_handler("ingest"))

    def make_acquire(func):
        @functools.wraps(func)
        def traced(controller, tenant):
            reason = func(controller, tenant)
            if reason is not None and tracer.phase == "timed":
                tracer.sheds += 1
            return reason

        return traced

    tracer._patch(AdmissionController, "try_acquire", make_acquire)


def span_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op self times of the timed phase, plus the set-up's mean index
    build and its CSV loading time, under the :data:`PER_LAYER` names."""
    by_layer, by_name = tracer.self_seconds("timed")
    per_op = 1e3 / ops
    metrics = {
        "stream.cache.self_ms": by_layer["stream.cache"] * per_op,
        "stream.snapshot.self_ms": by_layer["stream.snapshot"] * per_op,
        "stream.log.self_ms": by_layer["stream.log"] * per_op,
        "store.wal.self_ms": by_layer["store.wal"] * per_op,
        "runtime.harness.self_ms": by_layer["runtime.harness"] * per_op,
        "mining.self_ms": by_layer["mining"] * per_op,
        "lp.self_ms": by_layer["lp"] * per_op,
        "booldata.index.self_ms": by_layer["booldata.index"] * per_op,
        "booldata.kernels.self_ms": by_layer["booldata.kernels"] * per_op,
        "booldata.io.self_ms": by_layer["booldata.io"] * per_op,
        "variants.batch.self_ms": by_layer["variants.batch"] * per_op,
        "bench.loop.self_ms": by_layer["bench"] * per_op,
    }
    for algorithm in ("ILP", "MaxFreqItemSets", "ConsumeAttr", "ConsumeAttrCumul"):
        metrics[f"core.{algorithm}.self_ms"] = by_name[f"core.{algorithm}"] * per_op
    build_s, builds = tracer.inclusive_seconds("booldata.index.build", "setup")
    metrics["booldata.index.build_ms"] = build_s * 1e3 / builds if builds else 0.0
    setup_layers, _ = tracer.self_seconds("setup")
    metrics["booldata.io.setup_ms"] = setup_layers["booldata.io"] * 1e3
    return metrics


def counter_totals(recorder) -> dict[str, float]:
    """Current totals of the :data:`COUNTERS` in a live recorder."""
    return {name: recorder.metrics.counter_total(name) for name in COUNTERS}
