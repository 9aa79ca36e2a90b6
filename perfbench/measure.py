"""Measurement helpers shared by the workloads.

Percentiles, repeated set-up, the closed op loop, the resident-memory
high-water mark, scratch directories inside the checkout, and the
record one pass of a workload fills in.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro.booldata.io as booldata_io

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for generated inputs and durable stores; every run
#: removes what it created here before it exits
WORK_ROOT = ROOT / ".perfbench-work"
#: traced runs write their spans here
OUT_ROOT = ROOT / ".perfbench-out"


class InjectedFailure(RuntimeError):
    """Raised on purpose mid-run by the teardown test."""


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def beyond(samples: Sequence[float], fraction: float) -> int:
    """How many samples lie strictly above the nearest-rank percentile's rank."""
    return len(samples) - max(1, math.ceil(fraction * len(samples)))


def spread_sizes(low: int, high: int, count: int) -> list[int]:
    """``count`` sizes spaced evenly from ``low`` to ``high``.

    Workloads draw their op sizes from this fixed spread instead of at
    random, so every seed gets the same mix of costs and only the
    contents differ between seeds.
    """
    if count == 1:
        return [low]
    return [low + (high - low) * k // (count - 1) for k in range(count)]


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark (``VmHWM``)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # without procfs the mark covers input generation too


def peak_rss_mb() -> float:
    """``VmHWM`` of this process in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


@contextmanager
def work_dir(prefix: str) -> Iterator[Path]:
    """A fresh directory under :data:`WORK_ROOT`, removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix + "-", dir=WORK_ROOT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


@dataclass
class Pass:
    """What one pass of a workload measured and verified."""

    setup_s: list[float] = field(default_factory=list)
    #: latencies of the read op (a solve, a listing, a /solve request)
    read_ms: list[float] = field(default_factory=list)
    #: latencies of the write op (loading a log batch, an /ingest request)
    ingest_ms: list[float] = field(default_factory=list)
    #: read and write ops answered in the timed phase, the goodput numerator
    completed: int = 0
    elapsed_s: float = 0.0
    #: ops attempted and ops whose answer passed its check
    attempted: int = 0
    verified: int = 0
    peak_rss_mb: float = 0.0
    #: visibility_ratio = satisfied / optimum
    satisfied: int = 0
    optimum: int = 0
    #: failed checks, one line each
    problems: list[str] = field(default_factory=list)
    #: answers by op position (per connection for the server), for the
    #: determinism test
    answers: dict = field(default_factory=dict)
    #: per-layer metrics of a traced pass
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return (
            not self.problems
            and self.attempted > 0
            and self.verified == self.attempted
        )

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Every end-to-end metric as ``name -> (value, unit)``."""
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (self.completed / self.elapsed_s, "1/s"),
            "p50_ms": (statistics.median(self.read_ms), "ms"),
            "p95_ms": (percentile(self.read_ms, 0.95), "ms"),
            "ingest_p50_ms": (statistics.median(self.ingest_ms), "ms"),
            "ingest_p95_ms": (percentile(self.ingest_ms, 0.95), "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "ok_ratio": (self.verified / self.attempted, "ratio"),
            "visibility_ratio": (self.satisfied / self.optimum, "ratio"),
        }


def timed_setups(setup: Callable[[], object], repeats: int) -> tuple[list[float], object]:
    """Run ``setup`` ``repeats`` times; return the durations and the state
    the last repetition built.  Each earlier state is dropped before the
    next build starts, so at most one is alive."""
    durations: list[float] = []
    state = None
    for _ in range(repeats):
        state = None
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return durations, state


def closed_loop(
    script: Sequence[tuple[str, object]],
    ops: dict[str, Callable[[object], object]],
    *,
    seconds: float | None = None,
    count: int | None = None,
    fail_at: int | None = None,
) -> tuple[list[tuple[str, float | None, object]], float]:
    """Run the ``(kind, item)`` steps of ``script`` cyclically, one at a time.

    ``ops[kind](item)`` performs a step.  Stops once ``seconds`` have
    elapsed or ``count`` steps ran.  Returns ``(kind, latency_ms,
    result)`` per step, with latency ``None`` and the exception as the
    result for a step that raised, and the loop's wall time.
    ``fail_at`` raises :class:`InjectedFailure` before that step.
    """
    records: list[tuple[str, float | None, object]] = []
    clock = time.perf_counter
    start = clock()
    deadline = math.inf if seconds is None else start + seconds
    index = 0
    while (count is None or index < count) and clock() < deadline:
        if index == fail_at:
            raise InjectedFailure(f"injected failure before op {index}")
        kind, item = script[index % len(script)]
        begin = clock()
        try:
            result = ops[kind](item)
        except Exception as error:  # a failed op: counted, never timed
            records.append((kind, None, error))
        else:
            records.append((kind, (clock() - begin) * 1e3, result))
        index += 1
    return records, clock() - start


def record(run: Pass, records: list[tuple[str, float | None, object]], elapsed: float) -> None:
    """Fill ``run``'s latencies and goodput from a :func:`closed_loop`."""
    for kind, latency, _ in records:
        if latency is not None:
            (run.ingest_ms if kind == "ingest" else run.read_ms).append(latency)
    run.completed = len(run.read_ms) + len(run.ingest_ms)
    run.elapsed_s = elapsed


def load_batch(batch: tuple[Path, tuple[int, ...]]) -> tuple:
    """The write op of the file-backed workloads: read one CSV log batch
    through ``repro.booldata.io``, as the CLI reads a log, and index it.

    Returns the batch and a hash of the rows read, so that a run keeps
    no loaded table alive and its memory does not grow with its length.
    """
    path, _ = batch
    table = booldata_io.load_table_csv(path)
    table.vertical_index()
    return batch, hash(tuple(table))


def verify(
    run: Pass,
    records: list[tuple[str, float | None, object]],
    check_read: Callable[[object], str | None],
) -> None:
    """Check every op of a :func:`closed_loop`.

    A loaded batch must read back the rows written; a read op's result
    goes to ``check_read``, which returns what is wrong with it or
    ``None``.
    """
    for position, (kind, _, result) in enumerate(records):
        run.attempted += 1
        if isinstance(result, Exception):
            problem = f"{kind} raised {result!r}"
        elif kind == "ingest":
            (path, rows), read = result
            problem = None if read == hash(rows) else f"{path.name} read back other rows"
        else:
            run.answers[position] = result
            problem = check_read(result)
        if problem is None:
            run.verified += 1
        else:
            run.problems.append(problem)
