"""inventory_1m: listings optimised one at a time against a million-row log.

Why: ``repro.booldata`` (the numpy index build and its subset counts)
does most of the work, and set-up is a real million-row index build, so
work moved between build and query shows in ``setup_s`` against
``ops_per_s``.  Mining, LP and serve are bypassed.

* Log: 1,000,000 sparse queries over 64 attributes; each ORs one to
  seven uniform attribute draws (about four attributes).  ``auto``
  picks the numpy kernel at this size.
* The read op is one listing of 24 to 56 attributes (40 on average)
  through ``optimize_inventory(log, [listing], 10,
  solver=make_solver("ConsumeAttrCumul"))``, serially.  Listing sizes
  are spaced evenly over that range, in an order drawn from the seed.
* The write op reads one log batch of 100 to 300 queries (sizes spaced
  evenly) over the same schema through ``repro.booldata.io`` and
  indexes it; one follows every third listing.

Listing and batch sizes spread on purpose.  On the 2-vCPU VM the
baseline was recorded on, CPU speed alternates every few seconds
between a fast state and one about 1.45x slower.  With equal-cost ops
the latencies then split into two modes, and the median jumps between
them from run to run; ops whose costs spread about 2x blur the two
modes into one.
* Set-up builds the table and its index from the generated rows and
  solves one warm-up listing, so the kernel's lazily built views exist
  before timing starts.
* ``visibility_ratio`` cannot use the BruteForce optimum here (C(40, 10)
  candidates per listing), so it divides the served answers by the
  python reference kernel's answers on a fixed sample of listings.

Not measured here: the shard-parallel path (``optimize_inventory_parallel``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import repro.booldata.io as booldata_io
import repro.variants.batch as batch
from repro import Recorder, VisibilityProblem, make_solver, recording
from repro.booldata import BooleanTable, Schema

from perfbench import tracing
from perfbench.measure import (
    Pass,
    closed_loop,
    load_batch,
    peak_rss_mb,
    record,
    reset_peak_rss,
    spread_sizes,
    timed_setups,
    verify,
    work_dir,
)

WIDTH = 64
SCHEMA = Schema.anonymous(WIDTH)
#: a query ORs 1..MAX_DRAWS uniform attribute draws
MAX_DRAWS = 7
LISTING_SIZES = (24, 56)
BUDGET = 10
LISTINGS = 512
INGEST_BATCHES = (100, 300)
INGEST_FILES = 16
#: one write op after this many listings
INGEST_EVERY = 3
#: listings re-solved on the python reference kernel
REFERENCE_SAMPLE = 8


@dataclass(frozen=True)
class Scale:
    log_rows: int
    setup_repeats: int
    trace_steps: int


SCALES = {
    "full": Scale(log_rows=1_000_000, setup_repeats=5, trace_steps=250),
    "toy": Scale(log_rows=20_000, setup_repeats=2, trace_steps=25),
}


@dataclass(frozen=True)
class Inputs:
    rows: list[int]
    warmup: int
    listings: tuple[int, ...]
    batches: tuple[tuple[Path, tuple[int, ...]], ...]


def _queries(rng: np.random.Generator, count: int) -> list[int]:
    """``count`` sparse query masks, generated in chunks to bound memory."""
    masks: list[int] = []
    for start in range(0, count, 100_000):
        size = min(100_000, count - start)
        draws = rng.integers(1, MAX_DRAWS + 1, size=size)
        bits = np.left_shift(
            np.uint64(1), rng.integers(0, WIDTH, size=(size, MAX_DRAWS), dtype=np.uint64)
        )
        bits[np.arange(MAX_DRAWS) >= draws[:, None]] = 0
        masks.extend(np.bitwise_or.reduce(bits, axis=1).tolist())
    return masks


def generate(seed: int, scale: Scale, directory: Path) -> Inputs:
    """The log rows, the listings and the write-op batches (as CSV)."""
    rng = np.random.default_rng(seed)
    rows = _queries(rng, scale.log_rows)
    pick = random.Random(seed)
    sizes = spread_sizes(*LISTING_SIZES, LISTINGS + 1)
    pick.shuffle(sizes)
    listings = [
        sum(1 << attribute for attribute in pick.sample(range(WIDTH), size))
        for size in sizes
    ]
    batches = []
    for number, queries in enumerate(spread_sizes(*INGEST_BATCHES, INGEST_FILES)):
        table = BooleanTable(SCHEMA, _queries(rng, queries))
        path = directory / f"batch-{number}.csv"
        booldata_io.save_table_csv(table, path)
        batches.append((path, tuple(table)))
    return Inputs(rows, listings[0], tuple(listings[1:]), tuple(batches))


def build(inputs: Inputs) -> BooleanTable:
    """The set-up: the table, its index, and one warm-up listing."""
    table = BooleanTable(SCHEMA, inputs.rows)
    table.vertical_index()
    batch.optimize_inventory(
        table, [inputs.warmup], BUDGET, solver=make_solver("ConsumeAttrCumul")
    )
    return table


def script(inputs: Inputs, table: BooleanTable) -> list[tuple[str, object]]:
    steps: list[tuple[str, object]] = []
    for index, listing in enumerate(inputs.listings):
        steps.append(("listing", (table, listing)))
        if index % INGEST_EVERY == INGEST_EVERY - 1:
            steps.append(("ingest", inputs.batches[index // INGEST_EVERY % INGEST_FILES]))
    return steps


def _listing(item) -> tuple[int, int, int]:
    table, listing = item
    report = batch.optimize_inventory(
        table, [listing], BUDGET, solver=make_solver("ConsumeAttrCumul")
    )
    solution = report.solutions[0]
    return listing, solution.keep_mask, solution.satisfied


OPS = {"listing": _listing, "ingest": load_batch}


def _verify(run: Pass, inputs: Inputs, table: BooleanTable, records: list) -> None:
    """Re-derive every reported ``satisfied``; repeats must agree; the
    sample must match the python reference kernel."""
    first: dict[int, tuple[int, int]] = {}

    def check(result) -> str | None:
        listing, keep_mask, satisfied = result
        if listing not in first:
            first[listing] = (keep_mask, satisfied)
            derived = VisibilityProblem(table, listing, BUDGET).evaluate(keep_mask)
            if derived != satisfied:
                return f"listing reported {satisfied}, re-derives {derived}"
        if first[listing] != (keep_mask, satisfied):
            return "a listing's answer changed between repeats"
        return None

    verify(run, records, check)
    reference = BooleanTable.adopting(SCHEMA, list(table))
    solver = make_solver("ConsumeAttrCumul")
    for listing in inputs.listings[:REFERENCE_SAMPLE]:
        expected = solver.solve(VisibilityProblem(reference, listing, BUDGET, kernel="python"))
        served = first.get(listing)
        if served is None:
            run.problems.append("a reference listing was never served")
            continue
        run.satisfied += served[1]
        run.optimum += expected.satisfied
        if served != (expected.keep_mask, expected.satisfied):
            run.problems.append(
                f"listing answer {served} differs from the python kernel's "
                f"{(expected.keep_mask, expected.satisfied)}"
            )


def measure(seed: int, seconds: float, scale: str = "full", fail_at: int | None = None) -> Pass:
    """The untraced pass: set-up medians, the timed phase, the checks."""
    config = SCALES[scale]
    run = Pass()
    with work_dir("inventory_1m") as directory:
        inputs = generate(seed, config, directory)
        reset_peak_rss()
        run.setup_s, table = timed_setups(lambda: build(inputs), config.setup_repeats)
        records, elapsed = closed_loop(
            script(inputs, table), OPS, seconds=seconds, fail_at=fail_at
        )
        run.peak_rss_mb = peak_rss_mb()
        record(run, records, elapsed)
        _verify(run, inputs, table, records)
    return run


def trace(seed: int, scale: str = "full", out: Path | None = None) -> Pass:
    """The traced pass: one set-up, then a fixed prefix of the script."""
    config = SCALES[scale]
    run = Pass()
    tracer = tracing.Tracer()
    with work_dir("inventory_1m") as directory:
        inputs = generate(seed, config, directory)
        tracing.install(tracer)
        try:
            with recording(Recorder(max_spans=256)):
                table = build(inputs)
                tracer.phase = "timed"
                bitmap = sum(table.vertical_index().ops_snapshot())
                records, elapsed = closed_loop(
                    script(inputs, table), tracer.rooted(OPS), count=config.trace_steps
                )
                bitmap = sum(table.vertical_index().ops_snapshot()) - bitmap
        finally:
            tracer.uninstall()
        record(run, records, elapsed)
        _verify(run, inputs, table, records)
    run.layers = tracing.span_metrics(tracer, run.completed)
    run.layers["booldata.index.bitmap_ops"] = bitmap / run.completed
    if out is not None:
        tracer.write(out)
    return run
