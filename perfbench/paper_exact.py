"""paper_exact: the paper's exact solvers on the paper's data shapes.

Why: ``repro.mining`` and ``repro.lp`` do nearly all the work here,
while serve, stream, store and the numpy kernel do none, so a change to
the miners or the simplex shows on this workload and nowhere else.

* Schema: the 32 car attributes.  Logs: the 185-query real-workload
  surrogate and 200- and 2,000-query synthetic logs (the paper's query
  size mix).  New tuples: cars drawn from the generated inventory.
  Budgets: m = 3..7.
* The read op is one ``make_solver(name).solve(problem)``:
  MaxFreqItemSets (default DFS miner) on every log, ILP (native
  backend) on the logs of at most 500 queries.  Single-threaded, no
  deadline.
* The write op reads one log batch of 100 to 300 queries (sizes spaced
  evenly) through ``repro.booldata.io`` and indexes it; one follows
  every tenth solve.
  Batch sizes spread so that the write latencies stay one mode when
  the machine's speed shifts (see ``inventory.py``).
* Set-up reads the logs and the inventory through the same loader (as
  the CLI does) and builds the logs' indexes.

Solves cycle round-robin over the (solver, log, m) cells, each cell
holding many tuples, so any prefix of a run has the same mix.  Every
tuple is a car of 11 attributes, so each seed gets the same cost mix:
a solve's cost roughly doubles with each attribute of the car, so with
cars of mixed sizes the median solve would sit where cheap and dear
solves meet and move with the share of each.  With larger cars
single ILP and MaxFreqItemSets solves take seconds, and one such solve
would decide a run's throughput and percentiles.  A cell holds enough
tuples that a run at full speed does not reach the end of the script,
so no run counts some instances twice and others once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import repro.booldata.io as booldata_io
from repro import Recorder, VisibilityProblem, make_solver, recording
from repro.booldata import Schema
from repro.data import generate_cars, real_workload_surrogate, synthetic_workload
from repro.data.cars import CAR_ATTRIBUTES

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

SCHEMA = Schema(CAR_ATTRIBUTES)
BUDGETS = (3, 4, 5, 6, 7)
#: ILP runs only on logs up to this many queries, as in the paper
ILP_MAX_LOG = 500
#: attributes of every car drawn as a new tuple
TUPLE_SIZE = 11
INGEST_BATCHES = (100, 300)
INGEST_FILES = 16
#: one write op after this many solves
INGEST_EVERY = 10


@dataclass(frozen=True)
class Scale:
    inventory: int
    #: (name, queries, draws); names starting with "real" use the
    #: surrogate.  Each shape is drawn ``draws`` times and a cell's
    #: tuples take turns over the draws, so no single draw decides a
    #: seed's cost.
    logs: tuple[tuple[str, int, int], ...]
    tuples_per_cell: int
    setup_repeats: int
    #: steps of the traced pass: a prefix of the script
    trace_steps: int


SCALES = {
    "full": Scale(
        inventory=15_211,
        logs=(("real185", 185, 48), ("synthetic200", 200, 48), ("synthetic2000", 2000, 12)),
        tuples_per_cell=384, setup_repeats=5, trace_steps=2640,
    ),
    "toy": Scale(
        inventory=1_500,
        logs=(("real185", 185, 2), ("synthetic200", 200, 2), ("synthetic600", 600, 2)),
        tuples_per_cell=2, setup_repeats=2, trace_steps=55,
    ),
}


@dataclass(frozen=True)
class Inputs:
    directory: Path
    log_names: tuple[str, ...]
    #: (solver, log name, budget, inventory row) in round-robin order
    solves: tuple[tuple[str, str, int, int], ...]
    #: (CSV path, rows) of each write-op batch
    batches: tuple[tuple[Path, tuple[int, ...]], ...]


def generate(seed: int, scale: Scale, directory: Path) -> Inputs:
    """Write the logs, the inventory and the write-op batches as CSV."""
    rng = random.Random(seed)
    cars = generate_cars(scale.inventory, seed=rng.getrandbits(32))
    booldata_io.save_table_csv(cars.table, directory / "inventory.csv")
    log_names = []
    for name, size, draws in scale.logs:
        make = real_workload_surrogate if name.startswith("real") else synthetic_workload
        for variant in range(draws):
            log = make(SCHEMA, size, seed=rng.getrandbits(32))
            log_names.append(f"{name}-{variant}")
            booldata_io.save_table_csv(log, directory / f"{log_names[-1]}.csv")
    band = [i for i, row in enumerate(cars.table) if row.bit_count() == TUPLE_SIZE]
    cells = []
    for name, size, draws in scale.logs:
        for budget in BUDGETS:
            rows = rng.sample(band, scale.tuples_per_cell)
            solvers = ("MaxFreqItemSets", "ILP") if size <= ILP_MAX_LOG else ("MaxFreqItemSets",)
            cells.extend((solver, name, draws, budget, rows) for solver in solvers)
    solves = tuple(
        (solver, f"{name}-{k % draws}", budget, rows[k])
        for k in range(scale.tuples_per_cell)
        for solver, name, draws, budget, rows in cells
    )
    batches = []
    for number, queries in enumerate(spread_sizes(*INGEST_BATCHES, INGEST_FILES)):
        batch = synthetic_workload(SCHEMA, queries, seed=rng.getrandbits(32))
        path = directory / f"batch-{number}.csv"
        booldata_io.save_table_csv(batch, path)
        batches.append((path, tuple(batch)))
    return Inputs(directory, tuple(log_names), solves, tuple(batches))


def load(inputs: Inputs) -> tuple[list[int], dict]:
    """The set-up: read every table and index the logs."""
    inventory = booldata_io.load_table_csv(inputs.directory / "inventory.csv")
    logs = {}
    for name in inputs.log_names:
        log = booldata_io.load_table_csv(inputs.directory / f"{name}.csv")
        log.vertical_index()
        logs[name] = log
    return inventory.rows, logs


def script(inputs: Inputs, inventory: list[int], logs: dict) -> list[tuple[str, object]]:
    """One cycle of the closed loop: every solve once, a write op every
    :data:`INGEST_EVERY` solves."""
    steps: list[tuple[str, object]] = []
    for index, (solver, name, budget, row) in enumerate(inputs.solves):
        steps.append(("solve", (solver, logs[name], budget, inventory[row], index)))
        if index % INGEST_EVERY == INGEST_EVERY - 1:
            batch = inputs.batches[index // INGEST_EVERY % len(inputs.batches)]
            steps.append(("ingest", batch))
    return steps


def _solve(instance) -> tuple[int, int, int]:
    solver, log, budget, new_tuple, index = instance
    solution = make_solver(solver).solve(VisibilityProblem(log, new_tuple, budget))
    return index, solution.keep_mask, solution.satisfied


OPS = {"solve": _solve, "ingest": load_batch}


def _verify(run: Pass, steps: list[tuple[str, object]], records: list) -> None:
    """Every solve must equal the BruteForce optimum of its instance and
    re-derive; a repeated instance must get the same answer."""
    instances = {item[4]: item for kind, item in steps if kind == "solve"}
    optimum: dict[tuple, int] = {}
    first: dict[int, int] = {}

    def check(result) -> str | None:
        index, keep_mask, satisfied = result
        solver, log, budget, new_tuple, _ = instances[index]
        key = (id(log), budget, new_tuple)
        problem = VisibilityProblem(log, new_tuple, budget)
        if key not in optimum:
            optimum[key] = make_solver("BruteForce").solve(problem).satisfied
        run.satisfied += satisfied
        run.optimum += optimum[key]
        if index not in first:
            first[index] = keep_mask
            if problem.evaluate(keep_mask) != satisfied:
                return f"solve {index}: reported {satisfied} does not re-derive"
        if satisfied != optimum[key]:
            return f"{solver} m={budget}: {satisfied} satisfied, optimum {optimum[key]}"
        if keep_mask != first[index]:
            return f"solve {index}: answer changed between repeats"
        return None

    verify(run, records, check)


def measure(seed: int, seconds: float, scale: str = "full", fail_at: int | None = None) -> Pass:
    """The untraced pass: set-up medians, the timed phase, the checks."""
    config = SCALES[scale]
    run = Pass()
    with work_dir("paper_exact") as directory:
        inputs = generate(seed, config, directory)
        reset_peak_rss()
        run.setup_s, (inventory, logs) = timed_setups(
            lambda: load(inputs), config.setup_repeats
        )
        steps = script(inputs, inventory, logs)
        records, elapsed = closed_loop(steps, OPS, seconds=seconds, fail_at=fail_at)
        run.peak_rss_mb = peak_rss_mb()
        record(run, records, elapsed)
        _verify(run, steps, records)
    return run


def trace(seed: int, scale: str = "full", out: Path | None = None) -> Pass:
    """The traced pass: one set-up, then a fixed prefix of the script."""
    config = SCALES[scale]
    run = Pass()
    tracer = tracing.Tracer()
    with work_dir("paper_exact") as directory:
        inputs = generate(seed, config, directory)
        tracing.install(tracer)
        try:
            with recording(Recorder(max_spans=256)) as recorder:
                inventory, logs = load(inputs)
                steps = script(inputs, inventory, logs)
                tracer.phase = "timed"
                before = tracing.counter_totals(recorder)
                bitmap = sum(sum(log.vertical_index().ops_snapshot()) for log in logs.values())
                records, elapsed = closed_loop(
                    steps, tracer.rooted(OPS), count=config.trace_steps
                )
                after = tracing.counter_totals(recorder)
                bitmap = sum(
                    sum(log.vertical_index().ops_snapshot()) for log in logs.values()
                ) - bitmap
        finally:
            tracer.uninstall()
        record(run, records, elapsed)
        _verify(run, steps, records)
    ops = run.completed
    run.layers = tracing.span_metrics(tracer, ops)
    delta = {name: after[name] - before[name] for name in after}
    run.layers.update({
        "mining.dfs_expansions": delta["repro_itemset_dfs_expansions_total"] / ops,
        "mining.level_candidates": delta["repro_itemset_level_candidates_total"] / ops,
        "lp.simplex_pivots": delta["repro_simplex_pivots_total"] / ops,
        "lp.bnb_nodes": delta["repro_bnb_nodes_total"] / ops,
        "booldata.index.bitmap_ops": bitmap / ops,
    })
    if out is not None:
        tracer.write(out)
    return run
