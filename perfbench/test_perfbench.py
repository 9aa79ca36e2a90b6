"""The benchmark's own tests, at toy scale.

    python3 -m pytest perfbench/test_perfbench.py

They check what a benchmark run must guarantee: nothing outlives a run,
normal or failed; one seed gives one set of answers and work counts;
the metric names agree with ``BENCHMARK.json``; and the command refuses
to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inventory, paper_exact, serve_mixed, tracing  # noqa: E402
from perfbench.measure import WORK_ROOT, InjectedFailure  # noqa: E402

WORKLOADS = {
    "paper_exact": paper_exact,
    "inventory_1m": inventory,
    "serve_mixed": serve_mixed,
}

#: traced work counts that must repeat exactly for one seed
WORK_COUNTERS = (
    "mining.dfs_expansions",
    "mining.level_candidates",
    "lp.simplex_pivots",
    "lp.bnb_nodes",
    "booldata.index.bitmap_ops",
    "stream.cache.hit_ratio",
    "stream.log.compactions",
    "store.fsyncs_per_ingest",
    "store.wal_bytes_per_query",
    "runtime.harness.fallbacks",
    "serve.shed",
)


def _children() -> list[int]:
    """Pids of this process's live children."""
    me = str(os.getpid())
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if fields[1] == me:
                found.append(int(entry.name))
    return found


def _assert_nothing_left() -> None:
    deadline = time.monotonic() + 10
    for thread in threading.enumerate():
        if thread is not threading.main_thread() and not thread.daemon:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert [t.name for t in threading.enumerate() if t is not threading.main_thread()] == []
    assert _children() == []
    assert not WORK_ROOT.exists()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_runs_leave_nothing_behind(name):
    workload = WORKLOADS[name]
    run = workload.measure(1, 1.0, "toy")
    assert run.correct, run.problems[:5]
    _assert_nothing_left()
    with pytest.raises(InjectedFailure):
        workload.measure(1, 5.0, "toy", fail_at=20)
    _assert_nothing_left()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_one_outcome(name):
    workload = WORKLOADS[name]
    first, second = workload.measure(7, 1.0, "toy"), workload.measure(7, 1.0, "toy")
    shared = first.answers.keys() & second.answers.keys()
    assert len(shared) >= 20
    assert all(first.answers[key] == second.answers[key] for key in shared)
    for run in (first, second):
        assert run.correct, run.problems[:5]
        assert run.verified == run.attempted
    if name == "serve_mixed":
        assert first.satisfied / first.optimum == second.satisfied / second.optimum
    else:
        assert first.satisfied == first.optimum and second.satisfied == second.optimum
    traced = [workload.trace(7, "toy"), workload.trace(7, "toy")]
    assert traced[0].answers == traced[1].answers
    assert all(run.correct for run in traced)
    for counter in WORK_COUNTERS:
        assert traced[0].layers.get(counter, 0.0) == traced[1].layers.get(counter, 0.0), counter
    _assert_nothing_left()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER
    )
    run = paper_exact.measure(3, 0.5, "toy")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in run.end_to_end().items()
    }
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_program():
    bare = WORK_ROOT / "bare"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(WORK_ROOT)
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
