"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload paper_exact --seed 1 --seconds 10 --trace 0

Inputs are generated from ``--seed`` alone.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same workload untraced and
then traced, prints the per-layer metrics and writes the spans to
``.perfbench-out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "paper_exact": "perfbench.paper_exact",
    "inventory_1m": "perfbench.inventory",
    "serve_mixed": "perfbench.serve_mixed",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # a terminated run still stops its server and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from perfbench import measure, tracing

    workload = importlib.import_module(WORKLOADS[args.workload])
    try:
        run = workload.measure(args.seed, args.seconds, "full")
        passes = [run]
        if args.trace:
            out = measure.OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced = workload.trace(args.seed, "full", out)
            passes.append(traced)
    except Exception:
        traceback.print_exc()
        return 1

    for problem in (problem for each in passes for problem in each.problems[:20]):
        print(f"check failed: {problem}")
    metrics = run.end_to_end()
    read, ingest = run.read_ms, run.ingest_ms
    print(
        f"{args.workload} seed={args.seed}: {run.completed} ops in {run.elapsed_s:.2f} s; "
        f"read ops={len(read)} ({measure.beyond(read, 0.95)} beyond p95), "
        f"ingest ops={len(ingest)} ({measure.beyond(ingest, 0.95)} beyond p95), "
        f"set-ups={len(run.setup_s)}"
    )
    if args.trace:
        layers = {name: 0.0 for name, _, _ in tracing.PER_LAYER}
        layers.update(traced.layers)
        layers["trace.overhead_ratio"] = (
            metrics["ops_per_s"][0] / (traced.completed / traced.elapsed_s)
        )
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        print(f"traced pass: {traced.completed} ops in {traced.elapsed_s:.2f} s; spans in {out}")
        metrics = {name: (value, units[name]) for name, value in layers.items()}
    correct = all(each.correct for each in passes)
    attempted = sum(each.attempted for each in passes)
    failed = attempted - sum(each.verified for each in passes)
    print(_result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
