"""The repository's end-to-end benchmark.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh process and prints its
metrics as one JSON line; README.md in this directory describes the
workloads, the metrics and the first recorded baseline.
"""
