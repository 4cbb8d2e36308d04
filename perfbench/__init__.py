"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload; see ``perfbench/README.md`` for the
workloads, the metrics and which layer should move which number.
"""
