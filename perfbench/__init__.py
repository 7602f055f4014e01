"""Benchmark for the wsmgp package: workloads, tracing and reporting.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""
