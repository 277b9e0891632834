"""The serving benchmark of this repository (see README.md beside this file).

Four long workloads through the public request path, six end-to-end metrics
per workload with tracing off, and per-layer attribution from a separate
traced run.  ``BENCHMARK.json`` at the repository root names the metrics.
"""
