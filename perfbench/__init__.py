"""The repository benchmark: seeded workloads, an independent oracle and
per-layer tracing.  Run it with ``python3 perfbench/run.py``; see
``perfbench/README.md``."""
