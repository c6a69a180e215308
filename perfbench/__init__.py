"""Benchmark of the dyndeg CLI: seeded, checked workloads and a traced per-layer split.

See run.py for how to run it."""
