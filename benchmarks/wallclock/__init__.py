"""Wall-clock benchmark of the public ``repro`` entry points.

Four workloads, five gated end-to-end metrics, per-layer attribution from
spans recorded *outside* the program (``trace.py`` wraps public callables;
nothing under ``src/`` reads a wall clock).  See ``README.md`` for the
workload table, metric definitions and the noise protocol, and
``BENCHMARK.json`` at the repository root for the gated contract.

Importing this package imports nothing heavy: a run's child process has
to time ``import repro`` itself.
"""
