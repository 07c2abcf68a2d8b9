"""Shared fixtures for the benchmark harness.

Every figure/table benchmark runs its experiment once under
``pytest-benchmark`` and *emits* the resulting table: printed to stdout
(visible with ``pytest benchmarks/ --benchmark-only -s``) and saved under
``benchmarks/results/`` so a benchmark run regenerates the paper's numbers
as artifacts.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory collecting the regenerated figure/table text files."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir, request):
    """Emit one or more ResultTables for the current benchmark.

    Stdout gets the live rendering (wall-clock numbers included); the
    saved ``.txt`` artifact gets the *stable* rendering, with any
    columns the table marks ``volatile`` masked so the file is
    byte-identical across runs and machines.
    """

    def _emit(*tables):
        name = request.node.name.replace("test_", "", 1)
        stable = "\n\n".join(t.format(stable=True) for t in tables)
        (results_dir / f"{name}.txt").write_text(stable + "\n")
        print()
        print("\n\n".join(t.format() for t in tables))

    return _emit
