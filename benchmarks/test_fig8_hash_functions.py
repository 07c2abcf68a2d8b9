"""Bench: Fig. 8 — minimum required LSH functions vs similarity."""

from paper.experiments import fig8_hash_functions


def test_fig8_hash_functions(benchmark, emit):
    table = benchmark.pedantic(fig8_hash_functions.run, rounds=1, iterations=1)
    emit(table)
    peak = max(m for m in table.column("required_m"))
    assert 200 <= peak <= 250  # paper reads ~237
