"""Bench: Table IV — per-query device memory, GENIE vs GEN-SPQ."""

from paper.experiments import table4_memory


def test_table4_memory(benchmark, emit):
    table = benchmark.pedantic(table4_memory.run, rounds=1, iterations=1)
    emit(table)
    for row in table.rows:
        assert row["ratio"] > 5
