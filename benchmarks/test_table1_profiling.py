"""Bench: Table I — per-stage time profile of GENIE."""

from paper.experiments import table1_profiling


def test_table1_profiling(benchmark, emit):
    table = benchmark.pedantic(
        lambda: table1_profiling.run(n_queries=256, n=3000), rounds=1, iterations=1
    )
    emit(table)
    for row in table.rows:
        assert row["query_transfer"] < row["match"]
