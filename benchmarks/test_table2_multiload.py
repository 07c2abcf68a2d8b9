"""Bench: Tables II + III — multi-loading scalability on SIFT_LARGE."""

from paper.experiments import table2_multiload


def test_table2_multiload(benchmark, emit):
    table2, table3 = benchmark.pedantic(
        lambda: table2_multiload.run(
            sizes=(4000, 8000, 16000, 24000), part_size=4000, n_queries=128
        ),
        rounds=1,
        iterations=1,
    )
    emit(table2, table3)
    seconds = table2.column("genie_seconds")
    assert seconds == sorted(seconds)  # linear growth with parts
