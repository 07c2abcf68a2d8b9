"""Bench: Fig. 11 — very large query batches on SIFT."""

from paper.experiments import fig11_large_batches


def test_fig11_large_batches(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig11_large_batches.run(n=3000, query_counts=(256, 512, 1024, 2048)),
        rounds=1,
        iterations=1,
    )
    emit(table)
    last = table.rows[-1]
    assert last["genie_seconds"] < last["gpu_lsh_seconds"]
