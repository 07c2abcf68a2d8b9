"""Bench: ablation — load-balance sublist length sweep."""

from paper.experiments import ablations


def test_ablation_sublist_length(benchmark, emit):
    table = benchmark.pedantic(
        lambda: ablations.run_sublist_length(n=30_000), rounds=1, iterations=1
    )
    emit(table)
    seconds = table.column("seconds")
    assert seconds[0] <= seconds[-1]
