"""Bench: Table VI — DBLP top-1 accuracy vs modification rate."""

from paper.experiments import table6_dblp_accuracy


def test_table6_dblp_accuracy(benchmark, emit):
    table = benchmark.pedantic(
        lambda: table6_dblp_accuracy.run(n=2000, n_queries=96), rounds=1, iterations=1
    )
    emit(table)
    accuracies = table.column("accuracy")
    assert accuracies[0] >= 0.98  # ~1.0 at 10% modification
    assert accuracies[-1] >= 0.7  # still high at 40%
