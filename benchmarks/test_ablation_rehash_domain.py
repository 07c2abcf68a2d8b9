"""Bench: ablation — re-hash domain D vs tau-ANN quality."""

from paper.experiments import ablations


def test_ablation_rehash_domain(benchmark, emit):
    table = benchmark.pedantic(
        lambda: ablations.run_rehash_domain(n=2500, n_queries=32), rounds=1, iterations=1
    )
    emit(table)
    assert table.rows[-1]["approx_ratio"] <= table.rows[0]["approx_ratio"] * 1.05
