"""Bench: Fig. 12 — load balancing on the Adult workload."""

from paper.experiments import fig12_load_balance


def test_fig12_load_balance(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig12_load_balance.run(n=30_000), rounds=1, iterations=1
    )
    emit(table)
    assert table.rows[0]["GENIE_LB"] < table.rows[0]["GENIE_noLB"]
