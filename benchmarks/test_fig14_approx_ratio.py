"""Bench: Fig. 14 — approximation ratio vs k on SIFT."""

from paper.experiments import fig14_approx_ratio


def test_fig14_approx_ratio(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig14_approx_ratio.run(n=2500, n_queries=48), rounds=1, iterations=1
    )
    emit(table)
    k1 = table.where(k=1)[0]
    k64 = table.where(k=64)[0]
    assert k1["gpu_lsh_ratio"] > k1["genie_ratio"]
    assert k64["gpu_lsh_ratio"] < k1["gpu_lsh_ratio"]
