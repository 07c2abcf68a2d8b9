"""Bench: Table VII — sequence accuracy and time vs shortlist size K."""

from paper.experiments import table7_sequence_k


def test_table7_sequence_k(benchmark, emit):
    table = benchmark.pedantic(
        lambda: table7_sequence_k.run(n=1500, n_queries=48), rounds=1, iterations=1
    )
    emit(table)
    frac = 0.4
    small = table.where(K=8, modified_fraction=frac)[0]["accuracy"]
    large = table.where(K=256, modified_fraction=frac)[0]["accuracy"]
    assert large >= small
