"""Bench: Fig. 10 — running time vs data cardinality (fixed batch)."""

from paper.experiments import fig10_time_vs_cardinality


def test_fig10_time_vs_cardinality(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig10_time_vs_cardinality.run(
            cardinalities=(1000, 2000, 4000), n_queries=128
        ),
        rounds=1,
        iterations=1,
    )
    emit(table)
    genie_small = table.where(dataset="sift", system="GENIE", cardinality=1000)[0]["seconds"]
    genie_large = table.where(dataset="sift", system="GENIE", cardinality=4000)[0]["seconds"]
    assert genie_small < genie_large
