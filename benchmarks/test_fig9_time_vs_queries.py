"""Bench: Fig. 9 — total running time vs number of queries, five datasets."""

from paper.experiments import fig9_time_vs_queries


def test_fig9_time_vs_queries(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig9_time_vs_queries.run(query_counts=(32, 64, 128, 256), n=3000),
        rounds=1,
        iterations=1,
    )
    emit(table)
    for dataset in ("ocr", "sift", "tweets", "adult"):
        genie = table.where(dataset=dataset, system="GENIE", n_queries=256)[0]["seconds"]
        spq = table.where(dataset=dataset, system="GPU-SPQ", n_queries=256)[0]["seconds"]
        assert spq > 5 * genie, f"GENIE should dominate GPU-SPQ on {dataset}"
