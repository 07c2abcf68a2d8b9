"""Bench: Fig. 13 — GENIE vs GEN-SPQ (c-PQ effectiveness)."""

from paper.experiments import fig13_cpq_effect


def test_fig13_cpq_effect(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig13_cpq_effect.run(query_counts=(32, 64, 128, 256), n=3000),
        rounds=1,
        iterations=1,
    )
    emit(table)
    for dataset in ("ocr", "sift", "tweets", "adult"):
        genie = table.where(dataset=dataset, system="GENIE", n_queries=256)[0]["seconds"]
        gen_spq = table.where(dataset=dataset, system="GEN-SPQ", n_queries=256)[0]["seconds"]
        assert gen_spq > genie
