"""Bench: ablation — Robin Hood expired-overwrite modification."""

from paper.experiments import ablations


def test_ablation_robin_hood(benchmark, emit):
    table = benchmark.pedantic(ablations.run_robin_hood, rounds=1, iterations=1)
    emit(table)
    with_mod = table.where(expired_overwrite=True)[0]
    without = table.where(expired_overwrite=False)[0]
    assert with_mod["probes_per_insert"] < without["probes_per_insert"]
