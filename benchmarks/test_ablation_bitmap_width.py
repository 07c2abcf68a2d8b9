"""Bench: ablation — Bitmap-Counter width vs per-query memory."""

from paper.experiments import ablations


def test_ablation_bitmap_width(benchmark, emit):
    table = benchmark.pedantic(ablations.run_bitmap_width, rounds=1, iterations=1)
    emit(table)
    assert table.rows[0]["ratio"] > table.rows[-1]["ratio"]
