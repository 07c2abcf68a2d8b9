"""Bench: Table V — OCR 1-NN prediction quality."""

from paper.experiments import table5_ocr_prediction


def test_table5_ocr_prediction(benchmark, emit):
    table = benchmark.pedantic(
        lambda: table5_ocr_prediction.run(n=3000, n_queries=200), rounds=1, iterations=1
    )
    emit(table)
    genie = table.where(method="GENIE")[0]
    gpu_lsh = table.where(method="GPU-LSH")[0]
    assert genie["accuracy"] > gpu_lsh["accuracy"]
