"""Table V: 1-NN prediction quality on OCR — GENIE vs GPU-LSH.

Each test point is classified with the label of its retrieved nearest
neighbour. Expected shape (paper): GENIE's precision/recall/F1/accuracy a
few points above GPU-LSH's, because GPU-LSH's constant-memory budget caps
it at 8 hash functions on high-dimensional data.
"""

from __future__ import annotations

from paper.baselines.gpu_lsh import GpuLsh
from paper.experiments.common import fit_genie_ocr
from paper.experiments.metrics import classification_report
from paper.experiments.table import ResultTable
from repro.datasets import registry
from repro.gpu.device import Device

METRIC_COLUMNS = ["precision", "recall", "f1", "accuracy"]


def run(
    n: int | None = None,
    n_queries: int = 300,
    m: int = 32,
    gpu_lsh_tables: int = 100,
    seed: int = 0,
) -> ResultTable:
    """Classify held-out OCR-like points by retrieved 1-NN label."""
    dataset = registry.load("ocr", n=n, seed=seed)
    queries = dataset.queries[:n_queries]
    truth = dataset.query_labels[:n_queries]

    setup = fit_genie_ocr(dataset, m=m, seed=seed)
    genie_results = setup.handle.search(queries, k=1).results
    genie_pred = [
        int(dataset.labels[r.ids[0]]) if len(r.ids) else -1 for r in genie_results
    ]

    # GPU-LSH: constant memory caps functions_per_table on high-dim data
    # (8 in the paper's OCR setup); l1 distance approximates the
    # Laplacian-kernel ranking.
    max_funcs = max(1, min(4, Device().spec.constant_mem_bytes // (dataset.dim * 4)))
    gpu_lsh = GpuLsh(
        num_tables=gpu_lsh_tables,
        functions_per_table=max_funcs,
        width=float(dataset.dim),
        p=1,
        device=Device(),
        seed=seed,
    ).fit(dataset.data)
    lsh_results = gpu_lsh.query(queries, k=1)
    lsh_pred = [int(dataset.labels[r.ids[0]]) if len(r.ids) else -1 for r in lsh_results]

    table = ResultTable(
        title="Table V: OCR 1-NN prediction quality",
        columns=["method"] + METRIC_COLUMNS,
        notes=[f"GPU-LSH limited to {max_funcs} functions/table by constant memory."],
    )
    table.add_row(method="GENIE", **classification_report(truth, genie_pred))
    table.add_row(method="GPU-LSH", **classification_report(truth, lsh_pred))
    return table


if __name__ == "__main__":
    print(run())
