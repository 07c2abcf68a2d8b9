"""Fig. 9: total running time versus number of queries, five datasets.

Expected shape (paper): GENIE beats GPU-SPQ by >= 1 order of magnitude
(two orders against AppGram on sequences), beats GPU-LSH by about one
order; GPU-LSH is roughly flat in the query count; CPU baselines are
orders of magnitude slower and grow linearly.
"""

from __future__ import annotations

from paper.experiments.suite import systems_for
from paper.experiments.table import ResultTable

#: Scaled default query counts (paper sweeps 32..1024).
DEFAULT_QUERY_COUNTS = (32, 64, 128, 256)

#: Datasets in the paper's panel order.
DEFAULT_DATASETS = ("ocr", "sift", "dblp", "tweets", "adult")


def run(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    query_counts: tuple[int, ...] = DEFAULT_QUERY_COUNTS,
    n: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Run the query-count sweep for every dataset and system.

    Returns:
        A long-format table: one row per (dataset, system, n_queries).
    """
    table = ResultTable(
        title="Fig. 9: total running time vs number of queries (simulated seconds)",
        columns=["dataset", "system", "n_queries", "seconds"],
        notes=["NaN seconds = batch did not fit in device memory (paper: 'cannot run')."],
    )
    for dataset_name in datasets:
        runners = systems_for(dataset_name, n=n, seed=seed)
        for system, runner in runners.items():
            for n_queries in query_counts:
                seconds = runner(n_queries)
                table.add_row(
                    dataset=dataset_name, system=system, n_queries=n_queries, seconds=seconds
                )
    return table


if __name__ == "__main__":
    print(run())
