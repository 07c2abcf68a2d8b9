"""Fig. 10: running time versus data cardinality (fixed 512-query batch).

Expected shape (paper): GENIE grows gradually with data size; GPU-LSH is
comparatively flat (its per-query work depends on bucket sizes, not the
full scan); GPU-SPQ and the CPU baselines grow linearly and sit orders of
magnitude above GENIE.
"""

from __future__ import annotations

from paper.experiments.suite import systems_for
from paper.experiments.table import ResultTable

#: Scaled cardinality sweep (paper sweeps 500K..8M per dataset).
DEFAULT_CARDINALITIES = (1_000, 2_000, 4_000, 8_000)

#: Scaled fixed batch (paper fixes 512 queries).
DEFAULT_N_QUERIES = 128

DEFAULT_DATASETS = ("ocr", "sift", "dblp", "tweets", "adult")


def run(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    cardinalities: tuple[int, ...] = DEFAULT_CARDINALITIES,
    n_queries: int = DEFAULT_N_QUERIES,
    seed: int = 0,
) -> ResultTable:
    """Run the cardinality sweep for every dataset and system."""
    table = ResultTable(
        title=f"Fig. 10: running time vs cardinality ({n_queries} queries, simulated seconds)",
        columns=["dataset", "system", "cardinality", "seconds"],
    )
    for dataset_name in datasets:
        for cardinality in cardinalities:
            runners = systems_for(dataset_name, n=cardinality, seed=seed)
            for system, runner in runners.items():
                table.add_row(
                    dataset=dataset_name,
                    system=system,
                    cardinality=cardinality,
                    seconds=runner(n_queries),
                )
    return table


if __name__ == "__main__":
    print(run())
