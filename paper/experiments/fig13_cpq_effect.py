"""Fig. 13: effectiveness of c-PQ — GENIE versus GEN-SPQ.

Same inverted index, same scan; only the top-k structure differs (c-PQ
versus Count Table + SPQ bucket selection). Expected shape (paper): GENIE
markedly faster at every query count on every dataset, because GEN-SPQ's
selection re-scans full count arrays.
"""

from __future__ import annotations

from paper.experiments.suite import document_systems, point_systems, relational_systems
from paper.experiments.table import ResultTable

DEFAULT_QUERY_COUNTS = (32, 64, 128, 256)
DEFAULT_DATASETS = ("ocr", "sift", "tweets", "adult")


def run(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    query_counts: tuple[int, ...] = DEFAULT_QUERY_COUNTS,
    n: int | None = None,
    seed: int = 0,
) -> ResultTable:
    """Time GENIE against GEN-SPQ across datasets and query counts."""
    table = ResultTable(
        title="Fig. 13: GENIE vs GEN-SPQ (simulated seconds)",
        columns=["dataset", "system", "n_queries", "seconds"],
    )
    for dataset_name in datasets:
        if dataset_name in ("ocr", "sift"):
            runners = point_systems(dataset_name, n=n, systems=("GENIE", "GEN-SPQ"), seed=seed)
        elif dataset_name == "tweets":
            base = document_systems(n=n, seed=seed)
            runners = {"GENIE": base["GENIE"], "GEN-SPQ": base["GEN-SPQ"]}
        else:
            base = relational_systems(n=n, seed=seed)
            runners = {"GENIE": base["GENIE"], "GEN-SPQ": base["GEN-SPQ"]}
        for system, runner in runners.items():
            for n_queries in query_counts:
                table.add_row(
                    dataset=dataset_name,
                    system=system,
                    n_queries=n_queries,
                    seconds=runner(n_queries),
                )
    return table


if __name__ == "__main__":
    print(run())
