"""Table VI: top-1 sequence-search accuracy vs modification rate (DBLP).

Queries are indexed titles with 10-40% of their characters corrupted;
accuracy is the fraction whose true original ranks first after
verification. Expected shape (paper, K=32): ~1.0 up to 20% modification,
still >= 0.95 at 40%; per-batch latency roughly constant.
"""

from __future__ import annotations

from repro.api.session import GenieSession
from repro.datasets import registry
from repro.datasets.sequences import make_query_set
from repro.experiments.metrics import top1_accuracy
from repro.experiments.table import ResultTable

DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4)


def run(
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    n: int | None = None,
    n_queries: int = 128,
    n_candidates: int = 32,
    seed: int = 0,
) -> ResultTable:
    """Measure recovery accuracy and latency per modification rate."""
    titles = registry.load("dblp", n=n, seed=seed)
    session = GenieSession()
    index = session.create_index(titles, model="sequence", n=3)

    table = ResultTable(
        title=f"Table VI: DBLP top-1 accuracy vs modification (K={n_candidates})",
        columns=["modified_fraction", "accuracy", "latency_seconds"],
    )
    for fraction in fractions:
        queries, true_ids = make_query_set(titles, n_queries, fraction, seed=seed + 1)
        dev0 = session.device.timings.total
        host0 = session.host.timings.total
        predictions = []
        for q in queries:
            result = index.search([q], k=1, n_candidates=n_candidates).payload[0]
            predictions.append(result.best.sequence_id if result.best else -1)
        latency = (session.device.timings.total - dev0) + (session.host.timings.total - host0)
        table.add_row(
            modified_fraction=fraction,
            accuracy=top1_accuracy(predictions, true_ids),
            latency_seconds=latency,
        )
    return table


if __name__ == "__main__":
    print(run())
