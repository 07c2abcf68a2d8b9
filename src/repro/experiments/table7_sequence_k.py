"""Table VII: sequence-search accuracy and time versus shortlist size K.

Expected shape (paper): accuracy rises with K and saturates around K = 64;
time grows with K. The paper's recommendation — K = 32 balances both —
should be visible in the output.
"""

from __future__ import annotations

from repro.api.session import GenieSession
from repro.datasets import registry
from repro.datasets.sequences import make_query_set
from repro.experiments.metrics import top1_accuracy
from repro.experiments.table import ResultTable

DEFAULT_KS = (8, 16, 32, 64, 128, 256)
DEFAULT_FRACTIONS = (0.1, 0.2, 0.3, 0.4)


def run(
    candidate_ks: tuple[int, ...] = DEFAULT_KS,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    n: int | None = None,
    n_queries: int = 64,
    seed: int = 0,
) -> ResultTable:
    """Sweep the shortlist size K against modification rates."""
    titles = registry.load("dblp", n=n, seed=seed)
    session = GenieSession()
    index = session.create_index(titles, model="sequence", n=3)

    table = ResultTable(
        title="Table VII: sequence accuracy and time vs K",
        columns=["K", "modified_fraction", "accuracy", "seconds"],
    )
    for fraction in fractions:
        queries, true_ids = make_query_set(titles, n_queries, fraction, seed=seed + 1)
        for K in candidate_ks:
            dev0 = session.device.timings.total
            host0 = session.host.timings.total
            predictions = []
            for q in queries:
                result = index.search([q], k=1, n_candidates=K).payload[0]
                predictions.append(result.best.sequence_id if result.best else -1)
            seconds = (session.device.timings.total - dev0) + (
                session.host.timings.total - host0
            )
            table.add_row(
                K=K,
                modified_fraction=fraction,
                accuracy=top1_accuracy(predictions, true_ids),
                seconds=seconds,
            )
    return table


if __name__ == "__main__":
    print(run())
