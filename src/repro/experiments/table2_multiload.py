"""Tables II + III: multi-loading scalability on SIFT_LARGE.

A dataset several times the per-load budget is swept through the device in
parts. Expected shape (paper): GENIE's total scales linearly with the
number of parts; GPU-LSH needs several times GENIE's time at every size;
the extra multi-loading steps (index transfer, result merge) stay a small
fraction of the total (Table III).
"""

from __future__ import annotations

import numpy as np

from repro.api.session import GenieSession
from repro.core.engine import GenieConfig
from repro.datasets import registry
from repro.experiments.common import DEFAULT_K, DEFAULT_M
from repro.experiments.table import ResultTable
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.transform import LshTransformer

#: Scaled sweep (paper: 6M / 12M / 24M / 36M points, 6M per load).
DEFAULT_SIZES = (6_000, 12_000, 24_000, 36_000)
DEFAULT_PART_SIZE = 6_000


def run(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    part_size: int = DEFAULT_PART_SIZE,
    n_queries: int = 128,
    m: int = DEFAULT_M,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> tuple[ResultTable, ResultTable]:
    """Run the multi-loading sweep.

    Returns:
        ``(table2, table3)``: total times per size, and the extra-step
        breakdown (index transfer / result merge) per size.
    """
    full = registry.load("sift_large", n=max(sizes), seed=seed)
    family = E2Lsh(m, full.dim, 4.0, p=2, seed=seed)
    transformer = LshTransformer(family, domain=67, seed=seed)
    queries = transformer.to_queries(full.queries[:n_queries])

    table2 = ResultTable(
        title=f"Table II: multi-loading on SIFT_LARGE ({n_queries} queries, part={part_size})",
        columns=["n_points", "n_parts", "genie_seconds"],
    )
    table3 = ResultTable(
        title="Table III: extra multi-loading costs (simulated seconds)",
        columns=["n_points", "index_transfer", "result_merge", "total"],
    )
    for size in sizes:
        corpus = transformer.to_corpus(full.data[:size])
        session = GenieSession(config=GenieConfig(k=k, count_bound=m))
        handle = session.create_index(
            corpus, model="raw", part_size=part_size, swap_parts=True
        )
        profile = handle.search(queries, k=k).profile
        total = profile.query_total()
        table2.add_row(n_points=size, n_parts=handle.num_parts, genie_seconds=total)
        table3.add_row(
            n_points=size,
            index_transfer=profile.get("index_transfer"),
            result_merge=profile.get("result_merge"),
            total=total,
        )
    return table2, table3


if __name__ == "__main__":
    for t in run():
        print(t)
        print()
