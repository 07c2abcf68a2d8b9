"""Fig. 11: very large query batches on SIFT — GENIE vs GPU-LSH.

GENIE splits an oversized workload into fixed-size batches; GPU-LSH takes
the whole set in one launch (one thread per query). Expected shape (paper,
at 65536 queries): GPU-LSH needs about 3x GENIE's total time; GPU-LSH is
flat-ish until the device's thread capacity saturates, then grows.
"""

from __future__ import annotations

import numpy as np

from paper.baselines.gpu_lsh import GpuLsh
from paper.experiments.common import DEFAULT_K, DEFAULT_M, fit_genie_sift
from paper.experiments.table import ResultTable
from repro.datasets import registry
from repro.gpu.device import Device

#: Scaled query counts (paper sweeps 2048..65536).
DEFAULT_QUERY_COUNTS = (256, 512, 1024, 2048, 4096)

#: GENIE's batch size (paper uses 1024 per batch).
DEFAULT_BATCH = 256


def run(
    query_counts: tuple[int, ...] = DEFAULT_QUERY_COUNTS,
    batch_size: int = DEFAULT_BATCH,
    n: int | None = None,
    m: int = DEFAULT_M,
    k: int = DEFAULT_K,
    gpu_lsh_tables: int = 60,
    seed: int = 0,
) -> ResultTable:
    """Run the large-batch comparison on SIFT-like data."""
    dataset = registry.load("sift", n=n, seed=seed)
    setup = fit_genie_sift(dataset, m=m, k=k, seed=seed)
    gpu_lsh = GpuLsh(
        num_tables=gpu_lsh_tables,
        functions_per_table=4,
        width=16.0,
        device=Device(),
        seed=seed,
        early_stop_factor=None,  # timing config: full short-list search
    ).fit(dataset.data)

    pool = dataset.queries

    def queries_for(n_queries: int) -> np.ndarray:
        reps = int(np.ceil(n_queries / len(pool)))
        return np.tile(pool, (reps, 1))[:n_queries]

    table = ResultTable(
        title=f"Fig. 11: large query batches on SIFT (GENIE batch={batch_size}, simulated s)",
        columns=["n_queries", "genie_seconds", "gpu_lsh_seconds"],
    )
    for n_queries in query_counts:
        points = queries_for(n_queries)
        genie_total = 0.0
        for start in range(0, n_queries, batch_size):
            setup.handle.search(points[start : start + batch_size], k=k)
            genie_total += setup.handle.engine.last_profile.query_total()
        gpu_lsh.query(points, k=k)
        table.add_row(
            n_queries=n_queries,
            genie_seconds=genie_total,
            gpu_lsh_seconds=gpu_lsh.last_profile.query_total(),
        )
    return table


if __name__ == "__main__":
    print(run())
