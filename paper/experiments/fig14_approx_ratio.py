"""Fig. 14: approximation ratio versus k on SIFT — GENIE vs GPU-LSH.

Expected shape (paper): GENIE's ratio is low and stable across k; GPU-LSH
is noticeably worse at small k (its early-stop condition examines fewer
candidates) and converges towards GENIE as k grows.
"""

from __future__ import annotations

import numpy as np

from paper.baselines.gpu_lsh import GpuLsh
from paper.experiments.common import DEFAULT_M, fit_genie_sift, reported_distances
from paper.experiments.metrics import batch_approximation_ratio
from paper.experiments.table import ResultTable
from repro.datasets import registry
from repro.datasets.synthetic import true_knn
from repro.gpu.device import Device

DEFAULT_KS = (1, 2, 4, 8, 16, 32, 64)


def run(
    ks: tuple[int, ...] = DEFAULT_KS,
    n: int | None = None,
    n_queries: int = 64,
    m: int = DEFAULT_M,
    gpu_lsh_tables: int = 60,
    gpu_lsh_functions: int = 3,
    gpu_lsh_width: float = 20.0,
    seed: int = 0,
) -> ResultTable:
    """Compute approximation ratios for a sweep of k values.

    GPU-LSH's table parameters are tuned the way the paper tunes them: to
    reach GENIE's quality at large k, which exposes the early-stop
    degradation at small k.
    """
    dataset = registry.load("sift", n=n, seed=seed)
    queries = dataset.queries[:n_queries]
    setup = fit_genie_sift(dataset, m=m, k=max(ks), seed=seed)
    gpu_lsh = GpuLsh(
        num_tables=gpu_lsh_tables,
        functions_per_table=gpu_lsh_functions,
        width=gpu_lsh_width,
        device=Device(),
        seed=seed,
    ).fit(dataset.data)

    table = ResultTable(
        title="Fig. 14: approximation ratio vs k on SIFT",
        columns=["k", "genie_ratio", "gpu_lsh_ratio"],
    )
    for k in ks:
        _, true_d = true_knn(dataset.data, queries, k)
        genie_results = setup.handle.search(queries, k=k).results
        genie_d = _pad_to_k(reported_distances(dataset, queries, genie_results), k)
        lsh_results = gpu_lsh.query(queries, k=k)
        lsh_d = _pad_to_k(reported_distances(dataset, queries, lsh_results), k)
        table.add_row(
            k=k,
            genie_ratio=batch_approximation_ratio(genie_d, true_d),
            gpu_lsh_ratio=batch_approximation_ratio(lsh_d, true_d),
        )
    return table


def _pad_to_k(distances: np.ndarray, k: int) -> np.ndarray:
    """Pad a reported-distance matrix to k columns with its row maxima."""
    distances = np.atleast_2d(distances)
    if distances.shape[1] >= k:
        return distances[:, :k]
    if distances.shape[1] == 0:
        return np.full((distances.shape[0], k), np.inf)
    pad = np.repeat(distances[:, -1:], k - distances.shape[1], axis=1)
    return np.hstack([distances, pad])


if __name__ == "__main__":
    print(run())
