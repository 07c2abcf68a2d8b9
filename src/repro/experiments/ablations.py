"""Ablations beyond the paper's figures, for the design choices in README.md
("The batch match pipeline").

* Bitmap-Counter width: memory versus the count bound it can serve.
* Robin Hood expired-overwrite: probe counts with the modification on/off.
* Load-balance sublist length: makespan sensitivity to the split size.
* Re-hash domain D: tau-ANN quality versus the 1/D false-collision rate.
"""

from __future__ import annotations

import numpy as np

from repro.api.session import GenieSession
from repro.core.count_table import count_table_batch_bytes
from repro.core.cpq import CountPriorityQueue
from repro.core.engine import GenieConfig, per_query_device_bytes
from repro.core.load_balance import LoadBalanceConfig
from repro.datasets import registry
from repro.datasets.relational import adult_schema, make_exact_match_queries
from repro.datasets.synthetic import true_knn
from repro.experiments.common import fit_genie_sift, reported_distances
from repro.experiments.metrics import batch_approximation_ratio
from repro.experiments.table import ResultTable


def run_bitmap_width(
    n_objects: int = 100_000, k: int = 10, bounds: tuple[int, ...] = (3, 15, 63, 255)
) -> ResultTable:
    """Per-query memory as the count bound (and thus counter width) grows."""
    table = ResultTable(
        title="Ablation: Bitmap-Counter width vs per-query memory",
        columns=["count_bound", "bits", "genie_bytes", "gen_spq_bytes", "ratio"],
    )
    from repro.core.bitmap_counter import bits_for_bound

    for bound in bounds:
        bits = bits_for_bound(bound)
        genie = per_query_device_bytes(n_objects, k, bound, bits=None)
        gen_spq = count_table_batch_bytes(n_objects, 1)
        table.add_row(
            count_bound=bound, bits=bits, genie_bytes=genie, gen_spq_bytes=gen_spq, ratio=gen_spq / genie
        )
    return table


def run_robin_hood(
    capacity: int = 1024,
    n_keys: int = 8_000,
    seed: int = 0,
) -> ResultTable:
    """Probe counts with and without the expired-overwrite modification.

    A small table absorbs a long stream of inserts whose values rise while
    the expiry threshold (``AT - 1``) climbs behind them — the c-PQ access
    pattern. With the modification, expired residents are overwritten in
    place; without it, every stale entry keeps lengthening probe chains.
    """
    rng = np.random.default_rng(seed)
    from repro.core.hash_table import RobinHoodHashTable

    keys = rng.integers(0, 10 * n_keys, size=n_keys)
    values = rng.integers(0, 4, size=n_keys)
    table = ResultTable(
        title="Ablation: Robin Hood expired-overwrite",
        columns=[
            "expired_overwrite",
            "inserts_survived",
            "total_probes",
            "probes_per_insert",
            "expired_overwrites",
            "ht_size",
        ],
        notes=["Without the modification the table fills with expired entries and overflows."],
    )
    from repro.errors import ConfigError

    for flag in (True, False):
        ht = RobinHoodHashTable(capacity, expired_overwrite=flag)
        threshold = 0
        survived = 0
        for i, (key, extra) in enumerate(zip(keys, values)):
            try:
                ht.put(int(key), threshold + int(extra), expire_below=threshold)
            except ConfigError:
                break  # table choked on stale entries — the ablation's point
            survived += 1
            if i % 8 == 7:
                threshold += 1  # AT climbs as the scan progresses
        table.add_row(
            expired_overwrite=flag,
            inserts_survived=survived,
            total_probes=ht.total_probes,
            probes_per_insert=ht.total_probes / max(survived, 1),
            expired_overwrites=ht.expired_overwrites,
            ht_size=ht.size,
        )
    return table


def run_sublist_length(
    lengths: tuple[int, ...] = (512, 2048, 8192, 32768),
    n: int = 40_000,
    n_queries: int = 1,
    seed: int = 0,
) -> ResultTable:
    """Fig. 12's knob swept: the makespan versus the sublist length limit."""
    columns = registry.load("adult", n=n, seed=seed)
    queries = make_exact_match_queries(columns, n_queries, seed=seed + 1)
    table = ResultTable(
        title=f"Ablation: load-balance sublist length ({n_queries} queries)",
        columns=["max_sublist_len", "seconds"],
    )
    for length in lengths:
        config = GenieConfig(k=10, load_balance=LoadBalanceConfig(max_sublist_len=length))
        index = GenieSession().create_index(
            columns, model="relational", schema=adult_schema(), config=config
        )
        index.search(queries, k=10)
        table.add_row(max_sublist_len=length, seconds=index.engine.last_profile.query_total())
    return table


def run_rehash_domain(
    domains: tuple[int, ...] = (16, 67, 256, 1024),
    n: int = 4_000,
    n_queries: int = 32,
    k: int = 10,
    seed: int = 0,
) -> ResultTable:
    """tau-ANN quality versus the re-hash domain D (the 1/D error term)."""
    dataset = registry.load("sift", n=n, seed=seed)
    queries = dataset.queries[:n_queries]
    _, true_d = true_knn(dataset.data, queries, k)
    table = ResultTable(
        title="Ablation: re-hash domain D vs approximation ratio",
        columns=["domain", "approx_ratio"],
        notes=["Smaller D inflates the 1/D false-collision term of Theorem 4.1."],
    )
    for domain in domains:
        setup = fit_genie_sift(dataset, domain=domain, k=k, seed=seed)
        results = setup.handle.search(queries, k=k).results
        reported = reported_distances(dataset, queries, results)
        ratio = batch_approximation_ratio(
            np.pad(reported, ((0, 0), (0, max(0, k - reported.shape[1]))), mode="edge")[:, :k]
            if reported.size
            else np.full((len(queries), k), np.inf),
            true_d,
        )
        table.add_row(domain=domain, approx_ratio=ratio)
    return table


if __name__ == "__main__":
    for result in (run_bitmap_width(), run_robin_hood(), run_sublist_length(), run_rehash_domain()):
        print(result)
        print()
