"""Bench: sharded multi-device scaling + partition-skew load imbalance.

Two tables, both in deterministic simulated seconds:

1. **Shard scaling** — the fig9 OCR workload (RBH signatures over the
   OCR-like point set, 256 queries, k=10) searched through
   ``GenieSession.create_index(..., shards=N)`` for N in {1, 2, 4, 8}.
   Each shard scans its corpus slice on its own simulated device; batch
   latency is the critical path (slowest shard + host merge), so
   throughput rises as the skewed RBH postings split across devices.
   Every sharded result is asserted **bit-identical** to the unsharded
   index (ids, counts, tie order), and the 4-shard configuration must
   deliver >= 2.5x the 1-shard simulated throughput.

2. **Load imbalance** — Fig. 12's skew story at the cluster level. An
   Adult-like table is *sorted by age* and hit with narrow age-range
   traffic served through a ``GenieServer``: under range partitioning
   each query's postings live in the one shard that holds its age band,
   and the skewed age distribution makes that band's shard hot while
   the rest idle. The server's per-shard busy-time counters expose the
   imbalance; hash partitioning of the same rows evens it back out.
"""

import numpy as np

from repro.api import GenieSession
from repro.datasets import registry
from repro.datasets.relational import adult_schema, make_adult_like
from repro.experiments.common import fit_genie_ocr
from repro.experiments.table import ResultTable
from repro.serve import BatchPolicy, GenieServer

SHARD_COUNTS = (1, 2, 4, 8)
N_QUERIES = 256
K = 10
SEED = 0

ADULT_ROWS = 20000
ADULT_QUERIES = 48


def _ocr_workload():
    """The fig9 OCR setup: RBH-keyword corpus + 256 encoded queries."""
    dataset = registry.load("ocr", seed=SEED)
    setup = fit_genie_ocr(dataset, k=K, seed=SEED)
    transformer = setup.handle.model.transformer
    corpus = transformer.to_corpus(dataset.data)
    reps = int(np.ceil(N_QUERIES / len(dataset.queries)))
    raw = np.tile(dataset.queries, (reps, 1))[:N_QUERIES]
    queries = transformer.to_queries(raw)
    return list(corpus.keyword_arrays), queries, setup.handle.engine.config


def _shard_scaling_table(objects, queries, config):
    unsharded = (
        GenieSession(config=config)
        .create_index(objects, model="raw", name="ocr")
        .search(queries, k=K)
    )
    base_seconds = None
    table = ResultTable(
        title="Shard scaling: fig9 OCR workload across N simulated devices",
        columns=["shards", "seconds", "throughput_qps", "speedup",
                 "slowest_shard_s", "mean_shard_s", "merge_s"],
        notes=[
            f"fig9 OCR workload: RBH m=32 domain=1024, {len(objects)} objects, "
            f"{N_QUERIES} queries, k={K}, range partition.",
            "seconds = critical path (slowest shard + host merge) of one",
            "IndexHandle.search; results bit-identical to the",
            "unsharded index at every shard count (asserted).",
            "virtual-device timing: identical numbers on every run/machine.",
        ],
    )
    speedups = {}
    for n_shards in SHARD_COUNTS:
        session = GenieSession(config=config)
        handle = session.create_index(
            objects, model="raw", name="ocr", shards=n_shards
        )
        result = handle.search(queries, k=K)
        for expected, got in zip(unsharded.results, result.results):
            assert np.array_equal(expected.ids, got.ids)
            assert np.array_equal(expected.counts, got.counts)
        seconds = result.profile.query_total()
        if base_seconds is None:
            base_seconds = seconds
        shard_totals = [p.query_total() for p in result.shard_profiles]
        speedups[n_shards] = base_seconds / seconds
        table.add_row(
            shards=n_shards,
            seconds=seconds,
            throughput_qps=N_QUERIES / seconds,
            speedup=speedups[n_shards],
            slowest_shard_s=max(shard_totals),
            mean_shard_s=sum(shard_totals) / len(shard_totals),
            merge_s=result.profile.get("result_merge"),
        )
    return table, speedups


def _sorted_adult():
    """Adult-like rows sorted by age so each age band is contiguous."""
    columns = make_adult_like(n=ADULT_ROWS, seed=SEED)
    order = np.argsort(columns["age"], kind="stable")
    return {name: values[order] for name, values in columns.items()}


def _age_band_queries(columns):
    """Narrow age-range queries sampled from the (skewed) age column."""
    rng = np.random.default_rng(SEED + 1)
    rows = rng.choice(ADULT_ROWS, size=ADULT_QUERIES, replace=False)
    ages = [float(columns["age"][int(row)]) for row in rows]
    return [{"age": (age - 1.0, age + 1.0)} for age in ages]


def _serve_adult(columns, queries, strategy, n_shards=4):
    session = GenieSession()
    session.create_index(
        columns, model="relational", schema=adult_schema(), name="adult",
        shards=n_shards, shard_strategy=strategy,
    )
    server = GenieServer(
        session, policy=BatchPolicy.micro(max_batch=16, max_wait=1e-4),
        cache_size=None, max_queue_depth=ADULT_QUERIES,
    )
    for query in queries:
        server.advance(1e-5)
        server.submit("adult", query, k=K)
    server.drain()
    return server.snapshot()


def _imbalance_table(snapshots):
    table = ResultTable(
        title="Load imbalance: skewed (sorted) Adult postings, 4 shards, served traffic",
        columns=["strategy", "requests", "batches", "shard_busy_us", "imbalance"],
        notes=[
            f"Adult-like table ({ADULT_ROWS} rows) sorted by age; narrow",
            "age-range queries served via GenieServer (micro-batching).",
            "shard_busy_us: per-shard device busy time (simulated us).",
            "imbalance = max / mean shard busy time (1.0 = balanced);",
            "range partitioning puts each query's age band in one shard",
            "and the skewed age distribution makes that shard hot; hash",
            "partitioning spreads every band across all shards",
            "(the Fig. 12 skew story, one level up).",
        ],
    )
    for strategy, snap in snapshots.items():
        busy = snap["shard_busy_seconds"]
        table.add_row(
            strategy=strategy,
            requests=snap["completed"],
            batches=snap["batches"],
            shard_busy_us="/".join(f"{busy[s] * 1e6:.1f}" for s in sorted(busy)),
            imbalance=snap["shard_imbalance"],
        )
    return table


def test_shard_scaling(benchmark, emit):
    objects, queries, config = _ocr_workload()
    scaling, speedups = benchmark.pedantic(
        lambda: _shard_scaling_table(objects, queries, config), rounds=1, iterations=1
    )

    columns = _sorted_adult()
    adult_queries = _age_band_queries(columns)
    snapshots = {strategy: _serve_adult(columns, adult_queries, strategy)
                 for strategy in ("range", "hash")}
    imbalance = _imbalance_table(snapshots)
    emit(scaling, imbalance)

    assert speedups[4] >= 2.5, (
        f"4-shard throughput scaled only {speedups[4]:.2f}x over 1 shard"
    )
    assert speedups[8] > speedups[2], "scaling collapsed before 8 shards"
    assert snapshots["range"]["shard_imbalance"] > 1.4, (
        "sorted-skew range partition should concentrate the busy time"
    )
    assert snapshots["hash"]["shard_imbalance"] < 1.1, (
        "hash partition failed to even out the sorted skew"
    )
