"""Micro-benchmark: the vectorized batch match pipeline vs per-query scans.

Measures *wall-clock host time* (not simulated device seconds) of the two
functionally identical pipelines on a Fig.-9-style 256-query LSH workload
(OCR shape: 32 hash functions over a 1024-bucket re-hash domain, 8000
objects, k=10):

* legacy: one :func:`plan_query_scan` + :func:`topk_from_counts` per query
  (the specification in ``repro.core.reference``: per-item span lookups,
  per-query ``bincount``/selection), and
* batch: one :func:`plan_batch_scan` for the whole batch (CSR span
  resolution, fused-key ``bincount`` tiles, cache-resident cost/selection
  sweep).

A second row repeats the comparison on a heavy-bucket draw of the same shape
(per function one bucket holds 60 % of the objects and another 20 %), whose
long lists take the batch scan's shared byte-row regime where the uniform
draw takes the per-row ``bincount``.

The emitted table records the before/after numbers; the assertion guards
the speedup that motivated the batch pipeline (>= 5x measured on the
development machine, asserted at 3x to absorb machine variance).
"""

import os
import time

import numpy as np

from repro.core.batch_scan import plan_batch_scan
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.inverted_index import InvertedIndex
from repro.core.reference import plan_query_scan, topk_from_counts
from repro.core.types import Corpus, Query, QueryBatch
from repro.experiments.table import ResultTable

M, DOMAIN, N_OBJECTS, N_QUERIES, K = 32, 1024, 8000, 256, 10


def _workload(heavy=False):
    rng = np.random.default_rng(0)
    base = np.arange(M) * DOMAIN

    def buckets():
        drawn = rng.integers(0, DOMAIN, size=M)
        if heavy:
            skew = rng.random(M)
            drawn = np.where(skew < 0.6, 0, np.where(skew < 0.8, 1, drawn))
        return base + drawn

    corpus = Corpus([buckets() for _ in range(N_OBJECTS)])
    queries = [Query.from_keywords(buckets()) for _ in range(N_QUERIES)]
    return corpus, QueryBatch.from_queries(queries)


def _best_of(fn, rounds=3):
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _pipelines(corpus, queries):
    """The two pipelines over one workload, warmed and checked equal."""
    index = InvertedIndex.build(corpus)
    per_query = list(queries)  # Query views, made outside the timed region

    def legacy():
        plans = [plan_query_scan(index, q, i, K) for i, q in enumerate(per_query)]
        return [topk_from_counts(plan.counts, K) for plan in plans]

    def batch():
        return plan_batch_scan(index, queries, K).results

    # Warm both paths (lazy int32 cache), check they agree, then time.
    for a, b in zip(legacy(), batch()):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.counts, b.counts)
        assert a.threshold == b.threshold
    return legacy, batch


def test_batch_pipeline_speedup(benchmark, emit):
    corpus, queries = _workload()
    legacy, batch = _pipelines(corpus, queries)
    legacy_s = _best_of(legacy)
    benchmark.pedantic(batch, rounds=3, iterations=1)  # pytest-benchmark record
    batch_s = _best_of(batch)

    heavy_legacy, heavy_batch = _pipelines(*_workload(heavy=True))
    heavy_legacy_s, heavy_batch_s = _best_of(heavy_legacy), _best_of(heavy_batch)

    engine = GenieEngine(config=GenieConfig(k=K)).fit(corpus)
    engine.query(queries)
    engine_s = _best_of(lambda: engine.query(queries))

    speedup = legacy_s / batch_s
    table = ResultTable(
        title="Micro: batch match pipeline vs per-query scans (wall-clock)",
        columns=["stage", "per_query_ms", "batch_ms", "speedup"],
        volatile=["per_query_ms", "batch_ms", "speedup"],
        notes=[
            f"fig9 OCR-style workload: m={M}, domain={DOMAIN}, "
            f"n={N_OBJECTS}, {N_QUERIES} queries, k={K}.",
            "per_query = plan_query_scan + topk_from_counts per query;"
            " batch = plan_batch_scan for the whole batch.",
            "engine row: full GenieEngine.query wall time on the same batch"
            " (transfers + launch simulation included), for scale.",
            "heavy buckets: the first row's shape, per function one bucket holds 60 % of"
            " the objects and another 20 % (the batch scan's long-list regime).",
        ],
    )
    table.add_row(
        stage="match+select pipeline",
        per_query_ms=legacy_s * 1e3,
        batch_ms=batch_s * 1e3,
        speedup=speedup,
    )
    table.add_row(
        stage="same, heavy buckets",
        per_query_ms=heavy_legacy_s * 1e3,
        batch_ms=heavy_batch_s * 1e3,
        speedup=heavy_legacy_s / heavy_batch_s,
    )
    table.add_row(stage="engine.query end-to-end", per_query_ms=None, batch_ms=engine_s * 1e3, speedup=None)
    emit(table)

    if os.environ.get("CI"):
        # Shared CI runners have wildly variable wall-clock; the recorded
        # table is still uploaded, but only a total inversion fails there.
        assert speedup >= 1.0, f"batch pipeline slower than per-query: {speedup:.2f}x"
    else:
        assert speedup >= 3.0, f"batch pipeline speedup regressed: {speedup:.2f}x"
