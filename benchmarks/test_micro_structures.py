"""Microbenchmarks of GENIE's core data structures (wall-clock, not simulated).

These measure the *Python implementation's* own speed with pytest-benchmark:
c-PQ updates, Robin Hood inserts, bit-packed counter ops, SPQ selection and
the vectorized engine path. They guard against performance regressions in
the reproduction itself.
"""

import numpy as np
import pytest

from repro.core.bitmap_counter import BitmapCounter
from repro.core.cpq import CountPriorityQueue
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.hash_table import RobinHoodHashTable
from repro.core.reference import topk_from_counts
from repro.core.spq_select import spq_topk
from repro.core.types import Corpus, Query
from repro.sa.edit_distance import edit_distance

RNG = np.random.default_rng(0)


def test_bitmap_counter_bulk_load(benchmark):
    bc = BitmapCounter(100_000, count_bound=255)
    counts = RNG.integers(0, 255, size=100_000)
    benchmark(bc.load_counts, counts)
    assert bc.get(0) == counts[0]


def test_cpq_reference_updates(benchmark):
    stream = RNG.integers(0, 2_000, size=5_000)

    def run():
        cpq = CountPriorityQueue(2_000, k=10, count_bound=31)
        for obj in stream:
            cpq.update(int(obj))
        return cpq

    cpq = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cpq.audit_threshold >= 1


def test_robin_hood_inserts(benchmark):
    keys = RNG.integers(0, 10_000, size=2_000)

    def run():
        ht = RobinHoodHashTable(4096)
        for i, key in enumerate(keys):
            ht.put(int(key), i % 32)
        return ht

    ht = benchmark.pedantic(run, rounds=3, iterations=1)
    assert ht.size > 0


def test_spq_selection(benchmark):
    counts = RNG.integers(0, 64, size=200_000)
    result, _ = benchmark(spq_topk, counts, 100)
    assert len(result) == 100


def test_vectorized_topk(benchmark):
    counts = RNG.integers(0, 64, size=200_000)
    result = benchmark(topk_from_counts, counts, 100)
    assert len(result) == 100


def test_engine_query_batch(benchmark):
    corpus = Corpus([RNG.integers(0, 500, size=16) for _ in range(5_000)])
    engine = GenieEngine(config=GenieConfig(k=10)).fit(corpus)
    queries = [Query.from_keywords(RNG.integers(0, 500, size=16)) for _ in range(32)]
    results = benchmark(engine.query, queries)
    assert len(results) == 32


def test_edit_distance_vectorized_dp(benchmark):
    a = "".join(RNG.choice(list("abcdefgh"), size=200))
    b = "".join(RNG.choice(list("abcdefgh"), size=200))
    d = benchmark(edit_distance, a, b)
    assert 0 < d <= 200
