"""Tests for the GPU-SPQ full-scan baseline."""

import numpy as np
import pytest

from paper.baselines.gpu_spq import GpuSpq
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus, Query
from repro.errors import GpuOutOfMemoryError, QueryError
from repro.gpu.device import Device
from repro.gpu.specs import small_device

CORPUS = Corpus([[i % 7, 7 + (i * 3) % 5] for i in range(40)])


class TestCorrectness:
    def test_matches_brute_force(self):
        baseline = GpuSpq(device=Device()).fit(CORPUS)
        query = Query.from_keywords([0, 7, 9])
        result = baseline.query([query], k=5)[0]
        expected = [(i, c) for i, c in brute_force_topk(query, CORPUS, 5) if c > 0]
        assert result.as_pairs() == expected

    def test_multiple_queries(self):
        baseline = GpuSpq(device=Device()).fit(CORPUS)
        queries = [Query.from_keywords([0]), Query.from_keywords([8])]
        results = baseline.query(queries, k=3)
        assert len(results) == 2
        assert all(len(r) > 0 for r in results)


class TestCostProfile:
    def test_scan_charges_grow_with_queries(self):
        baseline = GpuSpq(device=Device()).fit(CORPUS)
        baseline.query([Query.from_keywords([0])] * 2, k=3)
        two = baseline.last_profile.query_total()
        baseline.query([Query.from_keywords([0])] * 8, k=3)
        eight = baseline.last_profile.query_total()
        assert eight > two

    def test_batch_state_released(self):
        device = Device()
        baseline = GpuSpq(device=device).fit(CORPUS)
        used = device.memory.used
        baseline.query([Query.from_keywords([0])], k=3)
        assert device.memory.used == used


class TestLimits:
    def test_oom_on_large_batch_small_device(self):
        corpus = Corpus([[i % 10] for i in range(2000)])
        baseline = GpuSpq(device=Device(small_device(100_000))).fit(corpus)
        with pytest.raises(GpuOutOfMemoryError):
            baseline.query([Query.from_keywords([0])] * 16, k=3)

    def test_errors(self):
        with pytest.raises(QueryError):
            GpuSpq().query([Query.from_keywords([0])], k=1)
        baseline = GpuSpq(device=Device()).fit(CORPUS)
        with pytest.raises(QueryError):
            baseline.query([], k=1)
