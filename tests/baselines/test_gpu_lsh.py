"""Tests for the bi-level GPU-LSH baseline."""

import numpy as np
import pytest

from paper.baselines.gpu_lsh import GpuLsh
from repro.errors import ConfigError, QueryError
from repro.gpu.device import Device


def _points(n=100, dim=8, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)) * 3


class TestSearch:
    def test_finds_exact_duplicate(self):
        points = _points()
        baseline = GpuLsh(num_tables=10, functions_per_table=4, width=8.0, device=Device()).fit(points)
        result = baseline.query(points[5][None, :], k=1)[0]
        assert int(result.ids[0]) == 5

    def test_results_sorted_by_true_distance(self):
        points = _points()
        baseline = GpuLsh(
            num_tables=20, functions_per_table=2, width=16.0, device=Device(), early_stop_factor=None
        ).fit(points)
        qp = points[0] + 0.01
        result = baseline.query(qp[None, :], k=5)[0]
        d = np.linalg.norm(points[result.ids] - qp[None, :], axis=1)
        assert (np.diff(d) >= -1e-12).all()

    def test_counts_are_table_hits(self):
        points = _points()
        baseline = GpuLsh(
            num_tables=10, functions_per_table=4, width=8.0, device=Device(), early_stop_factor=None
        ).fit(points)
        result = baseline.query(points[3][None, :], k=1)[0]
        # The duplicate collides in every table.
        assert int(result.counts[0]) == 10


class TestEarlyStop:
    def test_early_stop_limits_candidates(self):
        points = _points(n=500)
        eager = GpuLsh(
            num_tables=30, functions_per_table=2, width=24.0, device=Device(), early_stop_factor=None
        ).fit(points)
        lazy = GpuLsh(
            num_tables=30, functions_per_table=2, width=24.0, device=Device(), early_stop_factor=2
        ).fit(points)
        q = points[0]
        assert lazy.candidates_for(q, k=1).size <= eager.candidates_for(q, k=1).size


class TestResourceLimits:
    def test_constant_memory_limits_functions(self):
        with pytest.raises(ConfigError):
            GpuLsh(num_tables=2, functions_per_table=64, width=4.0, device=Device()).fit(
                _points(dim=1156)
            )

    def test_tables_consume_device_memory(self):
        device = Device()
        free_before = device.memory.free
        GpuLsh(num_tables=10, functions_per_table=2, width=8.0, device=device).fit(_points(n=1000))
        assert device.memory.free < free_before


class TestTimingShape:
    def test_flat_in_query_count_until_saturation(self):
        points = _points(n=300)
        baseline = GpuLsh(
            num_tables=10, functions_per_table=2, width=16.0, device=Device(), early_stop_factor=None
        ).fit(points)
        qp = np.tile(points[:10], (2, 1))
        baseline.query(qp[:8], k=3)
        small = baseline.last_profile.query_total()
        baseline.query(qp, k=3)
        large = baseline.last_profile.query_total()
        # 8 -> 20 queries still fits one warp wave: near-constant time.
        assert large < small * 2.5

    def test_errors(self):
        with pytest.raises(QueryError):
            GpuLsh(num_tables=2, functions_per_table=2, width=4.0).query(_points(n=1), k=1)
        with pytest.raises(ConfigError):
            GpuLsh(num_tables=0, functions_per_table=2, width=4.0)
