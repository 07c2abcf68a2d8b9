"""Tests for the experiment helpers (setup builders, distance reporting)."""

import numpy as np
import pytest

from repro.core.types import TopKResult
from repro.datasets.synthetic import make_ocr_like, make_sift_like
from repro.errors import GpuOutOfMemoryError
from repro.experiments.common import fit_genie_ocr, fit_genie_sift, genie_batch_seconds, reported_distances
from repro.experiments.suite import _oom_guard, systems_for


class TestFitHelpers:
    def test_sift_setup_queries(self):
        dataset = make_sift_like(n=300, n_queries=10, seed=0)
        setup = fit_genie_sift(dataset, m=16, k=3)
        seconds = genie_batch_seconds(setup, dataset.queries[:4], k=3)
        assert seconds > 0

    def test_ocr_setup_uses_rbh(self):
        dataset = make_ocr_like(n=200, n_queries=10, dim=16, seed=0)
        setup = fit_genie_ocr(dataset, m=8, k=3)
        results = setup.handle.search(dataset.queries[:2], k=3).results
        assert len(results) == 2


class TestReportedDistances:
    def _dataset(self):
        return make_sift_like(n=20, n_queries=2, dim=4, seed=1)

    def test_distances_sorted_per_row(self):
        dataset = self._dataset()
        results = [
            TopKResult(ids=[0, 1, 2], counts=[3, 2, 1]),
            TopKResult(ids=[5, 6, 7], counts=[3, 2, 1]),
        ]
        out = reported_distances(dataset, dataset.queries, results)
        assert out.shape == (2, 3)
        assert (np.diff(out, axis=1) >= -1e-12).all()

    def test_short_rows_padded_with_worst(self):
        dataset = self._dataset()
        results = [
            TopKResult(ids=[0, 1, 2], counts=[3, 2, 1]),
            TopKResult(ids=[5], counts=[3]),
        ]
        out = reported_distances(dataset, dataset.queries, results)
        assert out[1, 1] == out[1, 0]

    def test_empty_result_row_is_inf(self):
        dataset = self._dataset()
        results = [
            TopKResult(ids=[0], counts=[1]),
            TopKResult(ids=np.empty(0, dtype=np.int64), counts=np.empty(0, dtype=np.int64)),
        ]
        out = reported_distances(dataset, dataset.queries, results)
        assert np.isinf(out[1]).all()


class TestSuite:
    def test_oom_guard_converts_to_nan(self):
        def explode():
            raise GpuOutOfMemoryError(1, 0, 0)

        assert np.isnan(_oom_guard(explode))
        assert _oom_guard(lambda: 5.0) == 5.0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            systems_for("imagenet")

    def test_all_fig9_panels_build(self):
        for name in ("tweets", "adult"):
            runners = systems_for(name, n=400)
            assert "GENIE" in runners
            assert all(callable(r) for r in runners.values())
