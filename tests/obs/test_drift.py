"""Tests for DriftTracker: relative error, skip rules, rolling window."""

import pytest

from repro.errors import ConfigError
from repro.obs import DriftTracker


class TestRecord:
    def test_relative_error(self):
        drift = DriftTracker()
        drift.record(predicted=1.2, observed=1.0)
        drift.record(predicted=0.5, observed=1.0)
        assert list(drift.errors) == [pytest.approx(0.2), pytest.approx(0.5)]
        assert drift.samples == 2

    def test_perfect_prediction_is_zero_error(self):
        drift = DriftTracker()
        drift.record(predicted=3.0, observed=3.0)
        assert drift.p50 == 0.0
        assert drift.p90 == 0.0

    def test_non_positive_observed_is_skipped_not_infinite(self):
        drift = DriftTracker()
        drift.record(predicted=1.0, observed=0.0)
        drift.record(predicted=1.0, observed=-2.0)
        drift.record(predicted=None, observed=1.0)
        drift.record(predicted=1.0, observed=None)
        assert len(drift) == 0
        assert drift.skipped == 4
        assert drift.p50 == 0.0  # empty window reports 0, not NaN


class TestWindow:
    def test_old_errors_age_out(self):
        drift = DriftTracker(window=2)
        drift.record(9.0, 1.0)   # error 8.0 — will age out
        drift.record(1.5, 1.0)   # error 0.5
        drift.record(1.5, 1.0)   # error 0.5
        assert drift.p90 == pytest.approx(0.5)
        assert drift.samples == 3  # lifetime count keeps going

    def test_rejects_bad_window(self):
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="window"):
                DriftTracker(window=bad)


class TestPercentiles:
    def test_nearest_rank(self):
        drift = DriftTracker()
        for predicted in (1.1, 1.2, 1.3, 1.4):
            drift.record(predicted, 1.0)
        assert drift.percentile(50.0) == pytest.approx(0.2)
        assert drift.percentile(100.0) == pytest.approx(0.4)
