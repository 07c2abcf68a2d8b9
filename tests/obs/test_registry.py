"""Tests for the typed metric primitives in repro.obs.registry."""

import pytest

from repro.errors import ConfigError
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("hits")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_value_is_settable_for_legacy_augmented_assignment(self):
        # ``value`` is a plain attribute: augmented assignment works too.
        counter = Counter("rejected")
        counter.value += 3
        assert counter.value == 3


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("depth")
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2


class TestHistogram:
    def test_exact_until_max_bins(self):
        hist = Histogram("sizes", max_bins=4)
        for value in (1, 2, 3, 1):
            hist.observe(value)
        assert hist.as_dict() == {1: 2, 2: 1, 3: 1}
        assert hist.clamped == 0

    def test_clamps_new_values_to_nearest_bin_once_full(self):
        # Regression for unbounded cardinality: with max_bins distinct
        # values seen, a novel value must fold into the nearest existing
        # bin instead of growing the dict.
        hist = Histogram("sizes", max_bins=3)
        for value in (10, 20, 30):
            hist.observe(value)
        hist.observe(21)  # nearest is 20
        hist.observe(25)  # equidistant 20/30: ties go to the lower bin
        hist.observe(1000)  # clamps to 30
        assert set(hist.as_dict()) == {10, 20, 30}
        assert hist.as_dict()[20] == 3
        assert hist.as_dict()[30] == 2
        assert hist.clamped == 3

    def test_mean_stays_exact_despite_clamping(self):
        hist = Histogram("sizes", max_bins=2)
        for value in (1, 3, 100):
            hist.observe(value)
        # 100 clamped into a bin, but total/count accumulate raw values.
        assert hist.mean == pytest.approx((1 + 3 + 100) / 3)
        assert hist.count == 3
        assert len(hist) == 2

    def test_percentile_uses_bin_values(self):
        hist = Histogram("sizes")
        for value in (1, 2, 2, 8):
            hist.observe(value)
        assert hist.percentile(50.0) == 2
        assert hist.percentile(100.0) == 8

    def test_rejects_bad_max_bins(self):
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="max_bins"):
                Histogram("sizes", max_bins=bad)


class TestMetricsRegistry:
    def test_snapshot_in_registration_order(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a").set(1.5)
        registry.histogram("h").observe(3)
        snap = registry.snapshot()
        assert list(snap) == ["b", "a", "h"]
        assert snap == {"b": 0, "a": 1.5, "h": {3: 1}}

    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigError, match="already registered"):
            registry.gauge("x")

    def test_get_returns_the_live_instrument(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        registry.get("x").inc()
        assert counter.value == 1
