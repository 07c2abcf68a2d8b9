"""Tests for ServeMetrics: percentile bounds, zero-window throughput, shards."""

import numpy as np
import pytest

import repro.serve.metrics as metrics_mod
from repro.api import GenieSession
from repro.errors import AdmissionError, ConfigError, QueryError
from repro.serve import BatchPolicy, GenieServer, ServeMetrics, percentile_nearest_rank
from repro.stream import StreamConfig


def _docs(n=40):
    words = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue",
             "red", "green", "warp", "batch", "queue", "cache", "merge", "scan"]
    rng = np.random.default_rng(0)
    return [" ".join(rng.choice(words, size=4, replace=False)) for _ in range(n)]


DOCS = _docs()


def make_server(policy=None, **kwargs):
    session = GenieSession()
    session.create_index(DOCS, model="document", name="tweets")
    kwargs.setdefault("cache_size", None)
    return GenieServer(session, policy=policy, **kwargs)


class TestPercentileNearestRank:
    def test_nearest_rank_values(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile_nearest_rank(values, 25.0) == 1.0
        assert percentile_nearest_rank(values, 50.0) == 2.0
        assert percentile_nearest_rank(values, 75.0) == 3.0
        assert percentile_nearest_rank(values, 100.0) == 4.0

    def test_tiny_p_is_the_minimum_not_an_underflow(self):
        assert percentile_nearest_rank([5.0, 7.0, 9.0], 1e-9) == 5.0

    def test_empty_population_is_zero(self):
        assert percentile_nearest_rank([], 50.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, -1.0, -50.0, 100.0001, 200.0])
    def test_out_of_range_p_rejected(self, p):
        # p <= 0 used to be masked by a rank clamp (silently returning the
        # minimum) and p > 100 indexed past the population.
        with pytest.raises(ConfigError, match="percentile must be in"):
            percentile_nearest_rank([1.0, 2.0, 3.0], p)

    def test_out_of_range_p_rejected_even_for_empty_population(self):
        with pytest.raises(ConfigError, match="percentile must be in"):
            percentile_nearest_rank([], 200.0)


class TestLatencyWindow:
    def test_percentiles_cover_the_newest_completions_only(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "LATENCY_WINDOW", 4)
        metrics = ServeMetrics()
        for latency in (9.0, 9.0, 1.0, 2.0, 3.0, 4.0):
            metrics.record_completion(latency, latency / 2, latency)
        assert metrics.completed.value == 6  # the lifetime count
        assert len(metrics._latencies) == len(metrics._queue_times) == 4
        assert metrics.latency(100.0) == 4.0 and metrics.latency(25.0) == 1.0
        assert metrics.queue_time(100.0) == 2.0

    def test_samples_stay_bounded(self):
        metrics = ServeMetrics()
        for _ in range(metrics_mod.LATENCY_WINDOW + 10):
            metrics.record_completion(1.0, 0.0, 1.0)
        assert len(metrics._latencies) == metrics_mod.LATENCY_WINDOW


class TestZeroLengthWindow:
    def test_single_instant_completion_reports_zero_throughput(self):
        # One request admitted and completed at the same simulated instant:
        # the first_arrival -> last_completion window has zero length, and
        # the snapshot must report 0.0, not raise or return inf.
        metrics = ServeMetrics()
        metrics.record_arrival(5.0)
        metrics.record_completion(0.0, 0.0, 5.0)
        snap = metrics.snapshot()
        assert snap["completed"] == 1
        assert snap["throughput_qps"] == 0.0
        assert snap["elapsed_seconds"] == 0.0

    def test_empty_metrics_snapshot_is_all_zero(self):
        snap = ServeMetrics().snapshot()
        assert snap["throughput_qps"] == 0.0
        assert snap["latency_p50"] == 0.0

    def test_all_cache_hit_run_reports_zero_throughput(self):
        # Prime the cache, then reset the metrics so the only recorded
        # traffic is a cache hit answered at one instant.
        server = make_server(BatchPolicy.fifo(), cache_size=16)
        server.submit("tweets", DOCS[0], k=3)
        server.drain()
        server.metrics = ServeMetrics()
        future = server.submit("tweets", DOCS[0], k=3)
        assert future.metadata.cache_hit
        snap = server.snapshot()
        assert snap["completed"] == 1
        assert snap["throughput_qps"] == 0.0


class TestShardCounters:
    def test_shard_busy_accumulates_and_imbalance(self):
        metrics = ServeMetrics()
        metrics.record_batch(4, 3.0, 0, 0, shard_seconds=[3.0, 1.0])
        metrics.record_batch(4, 3.0, 0, 0, shard_seconds=[3.0, 1.0])
        assert metrics.shard_busy_seconds == {0: 6.0, 1: 2.0}
        assert metrics.sharded_batches.value == 2
        # max busy 6.0 over mean 4.0
        assert metrics.shard_imbalance == pytest.approx(1.5)

    def test_unsharded_batches_leave_shard_counters_empty(self):
        metrics = ServeMetrics()
        metrics.record_batch(4, 3.0, 1, 2)
        assert metrics.shard_busy_seconds == {}
        assert metrics.shard_imbalance == 0.0
        snap = metrics.snapshot()
        assert snap["sharded_batches"] == 0
        assert snap["shard_busy_seconds"] == {}


class TestRoutingCounters:
    def test_routed_batches_and_pruned_fraction(self):
        from repro.plan import RoutingSummary

        metrics = ServeMetrics()
        routed = RoutingSummary(n_shards=4, n_queries=2, scanned_pairs=2, pruned_pairs=6)
        broadcast = RoutingSummary(n_shards=4, n_queries=2, scanned_pairs=8, pruned_pairs=0)
        metrics.record_batch(2, 1.0, 0, 0, shard_seconds=[1.0, 0, 0, 0], routing=routed)
        metrics.record_batch(2, 1.0, 0, 0, shard_seconds=[1.0, 1.0, 1.0, 1.0], routing=broadcast)
        assert metrics.routed_batches.value == 1
        assert metrics.sharded_batches.value == 2
        # 6 of 16 (query, shard) scan pairs were avoided across both batches.
        assert metrics.pruned_shard_fraction == pytest.approx(6 / 16)
        snap = metrics.snapshot()
        assert snap["routed_batches"] == 1
        assert snap["pruned_shard_fraction"] == pytest.approx(6 / 16)

    def test_unsharded_batches_leave_routing_counters_zero(self):
        metrics = ServeMetrics()
        metrics.record_batch(4, 3.0, 0, 0)
        assert metrics.routed_batches.value == 0
        assert metrics.pruned_shard_fraction == 0.0
        snap = metrics.snapshot()
        assert snap["routed_batches"] == 0
        assert snap["pruned_shard_fraction"] == 0.0

    def test_served_routed_traffic_feeds_the_counters(self):
        # End to end: band-local single-query batches on a range-sharded
        # sorted table are routed (pruned shards); forcing broadcast on
        # the same server is not.
        session = GenieSession()
        age = np.sort(np.random.default_rng(3).uniform(18, 90, size=400))
        job = np.random.default_rng(4).integers(0, 3, size=400)
        from repro.sa.relational import AttributeSpec

        session.create_index(
            {"age": age, "job": job}, model="relational",
            schema=[AttributeSpec("age", "numeric", bins=16),
                    AttributeSpec("job", "categorical")],
            name="adult", shards=4,
        )
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        server.submit("adult", {"age": (20.0, 22.0)}, k=3)
        server.submit("adult", {"age": (21.0, 23.0)}, k=3, route="broadcast")
        server.drain()
        snap = server.snapshot()
        assert snap["sharded_batches"] == 2
        assert snap["routed_batches"] == 1
        assert 0.0 < snap["pruned_shard_fraction"] < 1.0


class TestRejectedByReason:
    def test_queue_full_counts_under_its_reason(self):
        server = make_server(BatchPolicy.micro(max_batch=10, max_wait=100.0),
                             max_queue_depth=2)
        server.submit("tweets", DOCS[0], k=2)
        server.submit("tweets", DOCS[1], k=2)
        with pytest.raises(AdmissionError):
            server.submit("tweets", DOCS[2], k=2)
        assert server.metrics.rejected.value == 1  # legacy queue-full counter
        assert server.metrics.rejected_by_reason == {"queue_full": 1}
        server.drain()
        server.close()

    def test_bad_directive_and_closed_reasons(self):
        server = make_server()
        with pytest.raises(QueryError):
            server.submit("tweets", DOCS[0], k=0)
        with pytest.raises(ConfigError):
            server.submit("nope", DOCS[0], k=2)
        server.close()
        with pytest.raises(ConfigError, match="closed"):
            server.submit("tweets", DOCS[0], k=2)
        snap = server.snapshot()
        assert snap["rejected_by_reason"] == {"bad_directive": 2, "closed": 1}
        # Validation rejections never inflated the queue-full counter.
        assert snap["rejected"] == 0

    def test_burst_rejection_counts_every_request(self):
        server = make_server(BatchPolicy.micro(max_batch=10, max_wait=100.0),
                             max_queue_depth=3)
        with pytest.raises(AdmissionError):
            server.submit_many("tweets", DOCS[:5], k=2)
        assert server.metrics.rejected_by_reason == {"queue_full": 5}
        server.close()

    def test_a_refused_burst_counts_every_request_under_its_reason(self):
        server = make_server(BatchPolicy.micro(max_batch=10, max_wait=100.0))
        with pytest.raises(QueryError):
            server.submit_many("tweets", DOCS[:2] + ["zzzz qqqq"], k=2)
        server.close()
        with pytest.raises(ConfigError, match="closed"):
            server.submit_many("tweets", DOCS[:2], k=2)
        with pytest.raises(ConfigError, match="closed"):
            server.submit_many("tweets", [], k=2)  # an empty burst refuses nothing
        assert server.metrics.rejected_by_reason == {"bad_directive": 3, "closed": 2}
        assert server.snapshot()["submitted"] == 0


class TestRollingShardWindow:
    def test_empty_window_reports_balance(self):
        metrics = ServeMetrics()
        assert metrics.rolling_window_batches == 0
        assert metrics.rolling_shard_imbalance == 0.0
        assert metrics.rolling_shard_seconds() == []

    def test_window_sums_per_position(self):
        metrics = ServeMetrics()
        metrics.record_batch(1, 3.0, 0, 0, shard_seconds=[1.0, 2.0])
        metrics.record_batch(1, 5.0, 0, 0, shard_seconds=[4.0, 1.0])
        assert metrics.rolling_window_batches == 2
        assert metrics.rolling_shard_seconds() == [5.0, 3.0]
        assert metrics.rolling_shard_imbalance == pytest.approx(5.0 / 4.0)

    def test_unsharded_batches_stay_out_of_the_window(self):
        metrics = ServeMetrics()
        metrics.record_batch(1, 1.0, 0, 0)
        assert metrics.rolling_window_batches == 0

    def test_window_evicts_oldest_batches(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "ROLLING_SHARD_WINDOW", 2)
        metrics = ServeMetrics()
        metrics.record_batch(1, 9.0, 0, 0, shard_seconds=[9.0, 0.0])
        metrics.record_batch(1, 2.0, 0, 0, shard_seconds=[1.0, 1.0])
        metrics.record_batch(1, 2.0, 0, 0, shard_seconds=[1.0, 1.0])
        # the skewed first batch has rolled out
        assert metrics.rolling_shard_seconds() == [2.0, 2.0]
        assert metrics.rolling_shard_imbalance == pytest.approx(1.0)

    def test_rolling_differs_from_lifetime_imbalance(self, monkeypatch):
        monkeypatch.setattr(metrics_mod, "ROLLING_SHARD_WINDOW", 2)
        metrics = ServeMetrics()
        metrics.record_batch(1, 9.0, 0, 0, shard_seconds=[9.0, 0.0])
        for _ in range(2):
            metrics.record_batch(1, 2.0, 0, 0, shard_seconds=[1.0, 1.0])
        # lifetime counters remember the skew; the window has moved on
        assert metrics.shard_imbalance > metrics.rolling_shard_imbalance

    def test_ragged_vectors_pad_with_zero(self):
        metrics = ServeMetrics()
        metrics.record_batch(1, 1.0, 0, 0, shard_seconds=[1.0])
        metrics.record_batch(1, 2.0, 0, 0, shard_seconds=[1.0, 1.0])
        assert metrics.rolling_shard_seconds() == [2.0, 1.0]

    def test_reset_rolling_shards_clears_only_the_window(self):
        metrics = ServeMetrics()
        metrics.record_batch(1, 3.0, 0, 0, shard_seconds=[2.0, 1.0])
        metrics.reset_rolling_shards()
        assert metrics.rolling_window_batches == 0
        assert metrics.rolling_shard_seconds() == []
        assert metrics.sharded_batches.value == 1  # lifetime counters survive

    def test_snapshot_exposes_rolling_gauges(self):
        metrics = ServeMetrics()
        metrics.record_batch(1, 3.0, 0, 0, shard_seconds=[2.0, 1.0])
        snap = metrics.snapshot()
        assert snap["rolling_window_batches"] == 1
        assert snap["rolling_shard_imbalance"] == pytest.approx(4.0 / 3.0)
        assert snap["replica_failovers"] == 0
        assert snap["replica_rebalances"] == 0
        assert snap["replica_re_replications"] == 0


class TestStreamGauges:
    def test_record_stream_keeps_the_latest_gauge(self):
        metrics = ServeMetrics()
        metrics.record_stream("a", delta_postings=7, compactions=1)
        metrics.record_stream("a", delta_postings=2, compactions=2)
        metrics.record_stream("b", delta_postings=3, compactions=0)
        snap = metrics.snapshot()
        assert snap["delta_postings"] == 5
        assert snap["compactions"] == 2

    def test_drop_forgets_the_gauge(self):
        metrics = ServeMetrics()
        metrics.record_stream("a", delta_postings=7, compactions=1)
        metrics.record_drop("a")
        assert metrics.delta_postings == {} and metrics.compactions == {}
        assert metrics.snapshot()["delta_postings"] == 0

    def test_drop_keeps_compactions_in_the_lifetime_total(self):
        metrics = ServeMetrics()
        metrics.record_stream("a", delta_postings=0, compactions=2)
        metrics.record_drop("a")
        assert metrics.snapshot()["compactions"] == 2

    def test_reused_name_adds_to_its_predecessor(self):
        metrics = ServeMetrics()
        metrics.record_stream("a", delta_postings=1, compactions=1)
        metrics.record_drop("a")
        metrics.record_stream("a", delta_postings=4, compactions=1)
        snap = metrics.snapshot()
        assert snap["compactions"] == 2
        assert snap["delta_postings"] == 4

    def test_dropping_an_unrecorded_index_is_a_no_op(self):
        metrics = ServeMetrics()
        metrics.record_stream("a", delta_postings=3, compactions=1)
        metrics.record_drop("never-served")
        snap = metrics.snapshot()
        assert (snap["delta_postings"], snap["compactions"]) == (3, 1)

    def test_server_drop_retires_the_served_index(self):
        session = GenieSession()
        objects = [[i % 8, 8 + i % 5] for i in range(24)]
        handle = session.create_index(objects, model="raw", name="live",
                                      stream_config=StreamConfig(auto_compact=False))
        server = GenieServer(session, cache_size=None)
        handle.insert([[1, 20]])
        assert handle.compact()
        handle.insert([[21, 22]])
        server.submit("live", [1, 21], k=2)
        server.drain()
        before = server.snapshot()
        assert before["delta_postings"] > 0 and before["compactions"] == 1
        session.drop("live")
        after = server.snapshot()
        assert after["delta_postings"] == 0
        assert after["compactions"] == 1
        assert "live" not in server.metrics.delta_postings
        session.close()
