"""ServeMetrics back-compat: the registry refactor must not move a key.

``ServeMetrics.snapshot()`` is the dashboard contract every earlier PR
exported; rebuilding it on ``MetricsRegistry`` primitives must keep each
legacy key present with the same type and meaning, merely *adding* the
new observability keys.
"""

import numpy as np

from repro.api import GenieSession
from repro.serve import BatchPolicy, GenieServer, ServeMetrics

LEGACY_KEYS = [
    "submitted", "completed", "rejected", "failed",
    "cache_hits", "cache_misses",
    "batches", "mean_batch_size", "batch_size_histogram",
    "swap_ins", "evictions", "busy_seconds",
    "sharded_batches", "routed_batches", "pruned_shard_fraction",
    "shard_busy_seconds", "shard_imbalance",
    "elapsed_seconds", "throughput_qps",
    "plan_cache_hits", "plan_cache_misses",
    "plan_cache_invalidations", "plan_cache_size",
    "delta_postings", "compactions",
    "latency_p50", "latency_p95", "latency_p99",
    "queue_time_p50", "queue_time_p95", "queue_time_p99",
]

NEW_KEYS = [
    "rejected_by_reason", "cost_drift_p50", "cost_drift_p90",
    "cost_drift_samples",
]


def _docs(n=24):
    words = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue",
             "red", "green", "warp", "batch", "queue", "cache", "merge", "scan"]
    rng = np.random.default_rng(0)
    return [" ".join(rng.choice(words, size=4, replace=False)) for _ in range(n)]


DOCS = _docs()


class TestSnapshotKeys:
    def test_every_legacy_key_survives_the_refactor(self):
        snapshot = ServeMetrics().snapshot()
        missing = [key for key in LEGACY_KEYS if key not in snapshot]
        assert not missing, f"legacy snapshot keys lost: {missing}"

    def test_new_observability_keys_present(self):
        snapshot = ServeMetrics().snapshot()
        for key in NEW_KEYS:
            assert key in snapshot, key
        assert snapshot["rejected_by_reason"] == {}
        assert snapshot["cost_drift_p50"] == 0.0

    def test_idle_metrics_values_match_the_seed_contract(self):
        snapshot = ServeMetrics().snapshot()
        assert snapshot["submitted"] == 0
        assert snapshot["batch_size_histogram"] == {}
        assert snapshot["throughput_qps"] == 0.0
        assert snapshot["latency_p50"] == 0.0


class TestServedSnapshotValues:
    def test_served_workload_populates_legacy_and_new_keys(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1.0),
                             cache_size=None)
        for query in DOCS[:8]:
            server.submit("tweets", query, k=3)
        server.drain()
        snapshot = server.metrics.snapshot()
        assert snapshot["submitted"] == 8
        assert snapshot["completed"] == 8
        assert snapshot["batches"] == 2
        assert snapshot["batch_size_histogram"] == {4: 2}
        assert snapshot["mean_batch_size"] == 4.0
        # Nothing prices a plan, so the drift keys are constant zeros.
        assert snapshot["cost_drift_samples"] == 0
        assert snapshot["cost_drift_p50"] == snapshot["cost_drift_p90"] == 0.0
        assert isinstance(snapshot["rejected_by_reason"], dict)
        server.close()

    def test_batch_histogram_is_the_bounded_primitive(self):
        metrics = ServeMetrics()
        assert metrics.batch_size_histogram.max_bins == 128
        for size in range(300):
            metrics.record_batch(size=size + 1, service_seconds=0.0,
                                 swap_ins=0, evictions=0)
        assert len(metrics.batch_size_histogram) == 128
        assert metrics.batch_size_histogram.count == 300
