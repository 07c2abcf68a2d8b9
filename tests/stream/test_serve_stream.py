"""Serving a mutating index: scoped cache invalidation + stream gauges."""

import numpy as np

from repro.api import GenieSession
from repro.serve import BatchPolicy, GenieServer
from repro.stream import StreamConfig

CORPUS_A = [[0, 1], [1, 2], [2, 3], [3, 4]]
CORPUS_B = [[10, 11], [11, 12], [12, 13]]

NO_COMPACT = StreamConfig(auto_compact=False)


def make_server():
    session = GenieSession()
    session.create_index(CORPUS_A, model="raw", name="a",
                         stream_config=NO_COMPACT)
    session.create_index(CORPUS_B, model="raw", name="b",
                         stream_config=NO_COMPACT)
    # FIFO dispatches each submit immediately, so every request's batch
    # (and its manifest gauge sample) lands before the next assertion.
    return GenieServer(session, policy=BatchPolicy.fifo())


class TestCacheInvalidation:
    def test_insert_drops_only_the_mutated_indexes_entries(self):
        server = make_server()
        server.submit("a", (1,), k=2)
        server.submit("b", (11,), k=2)
        assert server.metrics.cache_misses.value == 2
        server.session.index("a").insert([[1, 50]])
        # "a" re-executes (a stale hit would miss the new object);
        # "b" still answers from cache.
        fresh = server.submit("a", (1,), k=4)
        assert not fresh.metadata.cache_hit
        assert np.array_equal(fresh.result().ids, [0, 1, 4])
        warm = server.submit("b", (11,), k=2)
        assert warm.metadata.cache_hit
        server.close()

    def test_compaction_preserves_cached_answers(self):
        server = make_server()
        handle = server.session.index("a")
        handle.insert([[60]])
        first = server.submit("a", (60,), k=2)
        handle.compact()
        warm = server.submit("a", (60,), k=2)
        assert warm.metadata.cache_hit  # compaction changed no answer
        assert np.array_equal(warm.result().ids, first.result().ids)
        server.close()


class TestStreamGauges:
    def test_snapshot_reports_delta_postings_and_compactions(self):
        server = make_server()
        handle = server.session.index("a")
        handle.insert([[70, 71], [72]])
        server.submit("a", (70,), k=2)  # dispatch samples the manifest
        snapshot = server.metrics.snapshot()
        assert snapshot["delta_postings"] == 3
        assert snapshot["compactions"] == 0
        handle.compact()
        server.submit("a", (72,), k=2)
        snapshot = server.metrics.snapshot()
        assert snapshot["delta_postings"] == 0
        assert snapshot["compactions"] == 1
        server.close()

    def test_gauges_sum_across_mutated_indexes(self):
        server = make_server()
        server.session.index("a").insert([[70]])
        server.session.index("b").insert([[80, 81]])
        server.submit("a", (70,), k=2)
        server.submit("b", (80,), k=2)
        assert server.metrics.snapshot()["delta_postings"] == 3
        server.close()

    def test_snapshot_reports_plan_cache_size(self):
        server = make_server()
        snapshot = server.metrics.snapshot()
        assert snapshot["plan_cache_size"] == 0
        server.close()
