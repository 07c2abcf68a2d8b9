"""End-to-end request tracing through GenieServer on the virtual clock.

The acceptance contract: a served request against a sharded, streamed
index exports a Chrome trace covering admission → queueing → planning →
per-shard scans → delta scans → merge, and the export is bit-identical
across repeated runs of the same seeded workload.
"""

import json

import numpy as np
import pytest

from repro.api import GenieSession
from repro.serve import BatchPolicy, GenieServer
from repro.stream import StreamConfig


def _docs(n=40):
    words = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue",
             "red", "green", "warp", "batch", "queue", "cache", "merge", "scan"]
    rng = np.random.default_rng(0)
    return [" ".join(rng.choice(words, size=4, replace=False)) for _ in range(n)]


DOCS = _docs()


def make_server(**kwargs):
    session = GenieSession()
    session.create_index(DOCS, model="document", name="tweets")
    kwargs.setdefault("cache_size", None)
    kwargs.setdefault("policy", BatchPolicy.fifo())
    return GenieServer(session, **kwargs)


def serve_streamed_sharded_workload():
    """One seeded workload: sharded + streamed index, traced end to end."""
    session = GenieSession()
    session.create_index(
        [[i, i + 1] for i in range(16)], model="raw", name="events",
        shards=2, stream_config=StreamConfig(auto_compact=False))
    session.index("events").insert([[3, 50], [7, 50]])
    session.index("events").delete([0])
    server = GenieServer(session, policy=BatchPolicy.fifo(),
                         cache_size=None, trace_sample=1)
    # Keywords live in both range shards (3 → shard 0, 12 → shard 1), so
    # the plan scans both and the trace shows two shard lanes.
    future = server.submit("events", (3, 12), k=4)
    server.drain()
    server.close()
    return server, future


class TestTracedSearch:
    def test_direct_search_trace_has_plan_and_scan(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        result = session.index("tweets").search([DOCS[0]], k=3, trace=True)
        assert result.trace is not None
        assert result.trace.name == "search"
        assert result.trace.find("plan") is not None
        assert result.trace.find("scan") is not None

    def test_untraced_search_has_no_trace(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        result = session.index("tweets").search([DOCS[0]], k=3)
        assert result.trace is None


class TestServedTraceShape:
    def test_request_trace_covers_the_request_lifecycle(self):
        server = make_server(trace_sample=1)
        future = server.submit("tweets", DOCS[0], k=3)
        server.drain()
        root = future.metadata.trace
        assert root is not None and root.name == "request"
        for stage in ("admit", "queue_wait", "batch"):
            assert root.find(stage) is not None, stage
        assert root.find("search") is not None  # execution subtree rode along
        assert root.find("plan").attrs["cache_hit"] is False
        server.close()

    def test_sharded_streamed_trace_covers_all_stages(self):
        server, future = serve_streamed_sharded_workload()
        root = future.metadata.trace
        names = {span.name for _, span in root.walk()}
        for stage in ("admit", "queue_wait", "batch", "plan",
                      "base_scan", "delta_scan", "tombstone_filter",
                      "merge"):
            assert stage in names, stage
        # Two shards scanned in parallel: distinct shard lanes.
        shards = {span.attrs["shard"] for _, span in root.walk()
                  if span.name == "base_scan"}
        assert shards == {0, 1}
        # Span tree is well-formed: children fit inside their parent.
        for _, span in root.walk():
            for child in span.children:
                assert child.start >= span.start - 1e-12
                assert child.end <= span.end + 1e-12

    def test_chrome_export_is_bit_identical_across_runs(self):
        server_a, _ = serve_streamed_sharded_workload()
        server_b, _ = serve_streamed_sharded_workload()
        text_a = server_a.tracer.export_chrome_trace()
        text_b = server_b.tracer.export_chrome_trace()
        assert text_a == text_b
        events = json.loads(text_a)["traceEvents"]
        assert {event["name"] for event in events} >= {
            "request", "admit", "queue_wait", "batch",
            "plan", "base_scan", "delta_scan", "merge"}

    def test_span_tree_is_deterministic_across_runs(self):
        server_a, future_a = serve_streamed_sharded_workload()
        server_b, future_b = serve_streamed_sharded_workload()
        assert future_a.metadata.trace.to_dict() == future_b.metadata.trace.to_dict()
        assert future_a.metadata.trace.render() == future_b.metadata.trace.render()

    def test_cache_hit_requests_get_a_short_trace(self):
        server = make_server(trace_sample=1, cache_size=8)
        server.submit("tweets", DOCS[0], k=3)
        server.drain()
        warm = server.submit("tweets", DOCS[0], k=3)
        root = warm.metadata.trace
        assert warm.metadata.cache_hit
        assert root.find("cache_lookup").attrs["hit"] is True
        assert root.find("batch") is None  # never queued or executed
        server.close()


class TestSampling:
    def test_one_in_n_traces_only_matching_seqs(self):
        server = make_server(trace_sample=3)
        futures = [server.submit("tweets", DOCS[i], k=2) for i in range(7)]
        server.drain()
        traced = [f.metadata.trace is not None for f in futures]
        assert traced == [True, False, False, True, False, False, True]
        assert server.tracer.total_traces == 3
        server.close()

    def test_unsampled_requests_allocate_no_spans(self):
        server = make_server(trace_sample=1000)
        server.submit("tweets", DOCS[0], k=2)  # seq 0: sampled
        futures = [server.submit("tweets", DOCS[i], k=2) for i in range(1, 5)]
        server.drain()
        for future in futures:
            assert future.metadata.trace is None
        assert server.tracer.total_traces == 1
        server.close()

    def test_tracing_disabled_by_default(self):
        server = make_server()
        future = server.submit("tweets", DOCS[0], k=2)
        server.drain()
        assert server.tracer is None
        assert future.metadata.trace is None
        assert server.snapshot()["traces"] == 0
        server.close()

    def test_snapshot_counts_recorded_traces(self):
        server = make_server(trace_sample=1)
        for i in range(3):
            server.submit("tweets", DOCS[i], k=2)
        server.drain()
        assert server.snapshot()["traces"] == 3
        server.close()


class TestCompactionSpans:
    def test_compaction_records_a_standalone_span(self):
        session = GenieSession()
        session.create_index(
            [[i, i + 1] for i in range(8)], model="raw", name="events",
            stream_config=StreamConfig(auto_compact=False))
        server = GenieServer(session, policy=BatchPolicy.fifo(),
                             cache_size=None, trace_sample=1)
        session.index("events").insert([[3, 90]])
        session.index("events").compact()
        spans = [span for span in server.tracer.traces
                 if span.name == "compaction"]
        assert len(spans) == 1
        assert "segments" not in spans[0].attrs  # one delta run: nothing to count
        assert (spans[0].attrs["postings"], spans[0].attrs["tombstones"]) == (2, 0)
        assert spans[0].duration > 0.0
        server.close()
