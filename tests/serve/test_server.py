"""Tests for GenieServer: futures, admission, timing, drain/close."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.errors import AdmissionError, ConfigError, QueryError
from repro.plan import LruCache
from repro.serve import BatchPolicy, GenieServer, VirtualClock


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


class TestSubmission:
    def test_fifo_submit_resolves_immediately(self):
        server = make_server(BatchPolicy.fifo())
        future = server.submit("tweets", DOCS[0], k=3)
        assert future.done()
        assert future.metadata.batch_size == 1
        assert len(future.result()) == 3

    def test_served_results_identical_to_direct_search(self):
        server = make_server(BatchPolicy.micro(max_batch=4, max_wait=1.0))
        queries = DOCS[:6]
        futures = [server.submit("tweets", q, k=5) for q in queries]
        server.drain()
        direct = server.session.index("tweets").search(queries, k=5)
        for future, expected in zip(futures, direct.results):
            assert np.array_equal(future.result().ids, expected.ids)
            assert np.array_equal(future.result().counts, expected.counts)

    def test_micro_future_pending_until_batch_fires(self):
        server = make_server(BatchPolicy.micro(max_batch=3, max_wait=100.0))
        futures = [server.submit("tweets", DOCS[i], k=2) for i in range(2)]
        assert not any(f.done() for f in futures)
        with pytest.raises(QueryError, match="not completed"):
            futures[0].result()
        futures.append(server.submit("tweets", DOCS[2], k=2))  # 3rd fills the batch
        assert all(f.done() for f in futures)
        assert {f.metadata.batch_size for f in futures} == {3}

    def test_submit_many_shares_one_batch(self):
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=100.0))
        futures = server.submit_many("tweets", DOCS[:5], k=2)
        server.drain()
        assert {f.metadata.batch_size for f in futures} == {5}

    def test_unknown_index_rejected(self):
        server = make_server()
        with pytest.raises(ConfigError, match="no index named"):
            server.submit("nope", DOCS[0])

    @pytest.mark.parametrize("k", [0, float("nan"), float("inf"), 1.5, True, "3"])
    def test_bad_k_rejected(self, k):
        server = make_server()
        with pytest.raises(QueryError, match="k must be"):
            server.submit("tweets", DOCS[0], k=k)
        with pytest.raises(QueryError, match="k must be"):
            server.submit_many("tweets", DOCS[:2], k=k)
        assert server.snapshot()["rejected_by_reason"]["bad_directive"] == 3

    def test_unknown_option_rejected_at_submit(self):
        server = make_server()
        with pytest.raises(QueryError):
            server.submit("tweets", DOCS[0], k=2, n_candidates=8)

    def test_malformed_query_rejected_at_submit(self):
        # Unknown words fail admission, not someone else's coalesced batch.
        server = make_server(BatchPolicy.micro(max_batch=4, max_wait=100.0))
        with pytest.raises(QueryError, match="no indexed words"):
            server.submit("tweets", "zzzz qqqq")
        assert server.depth == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_rejected_at_submit(self, bad):
        """A NaN/inf query fails its own submit with the model's QueryError;
        lane-mates already queued still resolve (nothing hangs)."""
        session = GenieSession()
        points = np.random.default_rng(0).standard_normal((40, 8))
        session.create_index(points, model="ann-e2lsh", name="pts",
                             num_functions=8, dim=8, width=4.0)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=100.0),
                             cache_size=None)
        queued = server.submit("pts", points[0], k=2)
        poisoned = points[1].copy()
        poisoned[3] = bad
        with pytest.raises(QueryError, match="non-finite coordinate"):
            server.submit("pts", poisoned, k=2)
        assert server.depth == 1
        assert server.snapshot()["rejected_by_reason"]["bad_directive"] == 1
        server.drain()
        assert queued.done() and int(queued.result().ids[0]) == 0

    @pytest.mark.parametrize(
        "index, bad, message",
        [
            ("adult", {"age": 30}, "query 0, attribute 'age'"),
            ("adult", {"age": ("x", 40)}, "query 0, attribute 'age'"),
            ("adult", {"age": (20, 30, 40)}, "query 0, attribute 'age'"),
            ("adult", {"age": (None, 40)}, "query 0, attribute 'age'"),
            ("adult", {"age": (20, np.nan)}, "query 0, attribute 'age'"),
            ("adult", {"job": (0, None)}, "query 0, attribute 'job'"),
            ("adult", [("age", (20, 40))], "query 0: expected an"),
            ("adult", "age", "query 0: expected an"),
            ("tweets", None, "query 0: a document query is a str"),
            ("tweets", 42, "query 0: a document query is a str"),
            ("tweets", b"gpu index", "query 0: a document query is a str"),
        ],
    )
    def test_malformed_raw_query_is_a_query_error_at_submit(self, index, bad, message, recwarn):
        """A malformed relational range or document fails its own submit with a
        QueryError naming the query (and attribute), counted as bad_directive;
        the queue is untouched and a queued lane-mate still resolves."""
        from repro.sa.relational import AttributeSpec

        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        session.create_index(
            {"age": np.array([20.0, 35.0, 50.0]), "job": np.array([0, 1, 0])}, model="relational",
            schema=[AttributeSpec("age", bins=8), AttributeSpec("job", "categorical")], name="adult",
        )
        good = {"tweets": DOCS[0], "adult": {"age": (30.0, 60.0)}}[index]
        with pytest.raises(QueryError, match=message):
            session.index(index).search([bad], k=2)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=100.0),
                             cache_size=None)
        queued = server.submit(index, good, k=2)
        with pytest.raises(QueryError, match=message):
            server.submit(index, bad, k=2)
        assert server.depth == 1
        assert server.snapshot()["rejected_by_reason"]["bad_directive"] == 1
        server.drain()
        assert queued.done() and len(queued.result()) > 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_default_k_comes_from_index_config(self):
        server = make_server(BatchPolicy.fifo())
        future = server.submit("tweets", DOCS[0])
        assert future.metadata.k == server.session.index("tweets").config.k


def _count_encodes(server, index):
    """Wrap ``index``'s ``encode_queries``; returns the list of burst sizes it saw."""
    handle = server.session.index(index)
    calls, encode = [], handle.encode_queries

    def counted(raws):
        calls.append(len(raws))
        return encode(raws)

    handle.encode_queries = counted
    return calls


class TestOneWayIn:
    def test_a_burst_is_encoded_once(self):
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=100.0))
        calls = _count_encodes(server, "tweets")
        server.submit_many("tweets", DOCS[:5], k=2)
        server.submit("tweets", DOCS[5], k=2)
        assert calls == [5, 1]

    @pytest.mark.parametrize("cache_size", [None, 4])
    def test_a_fifo_burst_is_its_requests_submitted_one_by_one(self, cache_size):
        def run(admit):
            session = GenieSession()
            session.create_index(DOCS, model="document", name="a")
            server = GenieServer(session, policy=BatchPolicy.fifo(),
                                 cache_size=cache_size, trace_sample=2)
            futures = []
            for start in (0, 2, 4, 6):  # overlapping bursts: repeats hit the cache
                server.advance(1e-6)
                futures += admit(server, DOCS[start:start + 4])
            answers = [(f.result().ids.tolist(), f.metadata.seq, f.metadata.completed,
                        f.metadata.cache_hit) for f in futures]
            traces = sorted((span.to_dict() for span in server.tracer.traces),
                            key=lambda span: span["attrs"]["seq"])
            return answers, server.snapshot(), traces

        one_by_one = run(lambda server, docs: [server.submit("a", doc, k=3) for doc in docs])
        burst = run(lambda server, docs: server.submit_many("a", docs, k=3))
        assert one_by_one == burst

    def test_served_fifo_matches_micro_batching_of_one(self):
        def run(policy):
            session = GenieSession()
            session.create_index(DOCS, model="document", name="a")
            session.create_index(DOCS[::-1], model="document", name="b")
            server = GenieServer(session, policy=policy, cache_size=8)
            for i, doc in enumerate(DOCS[:12] * 2):
                server.advance(1e-6)
                server.submit("ab"[i % 2], doc, k=3)
            server.submit_many("a", DOCS[20:24], k=3)
            server.drain()
            return server.snapshot()

        fifo = run(BatchPolicy.fifo())
        assert fifo == run(BatchPolicy.micro(max_batch=1, max_wait=0.0))
        assert fifo["policy"] == {"max_batch": 1, "max_wait": 0.0}
        assert fifo["batch_size_histogram"] == {1: fifo["batches"]}
        assert fifo["queue_depth"] == 0

    def test_fifo_answers_indexes_in_global_arrival_order(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="a")
        session.create_index(DOCS[::-1], model="document", name="b")
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        # Every arrival is at t=0, so admission order breaks the ties.
        futures = [server.submit("ab"[i % 2], doc, k=3) for i, doc in enumerate(DOCS[:6])]
        futures += server.submit_many("b", DOCS[6:9], k=3)
        futures.append(server.submit("a", DOCS[9], k=3))
        assert [f.metadata.seq for f in futures] == list(range(10))
        assert all(f.metadata.arrival == 0.0 and f.metadata.batch_size == 1 for f in futures)
        starts = [f.metadata.started for f in futures]
        assert starts == sorted(set(starts))

    def test_a_due_burst_shares_batches(self):
        server = make_server(BatchPolicy.micro(max_batch=4, max_wait=0.0))
        futures = server.submit_many("tweets", DOCS[:6], k=2)
        assert all(f.done() for f in futures)
        assert [f.metadata.batch_size for f in futures] == [4, 4, 4, 4, 2, 2]

    def test_a_malformed_member_refuses_the_whole_burst(self):
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=100.0))
        with pytest.raises(QueryError, match="no indexed words"):
            server.submit_many("tweets", [DOCS[0], "zzzz qqqq", DOCS[1]], k=2)
        assert server.depth == 0
        assert server.snapshot()["submitted"] == 0

    def test_burst_hits_need_no_queue_slot(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0),
                             max_queue_depth=1, cache_size=8)
        for doc in DOCS[:2]:
            server.submit("tweets", doc, k=3)
            server.drain()
        server.submit("tweets", DOCS[2], k=3)  # fills the queue
        hits = server.submit_many("tweets", DOCS[:2], k=3)
        assert all(f.done() and f.metadata.cache_hit for f in hits)
        assert server.depth == 1

    def test_burst_misses_must_fit_together(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0),
                             max_queue_depth=2, cache_size=8)
        server.submit("tweets", DOCS[0], k=3)
        server.drain()
        server.submit("tweets", DOCS[5], k=3)  # one slot left
        before = server.snapshot()
        with pytest.raises(AdmissionError):
            server.submit_many("tweets", DOCS[:3], k=3)  # one hit, two misses
        after = server.snapshot()
        # A refused burst serves nothing, so no cache counter moves.
        for key in ("cache_hits", "cache_misses", "cache"):
            assert after[key] == before[key]
        hit, miss = server.submit_many("tweets", DOCS[:2], k=3)  # one hit, one miss
        assert hit.metadata.cache_hit and not miss.done()
        snap = server.snapshot()
        assert snap["rejected"] == 3 and snap["submitted"] == 4 and server.depth == 2

    def test_results_and_plans_share_one_lru(self):
        server = make_server(cache_size=4)
        assert type(server.cache) is type(server.session.plan_cache) is LruCache
        assert server.snapshot()["cache"] == {
            "capacity": 4, "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
            "invalidations": 0,
        }


class TestAdmissionControl:
    def test_queue_full_raises_admission_error(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0),
                             max_queue_depth=2)
        server.submit("tweets", DOCS[0], k=2)
        server.submit("tweets", DOCS[1], k=2)
        with pytest.raises(AdmissionError, match="queue is full"):
            server.submit("tweets", DOCS[2], k=2)
        assert server.snapshot()["rejected"] == 1
        server.drain()  # queued requests still complete

    def test_submit_many_is_all_or_nothing(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0),
                             max_queue_depth=3)
        with pytest.raises(AdmissionError):
            server.submit_many("tweets", DOCS[:5], k=2)
        assert server.depth == 0
        assert server.snapshot()["rejected"] == 5

    def test_depth_drops_after_dispatch(self):
        server = make_server(BatchPolicy.micro(max_batch=2, max_wait=100.0),
                             max_queue_depth=2)
        server.submit("tweets", DOCS[0], k=2)
        server.submit("tweets", DOCS[1], k=2)  # fills the batch -> dispatched
        assert server.depth == 0
        server.submit("tweets", DOCS[2], k=2)  # queue has room again

    def test_bad_queue_depth_rejected(self):
        session = GenieSession()
        for depth in (0, float("nan"), 2.5):
            with pytest.raises(ConfigError, match="max_queue_depth"):
                GenieServer(session, max_queue_depth=depth)


class TestVirtualTime:
    def test_queue_time_measured_to_wait_deadline(self):
        clock = VirtualClock()
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=0.5), clock=clock)
        future = server.submit("tweets", DOCS[0], k=2)
        server.advance(2.0)  # deadline at 0.5 fires during the advance
        assert future.done()
        assert future.metadata.dispatched == 0.5
        assert future.metadata.queue_time == 0.5
        assert clock.now() == 2.0

    def test_deadlines_fire_in_order_during_advance(self):
        clock = VirtualClock()
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=0.5), clock=clock)
        first = server.submit("tweets", DOCS[0], k=2)
        clock.advance(0.3)
        second = server.submit("tweets", DOCS[1], k=2)
        server.advance(10.0)
        # Both rode the batch fired at the *first* request's deadline.
        assert first.metadata.dispatched == 0.5
        assert second.metadata.dispatched == 0.5
        assert second.metadata.queue_time == pytest.approx(0.2)

    def test_device_serializes_batches(self):
        server = make_server(BatchPolicy.fifo())
        a = server.submit("tweets", DOCS[0], k=2)
        b = server.submit("tweets", DOCS[1], k=2)
        # Both dispatched at t=0, but the device runs them back to back.
        assert a.metadata.started == 0.0
        assert b.metadata.started == a.metadata.completed
        assert b.metadata.completed > a.metadata.completed

    def test_latency_decomposes(self):
        server = make_server(BatchPolicy.micro(max_batch=2, max_wait=100.0))
        a = server.submit("tweets", DOCS[0], k=2)
        server.submit("tweets", DOCS[1], k=2)
        meta = a.metadata
        assert meta.latency == pytest.approx(
            meta.queue_time + (meta.started - meta.dispatched) + meta.service_time
        )

    def test_a_nan_advance_is_refused_before_anything_dispatches(self):
        clock = VirtualClock()
        server = make_server(BatchPolicy.micro(max_batch=8, max_wait=0.5), clock=clock)
        future = server.submit("tweets", DOCS[0], k=2)
        # The clock first: a server advancing to NaN would spin if it accepted it.
        for advance in (clock.advance, clock.advance_to, server.advance, server.advance_to):
            with pytest.raises(ConfigError, match="(?i)nan"):
                advance(float("nan"))
        assert clock.now() == 0.0 and not future.done()
        server.advance(1.0)
        assert future.done() and future.metadata.dispatched == 0.5

    def test_profile_share_splits_batch_profile(self):
        server = make_server(BatchPolicy.micro(max_batch=2, max_wait=100.0))
        a = server.submit("tweets", DOCS[0], k=2)
        server.submit("tweets", DOCS[1], k=2)
        share = a.metadata.profile_share()
        assert share.total == pytest.approx(a.metadata.profile.total / 2)


class TestLifecycle:
    def test_close_drains_and_refuses(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0))
        future = server.submit("tweets", DOCS[0], k=2)
        server.close()
        assert future.done()
        assert server.closed
        with pytest.raises(ConfigError, match="server is closed"):
            server.submit("tweets", DOCS[1], k=2)

    def test_close_is_idempotent(self):
        server = make_server()
        server.close()
        server.close()
        assert server.closed

    def test_context_manager_closes(self):
        with make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0)) as server:
            future = server.submit("tweets", DOCS[0], k=2)
        assert server.closed
        assert future.done()

    def test_index_dropped_while_queued_fails_futures_gracefully(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0))
        future = server.submit("tweets", DOCS[0], k=2)
        server.session.drop("tweets")
        server.drain()  # must not raise
        assert future.done()
        with pytest.raises(ConfigError, match="no index named"):
            future.result()
        assert server.snapshot()["failed"] == 1

    def test_close_after_failing_batch_leaves_server_closed(self):
        # A non-ReproError escaping a batch during close()'s drain must
        # not leave the server open and admitting requests: the closed
        # flag is set before the drain.
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0))
        future = server.submit("tweets", DOCS[0], k=2)

        def explode(*args, **kwargs):
            raise RuntimeError("batch blew up")

        server.session.index("tweets").search_encoded = explode
        with pytest.raises(RuntimeError, match="batch blew up"):
            server.close()
        assert server.closed
        with pytest.raises(ConfigError, match="server is closed"):
            server.submit("tweets", DOCS[1], k=2)
        # The popped request's future is failed, never stranded pending.
        assert future.done()
        with pytest.raises(RuntimeError, match="batch blew up"):
            future.result()
        assert server.snapshot()["failed"] == 1

    def test_failing_batch_never_strands_sibling_batches(self):
        # A dispatch pass pops every ready batch eagerly; if one raises a
        # non-ReproError, sibling batches can no longer be retried (they
        # are no longer queued), so their futures must fail too.
        session = GenieSession()
        session.create_index(DOCS[:20], model="document", name="a")
        session.create_index(DOCS[20:], model="document", name="b")
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=64, max_wait=100.0),
                             cache_size=None)
        futures = [server.submit("a", DOCS[0], k=2), server.submit("b", DOCS[21], k=2)]

        def explode(*args, **kwargs):
            raise RuntimeError("batch blew up")

        session.index("a").search_encoded = explode
        session.index("b").search_encoded = explode
        with pytest.raises(RuntimeError, match="batch blew up"):
            server.drain()
        assert all(future.done() for future in futures)
        for future in futures:
            with pytest.raises(RuntimeError, match="batch blew up"):
                future.result()
        assert server.depth == 0
        assert server.snapshot()["failed"] == 2

    def test_session_failure_fails_futures_not_server(self):
        server = make_server(BatchPolicy.micro(max_batch=64, max_wait=100.0))
        future = server.submit("tweets", DOCS[0], k=2)
        server.session.close()  # out from under the server
        server.drain()
        assert future.done()
        with pytest.raises(ConfigError, match="session is closed"):
            future.result()
        assert server.snapshot()["failed"] == 1


class TestDeterminism:
    def test_repeated_runs_snapshot_identically(self):
        def run():
            server = make_server(BatchPolicy.micro(max_batch=4, max_wait=2e-6))
            for i, doc in enumerate(DOCS[:12]):
                server.advance(1e-6)
                server.submit("tweets", doc, k=3)
            server.drain()
            return server.snapshot()

        assert run() == run()


class TestPlannerDirectives:
    def _mixed_server(self, **kwargs):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="serial")
        session.create_index(DOCS, model="document", name="sharded", shards=2)
        kwargs.setdefault("cache_size", None)
        return GenieServer(session, policy=BatchPolicy.fifo(), **kwargs)

    def test_explicit_directive_on_serial_index_still_rejected(self):
        server = self._mixed_server()
        with pytest.raises(QueryError, match="requires a sharded index"):
            server.submit("serial", DOCS[0], k=2, route="broadcast")

    def test_normalized_directives_share_a_lane(self):
        # None, the explicit "auto" and plan="one-round" normalize
        # identically (auto is the one-round merge), so they must
        # coalesce into one batch.
        session = GenieSession()
        session.create_index(DOCS, model="document", name="sharded", shards=2)
        server = GenieServer(
            session, policy=BatchPolicy.micro(max_batch=4, max_wait=1.0),
            cache_size=None,
        )
        a = server.submit("sharded", DOCS[0], k=2)
        b = server.submit("sharded", DOCS[1], k=2, route="auto", plan="auto")
        c = server.submit("sharded", DOCS[2], k=2, plan="one-round")
        server.drain()
        assert a.metadata.batch_size == 3
        assert b.metadata.batch_size == 3
        assert c.metadata.batch_size == 3

    def test_different_directives_never_share_a_batch(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="sharded", shards=2)
        server = GenieServer(
            session, policy=BatchPolicy.micro(max_batch=4, max_wait=1.0),
            cache_size=None,
        )
        a = server.submit("sharded", DOCS[0], k=2)
        b = server.submit("sharded", DOCS[1], k=2, route="broadcast")
        server.drain()
        assert a.metadata.batch_size == 1
        assert b.metadata.batch_size == 1


class TestServerExplain:
    def test_explain_renders_the_per_request_directive(self):
        server = self._mixed_server()
        assert "broadcast" in server.explain("sharded", DOCS[0], k=2, route="broadcast").render()
        assert "two-round-tput" in server.explain("sharded", DOCS[0], k=4, plan="two-round").render()
        rendered = server.explain("sharded", DOCS[0], k=4, plan="one-round").render()
        assert "Merge(one-round" in rendered
        assert server.explain("serial", DOCS[0], k=2).render().startswith("Scan(")

    def test_explain_matches_what_submit_executes(self):
        server = self._mixed_server()
        explained = server.explain("sharded", DOCS[0], k=4, plan="two-round")
        future = server.submit("sharded", DOCS[0], k=4, plan="two-round")
        server.drain()
        assert future.done()
        executed = server.session.index("sharded").last_result
        assert executed.plan.render() == explained.render()

    def test_explain_admits_and_charges_nothing(self):
        server = self._mixed_server()
        before = server.snapshot()
        server.explain("sharded", DOCS[0], k=2)
        after = server.snapshot()
        assert after["submitted"] == before["submitted"]
        assert after["batches"] == before["batches"]
        assert server.session.host.timings.get("plan_route") == 0.0

    def test_explain_validates_like_submit(self):
        server = self._mixed_server()
        with pytest.raises(ConfigError, match="no index named"):
            server.explain("nope", DOCS[0])
        with pytest.raises(QueryError, match="requires a sharded index"):
            server.explain("serial", DOCS[0], k=2, route="broadcast")

    _mixed_server = TestPlannerDirectives._mixed_server


class TestPrunedFractionRegressions:
    def test_all_broadcast_traffic_reports_zero(self):
        # pruned_shard_fraction must read 0.0 — not NaN, not a division
        # error — when every sharded batch broadcast (nothing avoided).
        session = GenieSession()
        session.create_index(DOCS, model="document", name="sharded", shards=2)
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        for i in range(3):
            server.submit("sharded", DOCS[i], k=2, route="broadcast")
        server.drain()
        snap = server.snapshot()
        assert snap["sharded_batches"] == 3
        assert snap["pruned_shard_fraction"] == 0.0

    def test_serial_only_traffic_reports_zero(self):
        server = make_server(BatchPolicy.fifo())
        server.submit("tweets", DOCS[0], k=2)
        server.drain()
        assert server.snapshot()["pruned_shard_fraction"] == 0.0
