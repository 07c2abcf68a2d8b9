"""Tests for the exact-match query-result cache and its invalidation."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.core.types import Query
from repro.errors import ConfigError
from repro.plan import LruCache
from repro.serve import BatchPolicy, GenieServer, make_cache_key


def _docs(n=30):
    words = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue"]
    rng = np.random.default_rng(0)
    return [" ".join(rng.choice(words, size=4, replace=False)) for _ in range(n)]


DOCS = _docs()


def make_server(cache_size=64, policy=None):
    session = GenieSession()
    session.create_index(DOCS, model="document", name="tweets")
    return GenieServer(session, policy=policy or BatchPolicy.fifo(), cache_size=cache_size)


class TestLruMechanics:
    def test_bad_capacity_rejected(self):
        for capacity in (0, float("nan"), 1.5, True):
            with pytest.raises(ConfigError, match="capacity"):
                LruCache(capacity)
        for cache_size in (float("nan"), 1.5):
            with pytest.raises(ConfigError, match="capacity"):
                GenieServer(GenieSession(), cache_size=cache_size)

    def test_hit_and_miss_counters(self):
        cache = LruCache(4)
        cache.put(("i", (), 1, ()), "v")
        assert cache.get(("i", (), 1, ())) == "v"
        assert cache.get(("i", (), 2, ())) is None
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_beyond_capacity(self):
        cache = LruCache(2)
        cache.put(("i", (), 1, ()), "a")
        cache.put(("i", (), 2, ()), "b")
        cache.put(("i", (), 3, ()), "c")  # evicts key 1 (LRU)
        assert ("i", (), 1, ()) not in cache
        assert ("i", (), 2, ()) in cache
        assert cache.stats()["evictions"] == 1

    def test_get_bumps_to_mru(self):
        cache = LruCache(2)
        cache.put(("i", (), 1, ()), "a")
        cache.put(("i", (), 2, ()), "b")
        cache.get(("i", (), 1, ()))  # 1 becomes MRU
        cache.put(("i", (), 3, ()), "c")  # evicts 2, not 1
        assert ("i", (), 1, ()) in cache
        assert ("i", (), 2, ()) not in cache

    def test_invalidate_removes_only_that_index(self):
        cache = LruCache(8)
        cache.put(("a", (), 1, ()), "x")
        cache.put(("a", (), 2, ()), "y")
        cache.put(("b", (), 1, ()), "z")
        assert cache.invalidate("a") == 2
        assert len(cache) == 1
        assert ("b", (), 1, ()) in cache
        assert cache.stats()["invalidations"] == 2


class TestServerIntegration:
    def test_repeat_query_is_answered_from_cache(self):
        server = make_server()
        first = server.submit("tweets", DOCS[0], k=3)
        batches_before = server.snapshot()["batches"]
        second = server.submit("tweets", DOCS[0], k=3)
        assert second.done()
        assert second.metadata.cache_hit
        assert second.metadata.batch_size == 0  # no device trip
        assert server.snapshot()["batches"] == batches_before
        assert np.array_equal(first.result().ids, second.result().ids)
        assert np.array_equal(first.result().counts, second.result().counts)
        assert server.snapshot()["cache"]["hits"] == 1

    def test_exact_match_is_exact(self):
        server = make_server()
        server.submit("tweets", DOCS[0], k=3)
        different_k = server.submit("tweets", DOCS[0], k=4)
        assert not different_k.metadata.cache_hit

    def test_refit_invalidates_served_results(self):
        server = make_server()
        query = DOCS[0]
        server.submit("tweets", query, k=3)
        handle = server.session.index("tweets")
        handle.fit(list(reversed(DOCS)))  # same vocabulary, new ids
        after = server.submit("tweets", query, k=3)
        assert not after.metadata.cache_hit
        direct = handle.search([query], k=3)
        assert np.array_equal(after.result().ids, direct[0].ids)

    def test_drop_invalidates(self):
        server = make_server()
        server.submit("tweets", DOCS[0], k=3)
        assert server.snapshot()["cache"]["entries"] == 1
        server.session.drop("tweets")
        assert server.snapshot()["cache"]["entries"] == 0
        assert server.snapshot()["cache"]["invalidations"] == 1

    def test_cache_hit_served_even_when_queue_full(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        server = GenieServer(
            session, policy=BatchPolicy.micro(max_batch=64, max_wait=100.0),
            max_queue_depth=1, cache_size=8,
        )
        hit_source = server.submit("tweets", DOCS[0], k=3)
        server.drain()  # cached now
        server.submit("tweets", DOCS[1], k=3)  # fills the queue
        hit = server.submit("tweets", DOCS[0], k=3)  # still served
        assert hit.metadata.cache_hit
        assert np.array_equal(hit.result().ids, hit_source.result().ids)

    def test_raw_dependent_payloads_never_conflated(self):
        # Two raw sequence queries can share an encoding (unseen n-grams
        # are dropped); their edit-distance payloads differ, so the cache
        # must key on the raw query for finalize_uses_raw models.
        session = GenieSession()
        session.create_index(["abcdefgh"], model="sequence", n=3, name="seqs")
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=64)
        far = server.submit("seqs", "abcdefghZZZZZZ", k=1, n_candidates=4)
        near = server.submit("seqs", "abcdefghQQ", k=1, n_candidates=4)
        assert not near.metadata.cache_hit
        assert far.payload.best.distance == 6
        assert near.payload.best.distance == 2
        # An exact raw repeat still hits.
        repeat = server.submit("seqs", "abcdefghQQ", k=1, n_candidates=4)
        assert repeat.metadata.cache_hit
        assert repeat.payload.best.distance == 2

    def test_session_close_refuses_submit_even_on_cached_query(self):
        server = make_server()
        server.submit("tweets", DOCS[0], k=3)
        server.session.close()
        with pytest.raises(ConfigError, match="session is closed"):
            server.submit("tweets", DOCS[0], k=3)

    def test_disabled_cache_reports_none(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        server.submit("tweets", DOCS[0], k=3)
        assert server.snapshot()["cache"] is None


class TestKeying:
    def test_key_covers_index_query_k_and_opts(self):
        session = GenieSession()
        handle = session.create_index(DOCS, model="document", name="tweets")
        query = handle.encode_queries([DOCS[0]])  # the request's one-query batch
        base = make_cache_key("tweets", query, 3, ())
        assert base == make_cache_key("tweets", query, 3, ())
        assert base != make_cache_key("other", query, 3, ())
        assert base != make_cache_key("tweets", query, 4, ())
        assert base != make_cache_key("tweets", query, 3, (("n_candidates", 8),))

    def test_key_follows_the_encoded_items_not_the_raw_query(self):
        session = GenieSession()
        handle = session.create_index([[1, 2, 3]], model="raw", name="raw")

        def key(items):
            return make_cache_key("raw", handle.encode_queries([Query(items=items)]), 3, ())

        shapes = ([[1, 2], [3]], [[1], [2, 3]], [[1], [2], [3]])
        assert len({key(items) for items in shapes}) == 3  # item boundaries count
        assert key([[2, 1, 2], [3]]) == key(shapes[0])  # an item is a set
        hash(key(shapes[0]))

    def test_raw_queries_with_equal_encodings_share_an_entry(self):
        server = make_server()
        first = server.submit("tweets", "gpu index search", k=3)
        again = server.submit("tweets", "GPU, the index... SEARCH!", k=3)  # same words
        assert again.metadata.cache_hit
        assert again.result() is first.result()
        assert server.snapshot()["cache"]["entries"] == 1
