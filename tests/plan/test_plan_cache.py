"""The plan cache: warm shapes skip planning; only a reinstall stales a plan.

The cache's contract is twofold. Performance: a repeated batch *shape*
(same directives, ``k``, options and per-query elision flags) on a clean
sharded index with a broadcast route reuses the compiled plan and pays
zero further ``plan_route`` host work. Correctness: a compile that reads
more than the shape (range pruning, a dirty index) never touches the
cache, and anything else the planner's output is a function of — refits,
compactions, rebalances, drops — invalidates.
"""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.api.models import RawModel
from repro.errors import ConfigError
from repro.plan import LruCache, MergeNode
from repro.serve import BatchPolicy, GenieServer
from repro.stream import StreamConfig

OBJECTS = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]

def banded_corpus(n_objects=800, n_bands=8, seed=0):
    rng = np.random.default_rng(seed)
    return [[i // (n_objects // n_bands), int(rng.integers(1000, 5000))]
            for i in range(n_objects)]


def make_sharded(session, name="band", shards=4, strategy="hash", **kwargs):
    return session.create_index(
        banded_corpus(), model="raw", name=name, shards=shards,
        shard_strategy=strategy, **kwargs,
    )


class TestCacheConstruction:
    def test_capacity_validated(self):
        with pytest.raises(ConfigError, match="capacity"):
            LruCache(capacity=0)
        for size in (float("nan"), 1.5, -1):
            with pytest.raises(ConfigError, match="capacity"):
                GenieSession(plan_cache_size=size)

    def test_stats_surface(self):
        cache = LruCache(capacity=3)
        assert cache.stats() == {
            "capacity": 3, "entries": 0,
            "hits": 0, "misses": 0, "evictions": 0, "invalidations": 0,
        }

    def test_plan_cache_size_gauge_tracks_entries(self):
        session = GenieSession()
        handle = make_sharded(session)
        server = GenieServer(session, cache_size=None)
        assert session.plan_cache.stats()["entries"] == 0
        handle.search([[1, 2]], k=5)
        handle.search([[1, 2]], k=6)
        assert session.plan_cache.stats()["entries"] == len(session.plan_cache) == 2
        assert server.snapshot()["plan_cache_size"] == 2
        session.close()

    def test_session_toggle(self):
        assert GenieSession().plan_cache is not None
        assert GenieSession(plan_cache_size=None).plan_cache is None
        assert GenieSession(plan_cache_size=0).plan_cache is None
        assert GenieSession(plan_cache_size=7).plan_cache.capacity == 7

    def test_cache_holds_no_per_query_state(self):
        cache = LruCache()
        assert set(vars(cache)) == {
            "capacity", "_entries", "hits", "misses", "evictions", "invalidations",
        }


class TestHitsAndMisses:
    def test_repeated_shape_hits_and_pays_no_more_routing(self):
        session = GenieSession()
        handle = make_sharded(session)
        cache = session.plan_cache
        first = handle.search([[1, 2]], k=5, plan="two-round")
        assert cache.stats()["misses"] == 1
        charged = session.host.timings.get("plan_route")
        again = handle.search([[1, 2]], k=5, plan="two-round")
        assert cache.stats()["hits"] == 1
        # The hit reuses the two-round plan and charges no host planning.
        assert session.host.timings.get("plan_route") == charged
        assert again.plan == first.plan
        assert again.plan.find(MergeNode).strategy == "two-round-tput"
        assert again.routing.broadcast
        session.close()

    def test_hit_returns_identical_results(self):
        session = GenieSession()
        handle = make_sharded(session)
        first = handle.search([[2, 3]], k=4)
        second = handle.search([[2, 3]], k=4)
        assert session.plan_cache.stats()["hits"] == 1
        for ref, got in zip(first.results, second.results):
            assert np.array_equal(ref.ids, got.ids)
            assert np.array_equal(ref.counts, got.counts)
        session.close()

    def test_fresh_keywords_of_one_shape_hit(self):
        # The key is the batch's shape, not its keywords.
        session = GenieSession()
        handle = make_sharded(session)
        handle.search([[1, 2]], k=5)
        handle.search([[5, 6]], k=5)
        stats = session.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        session.close()

    def test_k_is_part_of_the_shape(self):
        session = GenieSession()
        handle = make_sharded(session)
        handle.search([[1, 2]], k=5)
        handle.search([[1, 2]], k=6)
        stats = session.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        session.close()

    def test_directives_are_part_of_the_shape(self):
        session = GenieSession()
        handle = make_sharded(session)
        handle.search([[1, 2]], k=5)
        handle.search([[1, 2]], k=5, route="broadcast")
        handle.search([[1, 2]], k=5, plan="two-round")
        stats = session.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 3
        session.close()

    def test_serial_indexes_bypass_the_cache(self):
        # Serial plans have no routing decision to memoize.
        session = GenieSession()
        handle = session.create_index(OBJECTS, model="raw", name="serial")
        handle.search([[0]], k=2)
        handle.search([[0]], k=2)
        stats = session.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        session.close()

    def test_disabled_cache_still_serves(self):
        session = GenieSession(plan_cache_size=None)
        handle = make_sharded(session)
        first = handle.search([[1, 2]], k=5)
        second = handle.search([[1, 2]], k=5)
        assert np.array_equal(first.results[0].ids, second.results[0].ids)
        session.close()


class TestUncachedShapes:
    """Compiles that read more than the batch shape never touch the cache."""

    @pytest.mark.parametrize("route", [None, "pruned"], ids=["auto", "pruned"])
    def test_range_eligibility_routes_compile_per_batch(self, route):
        session = GenieSession()
        handle = make_sharded(session, strategy="range")
        for _ in range(2):
            result = handle.search([[1, 2]], k=5, route=route)
        assert result.routing.pruned_pairs > 0  # still pruned, every batch
        stats = session.plan_cache.stats()
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0
        session.close()

    def test_dirty_plans_compile_per_batch(self):
        session = GenieSession()
        handle = make_sharded(session, stream_config=StreamConfig(auto_compact=False))
        handle.insert([[1, 7]])
        for _ in range(2):
            handle.search([[1, 2]], k=5)
        stats = session.plan_cache.stats()
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0
        session.close()

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_unhashable_option_compiles_uncached(self, strategy):
        class Tagged(RawModel):
            def shortlist_k(self, k, tag=None):
                return k

        session = GenieSession()
        handle = session.create_index(
            banded_corpus(), model=Tagged(), name="tagged", shards=4, shard_strategy=strategy,
        )
        expected = handle.search([[1, 2]], k=5)
        got = handle.search([[1, 2]], k=5, tag=[1])
        assert np.array_equal(got.results[0].ids, expected.results[0].ids)
        assert np.array_equal(got.results[0].counts, expected.results[0].counts)
        assert session.plan_cache.stats()["hits"] == 0
        session.close()


class TestCollidingHits:
    """A cache hit reuses the plan, which depends on the batch's shape alone.

    The key holds per-query elision flags, not the keywords, so two
    batches with different work volumes (``[[0]]`` vs ``[[0, 1]]``)
    collide on one entry, and the hit must answer like a fresh compile.
    """

    def test_colliding_batches_share_one_entry(self):
        session = GenieSession()
        handle = make_sharded(session)
        handle.search([[0]], k=5, plan="two-round")
        handle.search([[0, 1]], k=5, plan="two-round")
        stats = session.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1 and stats["entries"] == 1
        session.close()

    def test_colliding_hit_answers_like_a_fresh_compile(self):
        session = GenieSession()
        handle = make_sharded(session)
        first = handle.search([[0, 1]], k=5, plan="two-round")
        handle.search([[0]], k=5, plan="two-round")
        session.plan_cache.clear()
        handle.search([[0]], k=5, plan="two-round")
        second = handle.search([[0, 1]], k=5, plan="two-round")  # a hit on [[0]]'s plan
        assert session.plan_cache.stats()["hits"] == 2
        for ref, got in zip(first.results, second.results):
            assert np.array_equal(ref.ids, got.ids)
            assert np.array_equal(ref.counts, got.counts)
        session.close()


class TestInvalidation:
    def test_refit_misses_and_invalidates(self):
        session = GenieSession()
        handle = make_sharded(session)
        handle.search([[1, 2]], k=5)
        assert len(session.plan_cache) == 1
        handle.fit(banded_corpus(seed=1))  # _install drops the index's plans
        assert len(session.plan_cache) == 0
        assert session.plan_cache.stats()["invalidations"] == 1
        handle.search([[1, 2]], k=5)
        stats = session.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        session.close()

    def test_compact_empties_the_index_plans(self):
        session = GenieSession()
        handle = make_sharded(session, stream_config=StreamConfig(auto_compact=False))
        make_sharded(session, name="other")
        handle.search([[1, 2]], k=5)
        session.index("other").search([[1, 2]], k=5)
        handle.insert([[1, 7]])
        assert handle.compact()
        assert len(session.plan_cache) == 1  # only "other"'s plan is left
        assert session.plan_cache.stats()["invalidations"] == 1
        session.close()

    def test_rebalance_empties_the_index_plans(self):
        session = GenieSession()
        handle = make_sharded(session, strategy="range")
        handle.search([[1, 2]], k=5, route="broadcast")
        assert len(session.plan_cache) == 1
        assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
        assert len(session.plan_cache) == 0
        handle.search([[1, 2]], k=5, route="broadcast")
        stats = session.plan_cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        session.close()

    def test_mutations_leave_plans_alone(self):
        session = GenieSession()
        handle = make_sharded(session, stream_config=StreamConfig(auto_compact=False))
        handle.search([[1, 2]], k=5)
        handle.insert([[1, 7]])
        handle.delete([0])
        handle.update(1, [2, 9])
        stats = session.plan_cache.stats()
        assert stats["invalidations"] == 0 and stats["entries"] == 1
        session.close()

    def test_drop_invalidates_only_that_index(self):
        session = GenieSession()
        make_sharded(session, name="a")
        make_sharded(session, name="b")
        session.index("a").search([[1, 2]], k=5)
        session.index("b").search([[1, 2]], k=5)
        assert len(session.plan_cache) == 2
        session.drop("a")
        assert len(session.plan_cache) == 1
        session.index("b").search([[1, 2]], k=5)
        assert session.plan_cache.stats()["hits"] == 1
        session.close()

    def test_redeclared_shard_count_misses(self):
        # Dropping and re-declaring under the same name with a different
        # layout must not resurrect the old plan.
        session = GenieSession()
        handle = make_sharded(session, shards=4)
        four = handle.search([[1, 2]], k=5)
        assert four.routing.n_shards == 4
        session.drop("band")
        handle = make_sharded(session, shards=2)
        two = handle.search([[1, 2]], k=5)
        assert two.routing.n_shards == 2
        assert session.plan_cache.stats()["hits"] == 0
        session.close()

    def test_residency_eviction_keeps_plans_valid(self):
        # Eviction moves parts off the device; the *plan* is unchanged.
        # The evicted shard swaps back in during execution and the warm
        # plan still answers correctly.
        session = GenieSession()
        handle = make_sharded(session)
        first = handle.search([[1, 2]], k=5)
        session.evict("band")
        second = handle.search([[1, 2]], k=5)
        assert session.plan_cache.stats()["hits"] == 1
        assert np.array_equal(first.results[0].ids, second.results[0].ids)
        assert np.array_equal(first.results[0].counts, second.results[0].counts)
        session.close()


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        session = GenieSession(plan_cache_size=2)
        handle = make_sharded(session)
        handle.search([[1, 2]], k=3)
        handle.search([[1, 2]], k=4)
        handle.search([[1, 2]], k=5)  # evicts the k=3 plan
        stats = session.plan_cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        handle.search([[1, 2]], k=3)  # must recompile
        assert session.plan_cache.stats()["hits"] == 0
        handle.search([[1, 2]], k=5)  # still resident (MRU)
        assert session.plan_cache.stats()["hits"] == 1
        session.close()

    def test_hits_refresh_recency(self):
        session = GenieSession(plan_cache_size=2)
        handle = make_sharded(session)
        handle.search([[1, 2]], k=3)
        handle.search([[1, 2]], k=4)
        handle.search([[1, 2]], k=3)  # hit bumps k=3 to MRU
        handle.search([[1, 2]], k=5)  # evicts k=4, not k=3
        handle.search([[1, 2]], k=3)
        assert session.plan_cache.stats()["hits"] == 2
        session.close()


class TestServedTraffic:
    def _band_server(self, **kwargs):
        session = GenieSession()
        make_sharded(session, name="adult")
        kwargs.setdefault("cache_size", None)
        return GenieServer(session, policy=BatchPolicy.fifo(), **kwargs)

    def test_steady_state_lane_stops_paying_plan_route(self):
        server = self._band_server()
        session = server.session
        server.submit("adult", [1, 2], k=5, plan="two-round")
        warm = session.host.timings.get("plan_route")
        for _ in range(5):
            server.submit("adult", [1, 2], k=5, plan="two-round")
        server.drain()
        # Five warm batches, zero additional host planning seconds.
        assert session.host.timings.get("plan_route") == warm
        assert server.snapshot()["plan_cache_hits"] == 5

    def test_snapshot_reports_plan_cache_counters(self):
        server = self._band_server()
        server.submit("adult", [1, 2], k=5)
        server.submit("adult", [1, 2], k=5)
        server.session.drop("adult")
        server.drain()
        snap = server.snapshot()
        assert snap["plan_cache_hits"] == 1
        assert snap["plan_cache_misses"] == 1
        assert snap["plan_cache_invalidations"] == 1
        server.close()

    def test_snapshot_counters_default_zero_without_a_cache(self):
        session = GenieSession(plan_cache_size=None)
        session.create_index(
            banded_corpus(), model="raw", name="adult", shards=4,
            shard_strategy="range",
        )
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        server.submit("adult", [1, 2], k=5)
        server.drain()
        snap = server.snapshot()
        assert snap["plan_cache_hits"] == 0
        assert snap["plan_cache_misses"] == 0
        assert snap["plan_cache_invalidations"] == 0
        server.close()
