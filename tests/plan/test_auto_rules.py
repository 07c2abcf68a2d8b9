"""``plan="auto"`` resolves by the rules, and the merge charge is the simulator's.

The planner prices no plans: range partitions prune, hash partitions
broadcast, the merge is one-round unless ``plan="two-round"`` asks for
the TPUT merge. ``"auto"`` and ``"one-round"`` therefore compile one
plan, share one plan-cache entry, and every directive answers
bit-identically.
"""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.plan import MergeNode, ShardScanNode, compile_search, first_round_k_for
from repro.plan.planner import reprice_plan


def banded_corpus(n_objects=1600, n_bands=8, seed=0):
    # Object i carries its band id plus one cold filler keyword: range
    # shards become contiguous bands and a single-band query is the
    # concentrated serving shape (prunes to ~2 shards).
    rng = np.random.default_rng(seed)
    return [[i // (n_objects // n_bands), int(rng.integers(1000, 5000))]
            for i in range(n_objects)]


def banded_handle(session, strategy):
    return session.create_index(
        banded_corpus(), model="raw", name=f"band-{strategy}", shards=4,
        shard_strategy=strategy,
    )


def dense_handle(session, seed=5):
    """Range-sharded raw keywords: every shard holds many matches per query."""
    rng = np.random.default_rng(seed)
    corpus = [np.unique(rng.integers(0, 24, size=6)).tolist() for _ in range(1600)]
    queries = [np.sort(rng.choice(24, size=4, replace=False)).tolist() for _ in range(8)]
    handle = session.create_index(
        corpus, model="raw", name="dense", shards=4, shard_strategy="range",
    )
    return handle, queries


def lsh_handle(session, n_points=600, dim=16, n_queries=8, seed=0):
    """Hash-sharded e2lsh over Gaussian points: the even-spread shape."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, dim))
    handle = session.create_index(
        points, model="ann-e2lsh", num_functions=32, dim=dim, width=4.0,
        seed=0, domain=512, name="ann", shards=8, shard_strategy="hash",
    )
    picks = rng.choice(n_points, size=n_queries, replace=False)
    queries = list(points[picks] + 0.01 * rng.normal(size=(n_queries, dim)))
    return handle, queries


def corpus_and_queries(session, shape):
    if shape == "e2lsh":
        return lsh_handle(session)
    return banded_handle(session, shape), [[1, 2], [3], [0, 7]]


class TestAutoIsTheRules:
    @pytest.mark.parametrize("strategy, broadcast", [("range", False), ("hash", True)])
    def test_auto_follows_the_partition_rule(self, strategy, broadcast):
        session = GenieSession()
        plan = banded_handle(session, strategy).explain([[1, 2]], k=10)
        assert plan.find(MergeNode).strategy == "one-round"
        assert plan.find(ShardScanNode).broadcast is broadcast
        session.close()

    def test_banded_range_auto_picks_pruned_one_round(self):
        session = GenieSession()
        result = banded_handle(session, "range").search([[1, 2]], k=10)
        assert result.plan.find(MergeNode).strategy == "one-round"
        assert not result.plan.find(ShardScanNode).broadcast
        assert result.routing.pruned_pairs > 0
        session.close()

    @pytest.mark.parametrize("shape", ["range", "hash", "serial"])
    def test_auto_and_one_round_compile_one_plan(self, shape):
        session = GenieSession()
        if shape == "serial":
            handle = session.create_index(banded_corpus(), model="raw", name="serial")
        else:
            handle = banded_handle(session, shape)
        auto = handle.explain([[1, 2]], k=10, plan="auto")
        forced = handle.explain([[1, 2]], k=10, plan="one-round")
        assert auto == forced
        assert auto.render() == forced.render()
        session.close()

    def test_auto_and_one_round_share_a_cache_entry(self):
        session = GenieSession()
        handle = banded_handle(session, "hash")
        handle.search([[1, 2]], k=10, plan="auto")
        handle.search([[1, 2]], k=10, plan="one-round")
        handle.search([[1, 2]], k=10)
        stats = session.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2 and stats["entries"] == 1
        session.close()

    def test_explain_warms_the_cache_for_free(self):
        session = GenieSession()
        handle = banded_handle(session, "hash")
        handle.explain([[1, 2]], k=10)
        assert session.host.timings.get("plan_route") == 0.0
        handle.search([[1, 2]], k=10)
        assert session.plan_cache.stats()["hits"] == 1
        assert session.host.timings.get("plan_route") == 0.0
        session.close()


class TestDirectivesAnswerAlike:
    @pytest.mark.parametrize("k", [1, 13, 50])
    @pytest.mark.parametrize("shape", ["range", "hash", "e2lsh"])
    def test_auto_is_bit_identical_to_forced_plans(self, shape, k):
        session = GenieSession()
        handle, queries = corpus_and_queries(session, shape)
        auto = handle.search(queries, k=k)
        forced_one = handle.search(queries, k=k, plan="one-round")
        forced_two = handle.search(queries, k=k, plan="two-round")
        for other in (forced_one, forced_two):
            for ref, got in zip(auto.results, other.results):
                assert np.array_equal(ref.ids, got.ids)
                assert np.array_equal(ref.counts, got.counts)
                assert ref.threshold == got.threshold
        session.close()


class TestMergeCharge:
    """The one-round merge is charged as an S-way heap merge of the candidates."""

    @staticmethod
    def _check(session, handle, queries, k):
        result = handle.search(queries, k=k, route="broadcast", plan="one-round")
        n_shards = handle.plan.n_shards
        width = result.plan.find(MergeNode).k
        # Every shard holds >= width matches per query, so each shard
        # contributes exactly width candidates to every query's pool.
        candidates = len(queries) * n_shards * width
        fan_in = max(1.0, np.log2(max(n_shards, 2)))
        expected = session.host.price_ops(candidates * fan_in)
        assert result.profile.get("result_merge") == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0

    @pytest.mark.parametrize("k", [1, 13, 50])
    def test_range_index(self, k):
        session = GenieSession()
        handle, queries = dense_handle(session)
        self._check(session, handle, queries, k)
        session.close()

    @pytest.mark.parametrize("k", [1, 13, 50])
    def test_e2lsh_index(self, k):
        session = GenieSession()
        handle, queries = lsh_handle(session, n_points=1200, n_queries=16)
        self._check(session, handle, queries, k)
        session.close()


class TestRepricePlan:
    def test_hit_keeps_the_plan_and_pays_no_routing(self):
        session = GenieSession()
        handle = banded_handle(session, "range")
        queries = handle.encode_queries([[1, 2]])
        compiled = compile_search(handle, queries, k=5, retrieval_k=5)
        assert compiled.routing_ops > 0.0
        hit = reprice_plan(compiled)
        assert hit.routing_ops == 0.0
        assert hit.root == compiled.root
        assert hit.routing == compiled.routing
        assert [r.tolist() for r in hit.routes] == [r.tolist() for r in compiled.routes]
        # The cached plan itself is left as compiled.
        assert compiled.routing_ops > 0.0
        session.close()


class TestFirstRoundWidth:
    @pytest.mark.parametrize(
        "k, n_shards, expected",
        [(2, 3, 1), (50, 8, 13), (1, 4, 1), (10, 1, 9), (16, 2, 15), (5, 100, 1)],
    )
    def test_first_round_width(self, k, n_shards, expected):
        assert first_round_k_for(k, n_shards) == expected
