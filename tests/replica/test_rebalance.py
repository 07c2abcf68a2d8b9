"""Rebalancing: load-weighted cuts, the policy gates, online recutting."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus, Query
from repro.errors import ConfigError
from repro.replica import RebalancePolicy, balanced_range_bounds
from repro.serve.metrics import ServeMetrics
from repro.stream import StreamConfig

K = 5


class TestBalancedRangeBounds:
    def test_uniform_weights_keep_even_cuts(self):
        bounds = balanced_range_bounds([25, 25, 25, 25], [1.0, 1.0, 1.0, 1.0])
        assert bounds == [0, 25, 50, 75, 100]

    def test_hot_shard_shrinks(self):
        bounds = balanced_range_bounds([50, 50], [9.0, 1.0])
        assert bounds is not None
        hot = bounds[1] - bounds[0]
        cold = bounds[2] - bounds[1]
        assert hot < cold
        assert bounds[0] == 0 and bounds[-1] == 100

    def test_cold_shards_keep_a_floor_share(self):
        bounds = balanced_range_bounds([40, 40, 40], [10.0, 0.0, 0.0])
        assert bounds is not None
        sizes = np.diff(bounds)
        assert all(sizes >= 1)
        # the zero-traffic shards are floored, not starved to one object
        assert sizes[1] > 1 and sizes[2] > 1

    def test_every_shard_gets_at_least_one_object(self):
        bounds = balanced_range_bounds([2, 2, 2], [100.0, 0.0, 0.0])
        assert bounds is not None
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_degenerate_inputs_return_none(self):
        assert balanced_range_bounds([100], [1.0]) is None
        assert balanced_range_bounds([1, 0], [1.0, 1.0]) is None
        assert balanced_range_bounds([50, 50], [0.0, 0.0]) is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            balanced_range_bounds([10, 10], [1.0])
        with pytest.raises(ConfigError):
            balanced_range_bounds([10, -1], [1.0, 1.0])


class TestRebalancePolicy:
    def _metrics_with_window(self, batches, seconds):
        metrics = ServeMetrics()
        for _ in range(batches):
            metrics.record_batch(1, sum(seconds), 0, 0, shard_seconds=seconds)
        return metrics

    def test_fires_past_threshold_with_full_window(self):
        policy = RebalancePolicy(threshold=1.25, min_window=4, cooldown=8)
        metrics = self._metrics_with_window(4, [4.0, 1.0, 1.0, 1.0])
        assert policy.should_rebalance(metrics)

    def test_warmup_gate(self):
        policy = RebalancePolicy(threshold=1.25, min_window=4, cooldown=8)
        metrics = self._metrics_with_window(3, [4.0, 1.0, 1.0, 1.0])
        assert not policy.should_rebalance(metrics)

    def test_threshold_gate(self):
        policy = RebalancePolicy(threshold=1.25, min_window=4, cooldown=8)
        metrics = self._metrics_with_window(4, [1.1, 1.0, 1.0, 1.0])
        assert not policy.should_rebalance(metrics)

    def test_cooldown_gate(self):
        policy = RebalancePolicy(threshold=1.25, min_window=2, cooldown=10)
        metrics = self._metrics_with_window(4, [4.0, 1.0, 1.0, 1.0])
        assert policy.should_rebalance(metrics)
        policy.note_fired(metrics)
        assert not policy.should_rebalance(metrics)
        for _ in range(10):
            metrics.record_batch(1, 7.0, 0, 0, shard_seconds=[4.0, 1.0, 1.0, 1.0])
        assert policy.should_rebalance(metrics)

    def test_validation(self):
        for bad in (0.9, float("nan"), "a"):
            with pytest.raises(ConfigError, match="threshold"):
                RebalancePolicy(threshold=bad)
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="min_window"):
                RebalancePolicy(min_window=bad)
        for bad in (-1, float("nan"), 0.5):
            with pytest.raises(ConfigError, match="cooldown"):
                RebalancePolicy(cooldown=bad)
        assert RebalancePolicy(cooldown=0).cooldown == 0


def narrow_band_rows(n=1200, span=30, seed=0):
    """Rows whose keywords cluster near their sort position — real range
    pruning, and low-band queries land on the low shards only."""
    rng = np.random.default_rng(seed)
    base = np.sort(rng.integers(0, n, size=n))
    return [
        np.unique(rng.integers(b, b + span, size=8)).astype(np.int64)
        for b in base
    ]


class TestOnlineRebalance:
    def _build(self, session, shards=4, **kw):
        return session.create_index(
            narrow_band_rows(), model="raw", name="idx", shards=shards, **kw
        )

    def _queries(self, lo, hi, count=16, seed=3):
        rng = np.random.default_rng(seed)
        return [
            np.sort(rng.choice(np.arange(lo, hi), size=6, replace=False)).astype(np.int64)
            for _ in range(count)
        ]

    def test_recut_moves_objects_and_preserves_results(self):
        queries = self._queries(0, 400)
        with GenieSession() as session:
            handle = self._build(session)
            before_sizes = [len(p.corpus) for p in handle._parts]
            expected = [
                tuple(np.asarray(handle.search([q], k=K).ids).ravel())
                for q in queries
            ]
            assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
            after_sizes = [len(p.corpus) for p in handle._parts]
            assert after_sizes != before_sizes
            assert after_sizes[0] < before_sizes[0]  # hot range split
            assert sum(after_sizes) == sum(before_sizes)
            got = [
                tuple(np.asarray(handle.search([q], k=K).ids).ravel())
                for q in queries
            ]
            assert got == expected

    def test_rebalance_invalidates_plans(self):
        with GenieSession() as session:
            handle = self._build(session)
            q = self._queries(0, 400, count=1)
            handle.search(q, k=K, route="broadcast")
            handle.search(q, k=K, route="broadcast")  # warm: served from the plan cache
            before = session.plan_cache.stats()
            assert before["hits"] == 1
            assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
            handle.search(q, k=K, route="broadcast")  # recompiles against the new cuts
            after = session.plan_cache.stats()
            assert after["hits"] == before["hits"]
            assert after["misses"] == before["misses"] + 1

    def test_identical_weights_are_a_no_op(self):
        with GenieSession() as session:
            handle = self._build(session)
            plan = handle.plan
            assert not handle.rebalance([1.0, 1.0, 1.0, 1.0])
            assert handle.plan is plan

    def test_replicated_handle_rebalances_all_replicas(self):
        queries = self._queries(0, 400)
        with GenieSession() as session:
            handle = self._build(session, replicas=2)
            expected = [
                tuple(np.asarray(handle.search([q], k=K).ids).ravel())
                for q in queries
            ]
            assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
            layout = handle.replica_layout()
            assert all(len(set(d)) == 2 for d in layout.values())
            got = [
                tuple(np.asarray(handle.search([q], k=K).ids).ravel())
                for q in queries
            ]
            assert got == expected

    def test_hash_sharding_refuses(self):
        with GenieSession() as session:
            handle = session.create_index(
                narrow_band_rows(), model="raw", name="idx", shards=4,
                shard_strategy="hash",
            )
            assert not handle.rebalance([10.0, 1.0, 1.0, 1.0])

    def test_pending_stream_mutations_refuse(self):
        with GenieSession() as session:
            handle = self._build(session)
            handle.insert([np.array([3, 4, 5], dtype=np.int64)])
            assert not handle.rebalance([10.0, 1.0, 1.0, 1.0])

    def test_compacted_index_rebalances_again(self):
        """Only *live* mutations refuse: a mutated-then-compacted index recuts like a fresh fit."""
        queries = self._queries(0, 400, count=6)

        def check(handle, logical):
            corpus = Corpus(logical)
            for query, got in zip(queries, handle.search(queries, k=K).results):
                assert got.as_pairs() == [
                    pair for pair in brute_force_topk(Query.from_keywords(query), corpus, K) if pair[1]
                ]

        def mutate(handle, logical, fresh, dead):
            logical += fresh
            assert handle.insert(fresh).tolist() == list(range(len(logical) - len(fresh), len(logical)))
            handle.delete(dead)
            for gid in dead:
                logical[gid] = []

        with GenieSession() as session:
            handle = self._build(session, stream_config=StreamConfig(auto_compact=False))
            logical = list(narrow_band_rows())
            mutate(handle, logical, [np.arange(3, 9), np.arange(100, 104)], [0, 7, 1200])
            check(handle, logical)
            assert not handle.rebalance([10.0, 1.0, 1.0, 1.0])  # dirty: refused
            assert handle.compact()
            before_sizes = [len(p.corpus) for p in handle._parts]
            assert handle.rebalance([10.0, 1.0, 1.0, 1.0])  # the parent: False, forever
            after_sizes = [len(p.corpus) for p in handle._parts]
            assert after_sizes[0] < before_sizes[0] and sum(after_sizes) == sum(before_sizes) == len(logical)
            check(handle, logical)
            mutate(handle, logical, [np.arange(5, 11)], [3, 1201])
            check(handle, logical)
            assert handle.compact()
            check(handle, logical)

    @pytest.mark.parametrize("auto_compact", [False, True], ids=["manual", "auto_compact"])
    def test_compaction_keeps_the_rebalanced_cuts(self, auto_compact):
        """A recut survives the next rebuild (the parent recut to equal sizes at every compaction).

        The interior cuts are handed back to ``_install`` and the last bound
        moves to the new corpus length; answers equal a from-scratch refit,
        and a second ``rebalance`` works from the carried cuts.
        """
        queries = self._queries(0, 400, count=6)
        rows = narrow_band_rows()
        with GenieSession() as session:
            handle = self._build(session, stream_config=StreamConfig(auto_compact=auto_compact))
            assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
            sizes = [len(p.corpus) for p in handle._parts]
            assert sizes[0] < 300 and sum(sizes) == 1200
            while handle.manifest is None or not handle.manifest.compactions:
                fresh = [np.arange(3, 9), np.arange(100, 104)] * 40
                rows += fresh
                handle.insert(fresh)
                if not auto_compact:
                    assert handle.compact()
            # The parent: equal quarters again. New ids join the last shard.
            assert [len(p.corpus) for p in handle._parts] == [*sizes[:-1], sizes[-1] + len(rows) - 1200]
            cuts = handle.plan.bounds
            assert np.diff(cuts).tolist() == handle.plan.sizes() and cuts[-1] == len(rows)
            refit = session.create_index(rows, model="raw", name="refit")
            got, expected = handle.search(queries, k=K), refit.search(queries, k=K)
            assert [r.as_pairs() for r in got.results] == [r.as_pairs() for r in expected.results]
            assert [r.threshold for r in got.results] == [r.threshold for r in expected.results]
            assert handle.rebalance([1.0, 1.0, 1.0, 10.0])  # and it recuts again from there
            assert handle.plan.bounds[1] > cuts[1] and handle.plan.bounds[-1] == len(rows)
            got = handle.search(queries, k=K)
            assert [r.as_pairs() for r in got.results] == [r.as_pairs() for r in expected.results]

    def test_an_unrecut_partition_stays_equal_size_across_compactions(self):
        with GenieSession() as session:
            handle = self._build(session, stream_config=StreamConfig(auto_compact=False))
            handle.insert([np.arange(3, 9)] * 40)
            assert handle.compact()
            assert [len(p.corpus) for p in handle._parts] == [310, 310, 310, 310]
            assert handle.plan.bounds == [0, 310, 620, 930, 1240]

    def test_unfitted_handle_raises(self):
        with GenieSession() as session:
            handle = session.declare_index(model="raw", name="idx", shards=4)
            with pytest.raises(ConfigError):
                handle.rebalance([1.0, 2.0])
