"""Sharded search through the session: exactness, timelines, critical path."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.cluster import critical_path_profile, merge_shard_results
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.types import Corpus, Query, TopKBatch, TopKResult
from repro.errors import ConfigError, QueryError
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings


def _workload(n=300, n_queries=16, m=6, domain=40, seed=0):
    rng = np.random.default_rng(seed)
    base = np.arange(m) * domain
    corpus = Corpus([base + rng.integers(0, domain, size=m) for _ in range(n)])
    queries = [
        Query.from_keywords(base + rng.integers(0, domain, size=m)) for _ in range(n_queries)
    ]
    return corpus, queries


def _sharded(corpus, n_shards, config=None, strategy="range"):
    """A fresh session holding one ``shards=n_shards`` raw index."""
    return GenieSession(config=config).create_index(
        corpus, model="raw", shards=n_shards, shard_strategy=strategy
    )


class TestExactness:
    @pytest.mark.parametrize("strategy", ["range", "hash"])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_unsharded(self, strategy, n_shards):
        corpus, queries = _workload()
        config = GenieConfig(k=7)
        reference = GenieEngine(config=config).fit(corpus).query(queries, k=7)
        sharded = _sharded(corpus, n_shards, config, strategy).search(queries, k=7)
        for ref, got in zip(reference, sharded.results):
            assert np.array_equal(ref.ids, got.ids)
            assert np.array_equal(ref.counts, got.counts)
            assert ref.threshold == got.threshold

    def test_batched_path_matches_unbatched(self):
        corpus, queries = _workload()
        whole = _sharded(corpus, 3, GenieConfig(k=5)).search(queries, k=5)
        batched = _sharded(corpus, 3, GenieConfig(k=5)).search(queries, k=5, batch_size=4)
        for a, b in zip(whole.results, batched.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.counts, b.counts)

    def test_more_shards_than_objects(self):
        corpus = Corpus([[1, 2], [2, 3], [3, 4]])
        queries = [Query.from_keywords([2, 3])]
        reference = GenieEngine(config=GenieConfig(k=3)).fit(corpus).query(queries, k=3)
        got = _sharded(corpus, 6, GenieConfig(k=3)).search(queries, k=3)
        assert np.array_equal(reference[0].ids, got[0].ids)
        assert np.array_equal(reference[0].counts, got[0].counts)


class TestTimelines:
    def test_each_shard_runs_on_its_own_device(self):
        corpus, queries = _workload()
        handle = _sharded(corpus, 3)
        handle.search(queries, k=5)
        devices = handle.shard_devices()
        assert len({id(d) for d in devices}) == 3
        for device in devices:
            assert device.timings.get("match") > 0.0

    def test_profile_is_critical_path_not_sum(self):
        corpus, queries = _workload()
        result = _sharded(corpus, 4).search(queries, k=5)
        shard_totals = [p.query_total() for p in result.shard_profiles]
        merge = result.profile.get("result_merge")
        assert result.profile.query_total() == pytest.approx(max(shard_totals) + merge)
        assert result.profile.query_total() < sum(shard_totals) + merge

    def test_sharding_beats_single_device_on_scan_heavy_work(self):
        # An OCR-shaped workload big enough for the match scan to dominate
        # the per-query floors (query/result transfer, select, merge).
        corpus, queries = _workload(n=12000, n_queries=64, m=32, domain=1024)
        single = _sharded(corpus, 1).search(queries, k=10)
        quad = _sharded(corpus, 4).search(queries, k=10)
        assert quad.profile.query_total() < single.profile.query_total()


class TestErrors:
    def test_unfitted_query_rejected(self):
        handle = GenieSession().declare_index("raw", shards=2)
        with pytest.raises(QueryError, match="fitted"):
            handle.search([Query.from_keywords([1])])

    def test_empty_batch_rejected(self):
        corpus, _ = _workload(n=10)
        with pytest.raises(QueryError, match="empty"):
            _sharded(corpus, 2).search([])

    def test_bad_k_rejected(self):
        corpus, queries = _workload(n=10)
        with pytest.raises(QueryError, match="k must be"):
            _sharded(corpus, 2).search(queries, k=0)

    def test_bad_shard_count_rejected(self):
        corpus, _ = _workload(n=10)
        with pytest.raises(ConfigError):
            _sharded(corpus, 0)


class TestMergeHelpers:
    def test_merge_ties_break_on_global_id(self):
        host = HostCpu()
        # Two shards, both with count-3 candidates; global ids interleave.
        shard_a = TopKBatch.from_results([TopKResult(ids=np.array([4, 9]), counts=np.array([3, 2]))])
        shard_b = TopKBatch.from_results([TopKResult(ids=np.array([2, 7]), counts=np.array([3, 3]))])
        merged, seconds = merge_shard_results([shard_a, shard_b], 1, 3, host)
        assert merged[0].ids.tolist() == [2, 4, 7]
        assert merged[0].counts.tolist() == [3, 3, 3]
        assert merged[0].threshold == 3
        assert seconds > 0.0
        assert host.timings.get("result_merge") == pytest.approx(seconds)

    def test_merge_fewer_than_k_has_zero_threshold(self):
        merged, _ = merge_shard_results(
            [TopKBatch.from_results([TopKResult(ids=np.array([5]), counts=np.array([2]))]), TopKBatch.empty(1)],
            1,
            10,
            HostCpu(),
        )
        assert merged[0].ids.tolist() == [5]
        assert merged[0].threshold == 0

    def test_critical_path_profile_picks_slowest(self):
        fast, slow = StageTimings(), StageTimings()
        fast.add("match", 1.0)
        slow.add("match", 2.0)
        slow.add("select", 0.5)
        picked = critical_path_profile([fast, slow])
        assert picked.seconds == slow.seconds
        picked.add("match", 1.0)  # a copy: the original is untouched
        assert slow.get("match") == 2.0

    def test_critical_path_of_nothing_is_empty(self):
        assert critical_path_profile([]).seconds == {}
