"""Tests for the GENIE engine: correctness against the reference model,
the GEN-SPQ variant, memory behaviour, and profiling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.baselines.gen_spq import make_gen_spq
from paper.reference.count_table import count_table_batch_bytes
from paper.reference.reference import reference_query
from repro.api import GenieSession
from repro.core.batch_scan import plan_batch_scan
from repro.core.engine import GenieConfig, GenieEngine, device_batches, per_query_device_bytes
from repro.core.load_balance import LoadBalanceConfig
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus, Query, QueryBatch
from repro.errors import ConfigError, GpuOutOfMemoryError, QueryError
from repro.gpu.device import Device
from repro.gpu.specs import small_device

FIG1 = Corpus([[1, 12, 21], [2, 11, 22], [1, 13, 23]])
Q1 = Query(items=[[1, 2], [11], [22, 23]])


def _counts(result):
    return sorted(result.counts.tolist(), reverse=True)


class TestCorrectness:
    def test_paper_example_top1(self):
        engine = GenieEngine(config=GenieConfig(k=1)).fit(FIG1)
        result = engine.query([Q1])[0]
        assert result.as_pairs() == [(1, 3)]
        assert result.threshold == 3

    def test_batch_queries(self):
        engine = GenieEngine(config=GenieConfig(k=2)).fit(FIG1)
        q2 = Query(items=[[1]])
        results = engine.query([Q1, q2])
        assert results[0].as_pairs()[0] == (1, 3)
        assert results[1].as_pairs() == [(0, 1), (2, 1)]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 12), max_size=6), min_size=1, max_size=15),
        st.lists(
            st.lists(st.lists(st.integers(0, 12), min_size=1, max_size=3), min_size=1, max_size=3),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 5),
    )
    def test_matches_brute_force(self, raw_objects, raw_queries, k):
        corpus = Corpus(raw_objects)
        queries = [Query(items=items) for items in raw_queries]
        engine = GenieEngine(config=GenieConfig(k=k)).fit(corpus)
        for query, result in zip(queries, engine.query(queries)):
            expected = [(i, c) for i, c in brute_force_topk(query, corpus, k) if c > 0]
            assert _counts(result) == sorted((c for _, c in expected), reverse=True)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 10), max_size=5), min_size=1, max_size=12),
        st.lists(st.integers(0, 10), min_size=1, max_size=6),
        st.integers(1, 4),
    )
    def test_reference_cpq_agrees_with_fast_path(self, raw_objects, keywords, k):
        corpus = Corpus(raw_objects)
        query = Query.from_keywords(keywords)
        fast = GenieEngine(config=GenieConfig(k=k)).fit(corpus)
        slow = reference_query(fast.index, query, k, query.num_items)
        assert _counts(fast.query([query])[0]) == _counts(slow)


class TestGenSpqVariant:
    def test_same_results_as_cpq(self):
        corpus = Corpus([[i % 7, (i * 3) % 7, 7 + i % 4] for i in range(40)])
        query = Query.from_keywords([0, 3, 8])
        genie = GenieEngine(config=GenieConfig(k=5)).fit(corpus)
        gen_spq = make_gen_spq(config=GenieConfig(k=5)).fit(corpus)
        assert _counts(genie.query([query])[0]) == _counts(gen_spq.query([query])[0])

    def test_gen_spq_needs_more_memory_per_query(self):
        gen_spq = make_gen_spq(config=GenieConfig(k=10)).fit(Corpus([[i % 50] for i in range(10_000)]))
        assert gen_spq.per_query_bytes(16) == count_table_batch_bytes(10_000, 1) == 10_000 * 12
        assert gen_spq.per_query_bytes(16) > per_query_device_bytes(10_000, 10, 16, None)


class TestLoadBalancedEngine:
    def test_same_results_with_lb(self):
        corpus = Corpus([[7, i % 3] for i in range(100)])
        query = Query(items=[[7], [0, 1]])
        plain = GenieEngine(config=GenieConfig(k=4)).fit(corpus)
        balanced = GenieEngine(
            config=GenieConfig(k=4, load_balance=LoadBalanceConfig(max_sublist_len=8))
        ).fit(corpus)
        assert _counts(plain.query([query])[0]) == _counts(balanced.query([query])[0])


class TestMemoryBehaviour:
    def test_batch_state_released_after_query(self):
        device = Device()
        engine = GenieEngine(device=device, config=GenieConfig(k=2)).fit(FIG1)
        used_before = device.memory.used
        engine.query([Q1])
        assert device.memory.used == used_before

    def test_oom_on_oversized_batch(self):
        corpus = Corpus([[i % 50] for i in range(5_000)])
        device = Device(small_device(1 << 20))
        engine = make_gen_spq(device=device, config=GenieConfig(k=10)).fit(corpus)
        fits = device.memory.free // engine.per_query_bytes(count_bound=1)
        assert fits == device.memory.free // (5_000 * 12)
        assert 0 < fits < 64
        engine.query([Query.from_keywords([0])] * fits)
        with pytest.raises(GpuOutOfMemoryError):
            engine.query([Query.from_keywords([0])] * (fits + 1))
        with pytest.raises(GpuOutOfMemoryError):
            engine.query([Query.from_keywords([0])] * 64)


class TestBatchedWorkloads:
    def _engine_and_batches(self):
        corpus = Corpus([[i % 20, 20 + i % 7] for i in range(300)])
        device = Device(small_device(16 * 1024))
        engine = GenieEngine(device=device, config=GenieConfig(k=2)).fit(corpus)
        small = [Query.from_keywords([i % 20]) for i in range(4)]
        # A huge count bound inflates the per-query Hash Table until the
        # batch no longer fits next to the resident index.
        huge = [Query(items=[[j] for j in range(120)]) for _ in range(4)]
        return engine, small, huge

    @staticmethod
    def _charge_in_batches(engine, queries, batch_size, k=2):
        """What the plan executor does with ``search(batch_size=)``: scan each cut, charge them in order."""
        batches = device_batches(QueryBatch.from_queries(queries), batch_size)
        return engine.charge_batches(batches, k, [plan_batch_scan(engine.index, batch, k) for batch in batches])

    def test_charge_batches_merges_profiles(self):
        engine, small, _ = self._engine_and_batches()
        engine.query(small[:2])
        one_batch_match = engine.last_profile.get("match")
        self._charge_in_batches(engine, small + small, batch_size=2)
        assert engine.last_profile.get("match") == pytest.approx(4 * one_batch_match)

    def test_charge_batches_oom_keeps_profile_consistent(self):
        engine, small, huge = self._engine_and_batches()
        engine.query(small)
        clean_match = engine.last_profile.get("match")
        with pytest.raises(GpuOutOfMemoryError):
            self._charge_in_batches(engine, small + small + huge, batch_size=4)
        # Two small batches completed before the third raised: last_profile
        # holds their accumulated profile, not the dangling failed batch.
        assert engine.last_profile.get("match") == pytest.approx(2 * clean_match)
        # The engine stays usable and the failed batch leaked no memory.
        used_before = engine.device.memory.used
        engine.query(small)
        assert engine.device.memory.used == used_before


class TestProfiling:
    def test_profile_has_pipeline_stages(self):
        engine = GenieEngine(config=GenieConfig(k=1)).fit(FIG1)
        engine.query([Q1])
        profile = engine.last_profile
        assert profile.get("match") > 0
        assert profile.get("select") > 0
        assert profile.get("query_transfer") > 0

    def test_index_transfer_charged_at_fit(self):
        device = Device()
        GenieEngine(device=device, config=GenieConfig(k=1)).fit(FIG1)
        assert device.timings.get("index_transfer") > 0


class TestErrors:
    def test_query_before_fit(self):
        with pytest.raises(QueryError):
            GenieEngine().query([Q1])

    def test_empty_batch(self):
        engine = GenieEngine(config=GenieConfig(k=1)).fit(FIG1)
        with pytest.raises(QueryError):
            engine.query([])

    @pytest.mark.parametrize("k", [0, -1, float("nan"), float("inf"), -float("inf"), 1.5, True, np.bool_(True), "3", object()])
    def test_bad_k(self, k):
        engine = GenieEngine(config=GenieConfig(k=1)).fit(FIG1)
        with pytest.raises(QueryError, match="k must be"):
            engine.query([Q1], k=k)
        handle = GenieSession(config=GenieConfig(k=1)).create_index(FIG1, model="raw")
        with pytest.raises(QueryError, match="k must be"):  # 1.5 and True once ran as 1
            handle.search([Q1], k=k, batch_size=1)

    @pytest.mark.parametrize("batch_size", [0, -1, float("nan"), 1.5, True, "3"])
    def test_bad_batch_size(self, batch_size):
        handle = GenieSession(config=GenieConfig(k=1)).create_index(FIG1, model="raw")
        with pytest.raises(QueryError, match="batch_size must be"):
            handle.search([Q1], k=1, batch_size=batch_size)

    @pytest.mark.parametrize("k", [np.int64(2), np.uint8(2), 2.0, np.float32(2.0)])
    def test_integral_k(self, k):
        engine = GenieEngine(config=GenieConfig(k=1)).fit(FIG1)
        assert engine.query([Q1], k=k)[0].as_pairs() == engine.query([Q1], k=2)[0].as_pairs()

    def test_config_with_copies(self):
        config = GenieConfig(k=5)
        other = config.with_(k=9, threads_per_block=128)
        assert config.k == 5
        assert other.k == 9
        assert other.threads_per_block == 128

    def test_config_with_rejects_unknown_fields(self):
        # Regression: typos must raise ConfigError naming the bad key, not
        # fall through to dataclasses.replace's TypeError.
        with pytest.raises(ConfigError, match="ks"):
            GenieConfig().with_(ks=9)
        with pytest.raises(ConfigError, match="bitz, kq"):
            GenieConfig().with_(kq=1, bitz=2, k=3)
        # Valid fields still work after the check.
        assert GenieConfig().with_(k=3).k == 3
