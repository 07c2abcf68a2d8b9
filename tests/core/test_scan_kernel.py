"""Tests for the per-query planner (specification) and launch assembly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.match_count import match_counts_all
from repro.core.reference import match_counts, plan_batch, plan_query_scan
from repro.core.scan_kernel import CONTENTION_DILUTION, build_match_launch, build_select_launch
from repro.core.types import Corpus, Query
from repro.gpu.specs import TITAN_X, DeviceSpec, small_device


def _corpus():
    return Corpus([[1, 2, 3], [2, 3], [3, 4], [1, 4]])


class TestPlanQueryScan:
    def test_counts_match_reference(self):
        corpus = _corpus()
        index = InvertedIndex.build(corpus)
        query = Query(items=[[1, 2], [3]])
        plan = plan_query_scan(index, query, 0, k=2)
        assert np.array_equal(plan.counts, match_counts_all(query, corpus))

    def test_one_block_per_item_without_lb(self):
        index = InvertedIndex.build(_corpus())
        query = Query(items=[[1], [3], [4]])
        plan = plan_query_scan(index, query, 0, k=2)
        assert plan.block_sizes.size == 3

    def test_lb_splits_blocks(self):
        objects = [[7] for _ in range(64)]
        lb = LoadBalanceConfig(max_sublist_len=8, max_lists_per_block=2)
        index = InvertedIndex.build(Corpus(objects), load_balance=lb)
        query = Query(items=[[7]])
        plan = plan_query_scan(index, query, 0, k=2)
        # 64 entries -> 8 sublists -> 4 blocks of 2 sublists (16 entries).
        assert plan.block_sizes.tolist() == [16, 16, 16, 16]

    def test_unmatched_keywords_yield_empty_plan(self):
        index = InvertedIndex.build(_corpus())
        plan = plan_query_scan(index, Query(items=[[99]]), 0, k=2)
        assert plan.counts.sum() == 0
        assert plan.block_sizes.tolist() == [0]

    @settings(max_examples=25)
    @given(
        st.lists(st.lists(st.integers(0, 15), max_size=5), min_size=1, max_size=20),
        st.lists(st.lists(st.integers(0, 15), min_size=1, max_size=4), min_size=1, max_size=4),
    )
    def test_counts_equal_reference_on_random_input(self, raw_objects, raw_items):
        corpus = Corpus(raw_objects)
        index = InvertedIndex.build(corpus)
        query = Query(items=raw_items)
        plan = plan_query_scan(index, query, 0, k=3)
        assert np.array_equal(plan.counts, match_counts_all(query, corpus))


def _per_query_conflicts(counts, warp_size):
    """The atomic-conflict estimate summed the long way: one float sum per
    query over its positive 32-bit counters, the per-query sums added up."""
    total = 0
    for row in counts:
        hits = row[row > 0].astype(np.int32).astype(np.float64)
        if hits.size:
            total += float(np.sum(hits * (np.minimum(hits, warp_size) - 1.0) / warp_size))
    return total / CONTENTION_DILUTION


def _counts(index, queries):
    """The batch's dense match counts, one row per query."""
    return np.stack([match_counts(index, query) for query in queries])


class TestLaunchAssembly:
    QUERIES = [Query(items=[[1], [3]]), Query(items=[[2, 4]])]

    def _scan(self):
        return plan_batch(InvertedIndex.build(_corpus()), self.QUERIES, k=2)

    def test_match_launch_covers_all_blocks(self):
        scan = self._scan()
        launch = build_match_launch(scan, TITAN_X, 256)
        assert launch.num_blocks == scan.block_sizes.size == 3
        assert launch.total_items == int(scan.updates.sum())

    def test_cpq_launch_has_gate_traffic(self):
        scan = self._scan()
        cpq = build_match_launch(scan, TITAN_X, 256)
        assert cpq.uncoalesced_bytes > 0 and cpq.atomic_ops > 0
        assert cpq.name == "genie_match"

    def test_select_launch_one_block_per_query(self):
        launch = build_select_launch(2, ht_capacity=64, k=2, threads_per_block=128)
        assert launch.num_blocks == 2
        assert launch.total_items == 128

    def test_count_hist_bins_the_positive_counters(self):
        scan = self._scan()
        counts = _counts(InvertedIndex.build(_corpus()), self.QUERIES)
        positive = counts[counts > 0]
        assert np.array_equal(scan.count_hist, np.bincount(positive))
        assert scan.count_hist[0] == 0 and int(scan.count_hist.sum()) == positive.size

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=8), min_size=1, max_size=80),
        st.lists(st.lists(st.integers(0, 11), max_size=70), min_size=1, max_size=5),
    )
    def test_conflicts_from_count_hist_equal_the_per_query_sums(self, raw_objects, raw_queries):
        """One item per keyword, repeats allowed, so counts pass the warp size;
        the one-expression estimate over ``count_hist`` is the per-query sums
        to the last bit."""
        index = InvertedIndex.build(Corpus(raw_objects))
        queries = [Query(items=[[kw] for kw in kws]) for kws in raw_queries]
        scan = plan_batch(index, queries, k=2)
        for spec in (TITAN_X, small_device()):
            launch = build_match_launch(scan, spec, 256)
            assert launch.atomic_conflicts == _per_query_conflicts(_counts(index, queries), spec.warp_size)

    def test_conflicts_for_a_warp_size_that_is_no_power_of_two(self):
        # Dividing once instead of per counter may move the last bit when the
        # division is inexact; no shipped spec has such a warp size.
        rng = np.random.default_rng(7)
        index = InvertedIndex.build(Corpus([rng.integers(0, 6, size=5) for _ in range(300)]))
        queries = [Query(items=[[kw] for kw in rng.integers(0, 6, size=90)]) for _ in range(12)]
        scan = plan_batch(index, queries, k=3)
        assert scan.count_hist.size > 24
        launch = build_match_launch(scan, DeviceSpec(warp_size=24), 256)
        assert launch.atomic_conflicts == pytest.approx(_per_query_conflicts(_counts(index, queries), 24), rel=1e-12)
