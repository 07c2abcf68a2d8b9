"""Tests for the per-query planner (specification) and launch assembly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.match_count import match_counts_all
from repro.core.reference import plan_batch, plan_query_scan
from repro.core.scan_kernel import build_match_launch, build_select_launch
from repro.core.types import Corpus, Query
from repro.gpu.specs import TITAN_X


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


class TestLaunchAssembly:
    def _scan(self):
        index = InvertedIndex.build(_corpus())
        return plan_batch(index, [Query(items=[[1], [3]]), Query(items=[[2, 4]])], k=2)

    def test_match_launch_covers_all_blocks(self):
        scan = self._scan()
        launch = build_match_launch(scan, TITAN_X, 256, use_cpq=True)
        assert launch.num_blocks == scan.block_sizes.size == 3
        assert launch.total_items == int(scan.updates.sum())

    def test_cpq_launch_has_gate_traffic(self):
        scan = self._scan()
        cpq = build_match_launch(scan, TITAN_X, 256, use_cpq=True)
        table = build_match_launch(scan, TITAN_X, 256, use_cpq=False)
        assert cpq.uncoalesced_bytes > 0
        assert table.uncoalesced_bytes == 0
        assert cpq.name != table.name

    def test_select_launch_one_block_per_query(self):
        launch = build_select_launch(2, ht_capacity=64, k=2, threads_per_block=128)
        assert launch.num_blocks == 2
        assert launch.total_items == 128
