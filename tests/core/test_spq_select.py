"""Tests for the SPQ bucket k-selection (Appendix A)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import topk_from_counts
from repro.core.spq_select import spq_topk


class TestSpqTopk:
    def test_simple(self):
        result, trace = spq_topk(np.array([1, 9, 4, 7]), k=2)
        assert result.as_pairs() == [(1, 9), (3, 7)]
        assert trace.iterations >= 1

    def test_all_equal_counts(self):
        result, _ = spq_topk(np.full(10, 5), k=3)
        assert result.as_pairs() == [(0, 5), (1, 5), (2, 5)]

    def test_zero_counts_excluded(self):
        result, _ = spq_topk(np.array([0, 0, 2]), k=2)
        assert result.as_pairs() == [(2, 2)]

    def test_empty_and_zero_k(self):
        result, trace = spq_topk(np.array([]), k=5)
        assert len(result) == 0
        assert trace.elements_scanned == 0
        result, _ = spq_topk(np.array([1, 2]), k=0)
        assert len(result) == 0

    def test_k_exceeds_n(self):
        result, _ = spq_topk(np.array([3, 1]), k=10)
        assert result.as_pairs() == [(0, 3), (1, 1)]

    def test_trace_first_pass_scans_everything(self):
        counts = np.arange(1000)
        _, trace = spq_topk(counts, k=5)
        assert trace.elements_scanned >= 1000

    def test_multi_iteration_on_adversarial_ties(self):
        # Many ties around the k-th value force bucket recursion.
        counts = np.concatenate([np.full(500, 10), np.arange(500) % 10])
        result, trace = spq_topk(counts, k=100)
        assert all(c == 10 for _, c in result.as_pairs())
        assert trace.iterations >= 1

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200), st.integers(1, 20))
    def test_agrees_with_reference_selection(self, counts, k):
        counts_arr = np.asarray(counts, dtype=np.int64)
        spq_result, trace = spq_topk(counts_arr, k)
        reference = topk_from_counts(counts_arr, k)
        assert spq_result.as_pairs() == reference.as_pairs()
        # SPQ always scans at least the full array once (its cost signature).
        assert trace.elements_scanned >= counts_arr.size
