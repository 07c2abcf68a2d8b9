"""Tests for vectorized selection and c-PQ cost derivation."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.reference.reference import audit_threshold_from_counts, derive_cpq_cost, topk_from_counts


class TestTopkFromCounts:
    def test_ordering_count_desc_id_asc(self):
        result = topk_from_counts(np.array([3, 5, 5, 1]), k=3)
        assert result.as_pairs() == [(1, 5), (2, 5), (0, 3)]

    def test_zero_counts_excluded(self):
        result = topk_from_counts(np.array([0, 2, 0]), k=3)
        assert result.as_pairs() == [(1, 2)]

    def test_empty(self):
        assert len(topk_from_counts(np.array([]), k=3)) == 0
        assert len(topk_from_counts(np.array([1, 2]), k=0)) == 0

    def test_threshold_is_kth_count(self):
        result = topk_from_counts(np.array([9, 7, 5, 3]), k=2)
        assert result.threshold == 7

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=80), st.integers(1, 12))
    def test_matches_full_sort(self, counts, k):
        counts_arr = np.asarray(counts, dtype=np.int64)
        result = topk_from_counts(counts_arr, k)
        order = np.lexsort((np.arange(counts_arr.size), -counts_arr))
        expected = [
            (int(i), int(counts_arr[i])) for i in order[:k] if counts_arr[i] > 0
        ]
        assert result.as_pairs() == expected


class TestAuditThreshold:
    def test_matches_kth_plus_one(self):
        counts = np.array([4, 1, 3, 3])
        assert audit_threshold_from_counts(counts, 2) == 4  # kth=3 -> AT=4

    def test_k_exceeds_n(self):
        assert audit_threshold_from_counts(np.array([5]), 3) == 6

    def test_empty(self):
        assert audit_threshold_from_counts(np.array([]), 3) == 1

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 30), min_size=1, max_size=60), st.integers(1, 10))
    def test_definition(self, counts, k):
        counts_arr = np.asarray(counts, dtype=np.int64)
        at = audit_threshold_from_counts(counts_arr, k)
        kk = min(k, counts_arr.size)
        kth = np.sort(counts_arr)[::-1][kk - 1]
        assert at == kth + 1


class TestDeriveCpqCost:
    def test_fields_consistent(self):
        counts = np.array([5, 3, 0, 1])
        state = derive_cpq_cost(counts, k=2)
        assert state.updates == 9
        assert state.audit_threshold == 4
        assert 0 < state.ht_entries <= 3
        assert state.gate_passes >= 0

    def test_ht_entries_bounded_by_theorem(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 10, size=500)
        k = 7
        state = derive_cpq_cost(counts, k=k)
        assert state.ht_entries <= k * state.audit_threshold
        assert state.ht_entries <= int(np.count_nonzero(counts))

    def test_all_zero(self):
        state = derive_cpq_cost(np.zeros(10, dtype=np.int64), k=3)
        assert state.updates == 0
        assert state.audit_threshold == 1
        assert state.ht_entries == 0
