"""Tests for the atomic-contention estimators."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.atomics import conflict_count, conflicts_from_histogram


class TestConflictCount:
    def test_no_ops_no_conflicts(self):
        assert conflict_count(0, 10, 32) == 0.0

    def test_plentiful_targets_no_conflicts(self):
        assert conflict_count(1000, 10_000, 32) == 0.0

    def test_single_target_serializes(self):
        assert conflict_count(1000, 1, 32) > 0.0

    def test_more_targets_fewer_conflicts(self):
        few = conflict_count(1000, 2, 32)
        many = conflict_count(1000, 16, 32)
        assert many < few


class TestConflictsFromHistogram:
    def test_empty_histogram(self):
        assert conflicts_from_histogram(np.array([]), 32) == 0.0

    def test_all_unique_targets_no_conflicts(self):
        hits = np.ones(1000)
        assert conflicts_from_histogram(hits, 32) == 0.0

    def test_hot_target_generates_conflicts(self):
        hits = np.array([64.0])
        assert conflicts_from_histogram(hits, 32) > 0.0

    def test_zero_entries_ignored(self):
        with_zeros = np.array([0, 0, 5, 0])
        without = np.array([5])
        assert conflicts_from_histogram(with_zeros, 32) == conflicts_from_histogram(without, 32)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50))
    def test_non_negative_and_bounded(self, hits):
        hits_arr = np.asarray(hits, dtype=np.float64)
        conflicts = conflicts_from_histogram(hits_arr, 32)
        assert conflicts >= 0.0
        # Never more retries than total hits times the max per-warp rounds.
        assert conflicts <= hits_arr.sum() * 32

    @given(st.integers(1, 100))
    def test_monotone_in_concentration(self, h):
        # The same hits on one address conflict at least as much as spread
        # over two addresses.
        one = conflicts_from_histogram(np.array([2 * h], dtype=float), 32)
        two = conflicts_from_histogram(np.array([h, h], dtype=float), 32)
        assert one >= two

    @given(st.lists(st.integers(0, 200), max_size=60), st.sampled_from([8, 32, 64]))
    def test_binned_by_hit_count_equals_per_target(self, hits, warp_size):
        # targets[h] addresses took h hits each: same estimate, to the last
        # bit for a power-of-two warp (every term is a multiple of 1/warp).
        hits_arr = np.asarray(hits, dtype=np.int64)
        targets = np.bincount(hits_arr)
        binned = conflicts_from_histogram(np.arange(targets.size), warp_size, targets)
        assert binned == conflicts_from_histogram(hits_arr, warp_size)
