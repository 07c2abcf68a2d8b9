"""Tests for the bit-packed Bitmap Counter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.reference.bitmap_counter import BitmapCounter
from repro.core.engine import bits_for_bound
from repro.errors import ConfigError


class TestBitsForBound:
    def test_thresholds(self):
        assert bits_for_bound(0) == 1
        assert bits_for_bound(1) == 1
        assert bits_for_bound(2) == 2
        assert bits_for_bound(3) == 2
        assert bits_for_bound(4) == 4
        assert bits_for_bound(15) == 4
        assert bits_for_bound(16) == 8
        assert bits_for_bound(255) == 8
        assert bits_for_bound(256) == 16

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            bits_for_bound(-1)

    def test_huge_bound_rejected(self):
        with pytest.raises(ConfigError):
            bits_for_bound(2**33)


class TestBitmapCounter:
    def test_memory_footprint_packs(self):
        # 64 counters x 4 bits = 32 bytes (8 uint32 words).
        bc = BitmapCounter(64, count_bound=15)
        assert bc.bits == 4
        assert bc.nbytes == 32

    def test_increment_and_get(self):
        bc = BitmapCounter(10, count_bound=7)
        assert bc.increment(3) == 1
        assert bc.increment(3) == 2
        assert bc.get(3) == 2
        assert bc.get(4) == 0

    def test_neighbours_in_same_word_independent(self):
        bc = BitmapCounter(8, count_bound=7, bits=4)
        bc.increment(0)
        bc.increment(1)
        bc.increment(1)
        assert bc.get(0) == 1
        assert bc.get(1) == 2
        assert bc.get(2) == 0

    def test_saturation(self):
        bc = BitmapCounter(4, count_bound=3, bits=2)
        for _ in range(10):
            bc.increment(0)
        assert bc.get(0) == 3

    def test_out_of_range_rejected(self):
        bc = BitmapCounter(4, count_bound=3)
        with pytest.raises(IndexError):
            bc.increment(4)
        with pytest.raises(IndexError):
            bc.get(-1)

    def test_bits_too_small_for_bound_rejected(self):
        with pytest.raises(ConfigError):
            BitmapCounter(4, count_bound=100, bits=2)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ConfigError):
            BitmapCounter(4, count_bound=3, bits=3)

    def test_reset(self):
        bc = BitmapCounter(4, count_bound=3)
        bc.increment(2)
        bc.reset()
        assert bc.to_array().tolist() == [0, 0, 0, 0]

    def test_load_counts_roundtrip(self):
        bc = BitmapCounter(6, count_bound=15)
        counts = np.array([0, 3, 15, 1, 7, 2])
        bc.load_counts(counts)
        assert np.array_equal(bc.to_array(), counts)

    def test_load_counts_saturates(self):
        bc = BitmapCounter(2, count_bound=3, bits=2)
        bc.load_counts(np.array([9, 1]))
        assert bc.to_array().tolist() == [3, 1]

    def test_load_counts_shape_checked(self):
        bc = BitmapCounter(3, count_bound=3)
        with pytest.raises(ConfigError):
            bc.load_counts(np.array([1, 2]))

    @settings(max_examples=30)
    @given(
        st.integers(1, 100),
        st.sampled_from([1, 2, 4, 8, 16, 32]),
        st.data(),
    )
    def test_packed_counts_match_plain_array(self, n, bits, data):
        bound = (1 << bits) - 1
        bc = BitmapCounter(n, count_bound=bound, bits=bits)
        reference = np.zeros(n, dtype=np.int64)
        updates = data.draw(st.lists(st.integers(0, n - 1), max_size=200))
        for obj in updates:
            bc.increment(obj)
            reference[obj] = min(reference[obj] + 1, bound)
        assert np.array_equal(bc.to_array(), reference)
        assert np.array_equal(bc.get_many(np.arange(n)), reference)
