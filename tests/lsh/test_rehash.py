"""Tests for the re-hashing mechanism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.murmur import _CHUNK_CELLS, murmur3_int64
from repro.lsh.rehash import ReHasher


class TestReHasher:
    def test_buckets_within_domain(self):
        rh = ReHasher(num_functions=4, domain=67, seed=0)
        sig = np.random.default_rng(0).integers(-(10**9), 10**9, size=(50, 4))
        buckets = rh.rehash(sig)
        assert buckets.shape == (50, 4)
        assert buckets.min() >= 0
        assert buckets.max() < 67

    def test_equal_signatures_equal_buckets(self):
        rh = ReHasher(num_functions=2, domain=100, seed=0)
        sig = np.array([[5, 9], [5, 9]])
        buckets = rh.rehash(sig)
        assert np.array_equal(buckets[0], buckets[1])

    def test_functions_use_independent_seeds(self):
        rh = ReHasher(num_functions=2, domain=10_000, seed=0)
        # Same signature value in both columns should (almost surely) land
        # in different buckets because each function has its own seed.
        buckets = rh.rehash(np.array([[12345, 12345]]))
        assert buckets[0, 0] != buckets[0, 1]

    def test_keywords_offset_per_function(self):
        rh = ReHasher(num_functions=3, domain=50, seed=0)
        keywords = rh.keywords(np.zeros((4, 3), dtype=np.int64))
        for j in range(3):
            assert (keywords[:, j] >= j * 50).all()
            assert (keywords[:, j] < (j + 1) * 50).all()

    def test_column_mismatch_rejected(self):
        rh = ReHasher(num_functions=3, domain=50)
        with pytest.raises(ValueError):
            rh.rehash(np.zeros((4, 2), dtype=np.int64))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReHasher(0, 10)
        with pytest.raises(ValueError):
            ReHasher(1, 0)

    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_per_function_rehash(self, m):
        """The fused pass equals the loop it replaced: column ``j`` hashed
        on its own under function ``j``'s seed, then bucketed."""
        rh = ReHasher(m, domain=67, seed=3)
        sig = np.random.default_rng(0).integers(-(2**63), 2**63 - 1, size=(40, m))
        expected = np.stack(
            [murmur3_int64(sig[:, j], seed=int(rh._seeds[j])) % 67 for j in range(m)], axis=1
        )
        got = rh.rehash(sig)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_one_dimensional_signature_is_one_row(self):
        rh = ReHasher(4, domain=67, seed=1)
        sig = np.array([[3, -9, 2**40, 0], [1, 2, 3, 4]])
        assert np.array_equal(rh.rehash(sig[0]), rh.rehash(sig)[0:1])
        assert rh.rehash(sig[0]).shape == (1, 4)
        assert np.array_equal(rh.keywords(sig[1]), rh.keywords(sig)[1:2])

    def test_empty_and_row_blocked_matrices(self):
        rh = ReHasher(8, domain=67, seed=1)
        empty = rh.rehash(np.zeros((0, 8), dtype=np.int64))
        assert empty.shape == (0, 8) and empty.dtype == np.int64
        # More rows than one hash pass holds, with a ragged last block.
        n = 2 * (_CHUNK_CELLS // 8) + 5
        sig = np.random.default_rng(1).integers(-(10**12), 10**12, size=(n, 8))
        whole = rh.rehash(sig)
        for rows in (slice(0, 3), slice(_CHUNK_CELLS // 8 - 1, _CHUNK_CELLS // 8 + 2), slice(n - 2, n)):
            assert np.array_equal(whole[rows], rh.rehash(sig[rows]))

    def test_deterministic_by_seed(self):
        sig = np.arange(12).reshape(4, 3)
        a = ReHasher(3, 67, seed=5).rehash(sig)
        b = ReHasher(3, 67, seed=5).rehash(sig)
        assert np.array_equal(a, b)

    @settings(max_examples=30)
    @given(st.integers(1, 6), st.integers(1, 500), st.integers(0, 1000))
    def test_false_collision_rate_near_one_over_domain(self, m, domain, seed):
        """Distinct signatures collide with probability about 1/D."""
        rh = ReHasher(m, domain, seed=seed)
        sig = np.arange(200 * m, dtype=np.int64).reshape(200, m)
        buckets = rh.rehash(sig)
        # Sanity: all in range (statistical collision-rate asserted in the
        # dedicated statistical test below for a fixed configuration).
        assert buckets.min() >= 0
        assert buckets.max() < domain

    def test_false_collision_statistics(self):
        rh = ReHasher(1, domain=64, seed=0)
        sig = np.arange(20_000, dtype=np.int64).reshape(-1, 1)
        buckets = rh.rehash(sig)[:, 0]
        # Pairwise collision rate between consecutive distinct signatures.
        rate = float(np.mean(buckets[:-1] == buckets[1:]))
        assert rate == pytest.approx(1 / 64, abs=0.01)
