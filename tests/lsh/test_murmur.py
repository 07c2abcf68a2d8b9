"""Tests for MurmurHash3 — scalar reference vs vectorized implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.lsh.murmur import hash_combine, murmur3_32, murmur3_int64

_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1, -1, 0])
_SEED32 = st.integers(0, 2**32 - 1)


def _scalar(value, seed):
    return murmur3_32(int(value).to_bytes(8, "little", signed=True), seed=int(seed))


class TestScalar:
    def test_known_reference_vectors(self):
        # Published MurmurHash3_x86_32 test vectors.
        assert murmur3_32(b"", 0) == 0
        assert murmur3_32(b"", 1) == 0x514E28B7
        assert murmur3_32(b"hello", 0) == 0x248BFA47
        assert murmur3_32(b"hello, world", 0) == 0x149BBB7F

    def test_seed_changes_hash(self):
        assert murmur3_32(b"abc", 0) != murmur3_32(b"abc", 1)


class TestVectorized:
    @settings(max_examples=60)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=30), st.integers(0, 2**31 - 1))
    def test_matches_scalar_bytes_hash(self, values, seed):
        arr = np.asarray(values, dtype=np.int64)
        vec = murmur3_int64(arr, seed=seed)
        for v, h in zip(values, vec):
            expected = murmur3_32(int(v).to_bytes(8, "little", signed=True), seed=seed)
            assert int(h) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_seed_row_matches_scalar_reference(self, data):
        """``(n, m)`` values under a length-``m`` seed row: column ``j`` is
        hashed with ``seeds[j]``, bit-for-bit the scalar reference."""
        n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        arr = data.draw(hnp.arrays(np.int64, (n, m), elements=_INT64))
        seeds = data.draw(hnp.arrays(np.int64, (m,), elements=_SEED32))
        vec = murmur3_int64(arr, seed=seeds)
        assert vec.shape == (n, m) and vec.dtype == np.uint32
        for i in range(n):
            for j in range(m):
                assert int(vec[i, j]) == _scalar(arr[i, j], seeds[j])

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=4, max_side=4),
                      elements=_INT64), _SEED32)
    def test_any_shape_equals_flat(self, arr, seed):
        flat = murmur3_int64(arr.reshape(-1), seed=seed)
        assert np.array_equal(murmur3_int64(arr, seed=seed), flat.reshape(arr.shape))
        # A per-element seed array of the full shape is the same thing.
        full = np.full(arr.shape, seed, dtype=np.uint64)
        assert np.array_equal(murmur3_int64(arr, seed=full), flat.reshape(arr.shape))

    def test_input_is_not_modified(self):
        arr = np.arange(-5, 5, dtype=np.int64).reshape(2, 5)
        before = arr.copy()
        murmur3_int64(arr, seed=np.arange(5))
        hash_combine(arr, seed=np.arange(2))
        assert np.array_equal(arr, before)

    def test_seed_that_does_not_broadcast_is_a_config_error(self):
        arr = np.zeros((4, 3), dtype=np.int64)
        with pytest.raises(ConfigError, match="does not broadcast"):
            murmur3_int64(arr, seed=np.arange(4))
        with pytest.raises(ConfigError, match="integer"):
            murmur3_int64(arr, seed=np.ones(3))

    def test_deterministic(self):
        arr = np.arange(100, dtype=np.int64)
        assert np.array_equal(murmur3_int64(arr, 7), murmur3_int64(arr, 7))

    def test_distribution_roughly_uniform(self):
        hashes = murmur3_int64(np.arange(100_000, dtype=np.int64)) % 16
        counts = np.bincount(hashes.astype(np.int64), minlength=16)
        assert counts.min() > 100_000 / 16 * 0.9


class TestHashCombine:
    def test_equal_rows_equal_hashes(self):
        rows = np.array([[1, 2, 3], [1, 2, 3], [1, 2, 4]])
        h = hash_combine(rows)
        assert h[0] == h[1]
        assert h[0] != h[2]

    def test_order_matters(self):
        a = hash_combine(np.array([[1, 2]]))
        b = hash_combine(np.array([[2, 1]]))
        assert a[0] != b[0]

    def test_one_dimensional_input(self):
        h = hash_combine(np.array([5, 5, 6]))
        assert h[0] == h[1]
        assert h.shape == (3,)

    @settings(max_examples=30)
    @given(
        st.lists(
            st.lists(st.integers(-100, 100), min_size=3, max_size=3), min_size=2, max_size=10
        )
    )
    def test_collisions_only_for_equal_rows(self, rows):
        arr = np.asarray(rows, dtype=np.int64)
        hashes = hash_combine(arr)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i] == rows[j]:
                    assert hashes[i] == hashes[j]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_seed_vector_folds_each_function_separately(self, data):
        """``(n, m, d)`` cells under a length-``m`` seed vector: slice ``j``
        is the 2-D fold of function ``j``'s cells under ``seeds[j]``."""
        n, m, d = (data.draw(st.integers(1, 5)) for _ in range(3))
        cells = data.draw(hnp.arrays(np.int64, (n, m, d), elements=_INT64))
        seeds = data.draw(hnp.arrays(np.int64, (m,), elements=_SEED32))
        fused = hash_combine(cells, seed=seeds)
        assert fused.shape == (n, m) and fused.dtype == np.uint32
        for j in range(m):
            assert np.array_equal(fused[:, j], hash_combine(cells[:, j, :], seed=int(seeds[j])))

    @settings(max_examples=40, deadline=None)
    @given(hnp.arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
                      elements=_INT64), _SEED32)
    def test_two_d_fold_matches_scalar_recurrence(self, arr, seed):
        """The documented recurrence, in pure-Python integers."""
        def fmix(h):
            h ^= h >> 16
            h = (h * 0x85EBCA6B) & 0xFFFFFFFF
            h ^= h >> 13
            h = (h * 0xC2B2AE35) & 0xFFFFFFFF
            return h ^ (h >> 16)

        for row, got in zip(arr, hash_combine(arr, seed=seed)):
            state = seed
            for value in row:
                state = fmix((state * 31 + _scalar(value, 0)) & 0xFFFFFFFF)
            assert int(got) == state

    @settings(max_examples=30, deadline=None)
    @given(hnp.arrays(np.int64, st.integers(0, 8), elements=_INT64), _SEED32)
    def test_one_dimensional_input_is_n_single_component_vectors(self, arr, seed):
        assert np.array_equal(hash_combine(arr, seed=seed), hash_combine(arr[:, None], seed=seed))

    def test_seed_that_does_not_broadcast_is_a_config_error(self):
        cells = np.zeros((4, 3, 2), dtype=np.int64)
        with pytest.raises(ConfigError, match="does not broadcast"):
            hash_combine(cells, seed=np.arange(2))  # one seed per component, not per function
