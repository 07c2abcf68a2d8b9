"""Tests for the MinHash (Jaccard) and SimHash (angular) families."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.minhash import MinHash, jaccard
from repro.lsh.simhash import SimHash, angular_similarity


class TestJaccard:
    def test_values(self):
        assert jaccard([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert jaccard([1], [1]) == 1.0
        assert jaccard([1], [2]) == 0.0
        assert jaccard([], []) == 1.0


class TestMinHash:
    def test_signature_shape(self):
        family = MinHash(16, seed=0)
        sig = family.hash_points([[1, 2], [3]])
        assert sig.shape == (2, 16)

    def test_identical_sets_collide(self):
        family = MinHash(32, seed=0)
        hp = family.hash_set([1, 2, 3])
        hq = family.hash_set([3, 2, 1])
        assert np.array_equal(hp, hq)

    def test_collision_rate_tracks_jaccard(self):
        family = MinHash(2000, seed=1)
        a = list(range(0, 60))
        b = list(range(20, 80))  # Jaccard = 40/80 = 0.5
        hp = family.hash_set(a)
        hq = family.hash_set(b)
        rate = float(np.mean(hp == hq))
        assert rate == pytest.approx(jaccard(a, b), abs=0.05)

    def test_empty_set_sentinel(self):
        family = MinHash(4, seed=0)
        assert (family.hash_set([]) == -1).all()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 2**40), max_size=8), max_size=8), st.integers(1, 5))
    def test_batch_signatures_equal_hash_set_per_set(self, sets, num_functions):
        # Empty sets, duplicates and unsorted input included: hash_set is the specification.
        family = MinHash(num_functions, seed=2)
        batch = family.hash_points(sets)
        assert batch.shape == (len(sets), num_functions) and batch.dtype == np.int64
        for signature, elements in zip(batch, sets):
            assert np.array_equal(signature, family.hash_set(elements))
        as_arrays = family.hash_points([np.asarray(elements, dtype=np.int64) for elements in sets])
        assert np.array_equal(as_arrays, batch)

    def test_batch_signatures_golden_digest(self):
        # Recorded from the per-set loop this batch pass replaced.
        rng = np.random.default_rng(7)
        sets = [rng.integers(0, 10_000, size=int(size)).tolist() for size in rng.integers(0, 40, size=64)]
        sets[5] = []
        signatures = MinHash(24, seed=9).hash_points(sets)
        assert (signatures[5] == -1).all()
        digest = hashlib.sha256(np.ascontiguousarray(signatures).tobytes()).hexdigest()
        assert digest == "1c244ac8ba4c30e94ed9c8a703de7bfdf4833ec8aa24032c62d1543a680c50a9"

    def test_batch_pass_hashes_all_sets_in_one_murmur_call(self, monkeypatch):
        import repro.lsh.minhash as module

        calls = []
        murmur = module.murmur3_int64
        monkeypatch.setattr(module, "murmur3_int64", lambda keys: calls.append(keys.size) or murmur(keys))
        sets = [[1, 2, 2], [], [3], [9, 1]]
        family = MinHash(4, seed=0)
        whole = family.hash_points(sets)
        assert calls == [5]  # the distinct elements of every set, once
        monkeypatch.setattr(module, "_TABLE_CELLS", 7)  # one function per block of the table
        assert np.array_equal(family.hash_points(sets), whole)
        assert np.array_equal(whole, np.vstack([family.hash_set(elements) for elements in sets]))


class TestAngularSimilarity:
    def test_parallel_vectors(self):
        v = np.array([1.0, 2.0])
        assert angular_similarity(v, 3 * v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert angular_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_opposite_vectors(self):
        v = np.array([1.0, 0.0])
        assert angular_similarity(v, -v) == pytest.approx(0.0)

    def test_zero_vector(self):
        assert angular_similarity(np.zeros(2), np.ones(2)) == 1.0


class TestSimHash:
    def test_signature_binary(self):
        family = SimHash(16, dim=8, seed=0)
        sig = family.hash_points(np.random.default_rng(0).standard_normal((5, 8)))
        assert set(np.unique(sig)) <= {0, 1}

    def test_collision_rate_tracks_angle(self):
        rng = np.random.default_rng(3)
        family = SimHash(3000, dim=16, seed=2)
        a = rng.standard_normal(16)
        b = a + rng.standard_normal(16) * 0.5
        empirical = family.empirical_collision_rate(a, b)
        assert empirical == pytest.approx(family.collision_probability(a, b), abs=0.04)

    def test_dim_mismatch(self):
        family = SimHash(4, dim=8)
        with pytest.raises(ValueError):
            family.hash_points(np.zeros((1, 3)))
