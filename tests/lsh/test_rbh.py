"""Tests for Random Binning Hashing (Laplacian kernel)."""

import numpy as np
import pytest

from repro.lsh.murmur import _CHUNK_CELLS, hash_combine
from repro.lsh.rbh import RandomBinningHash, estimate_kernel_width, laplacian_kernel


class TestLaplacianKernel:
    def test_identical_points(self):
        p = np.ones(4)
        assert laplacian_kernel(p, p, sigma=2.0) == 1.0

    def test_decreasing_in_distance(self):
        p = np.zeros(4)
        assert laplacian_kernel(p, p + 0.5, 2.0) > laplacian_kernel(p, p + 2.0, 2.0)

    def test_known_value(self):
        assert laplacian_kernel(np.zeros(1), np.ones(1), sigma=1.0) == pytest.approx(np.exp(-1))


class TestKernelWidthEstimate:
    def test_positive_and_deterministic(self):
        points = np.random.default_rng(0).standard_normal((100, 8))
        w1 = estimate_kernel_width(points, seed=1)
        w2 = estimate_kernel_width(points, seed=1)
        assert w1 == w2 > 0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_kernel_width(np.zeros((1, 4)))


class TestRandomBinningHash:
    def test_signature_shape(self):
        family = RandomBinningHash(8, dim=4, sigma=2.0, seed=0)
        sig = family.hash_points(np.zeros((3, 4)))
        assert sig.shape == (3, 8)

    def test_grid_coordinates_shape(self):
        family = RandomBinningHash(8, dim=4, sigma=2.0, seed=0)
        cells = family.grid_coordinates(np.zeros((3, 4)))
        assert cells.shape == (3, 8, 4)

    def test_identical_points_collide_everywhere(self):
        family = RandomBinningHash(16, dim=4, sigma=2.0, seed=0)
        p = np.random.default_rng(0).standard_normal(4)
        assert family.empirical_collision_rate(p, p) == 1.0

    def test_chunked_hashing_consistent(self):
        family = RandomBinningHash(6, dim=4, sigma=2.0, seed=0)
        points = np.random.default_rng(1).standard_normal((20, 4))
        assert np.array_equal(
            family.hash_points(points, chunk=3), family.hash_points(points, chunk=512)
        )

    @pytest.mark.parametrize("m, d", [(6, 4), (1, 4), (6, 1), (1, 1)])
    def test_matches_per_function_fold(self, m, d):
        """The fused pass equals the loop it replaced: function ``j``'s
        cells folded on their own under seed ``j + 1``."""
        family = RandomBinningHash(m, dim=d, sigma=2.0, seed=0)
        points = np.random.default_rng(2).standard_normal((9, d))
        cells = family.grid_coordinates(points)
        expected = np.stack(
            [hash_combine(cells[:, j, :], seed=j + 1) for j in range(m)], axis=1
        ).astype(np.int64)
        got = family.hash_points(points)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("chunk", [1, 7, 19, 20, 21])
    def test_n_not_a_multiple_of_the_chunk(self, chunk):
        family = RandomBinningHash(6, dim=4, sigma=2.0, seed=0)
        points = np.random.default_rng(1).standard_normal((20, 4))
        assert np.array_equal(family.hash_points(points, chunk), family.hash_points(points))

    def test_default_chunk_is_an_element_budget(self):
        """More rows than one default chunk holds (and a ragged tail):
        same signatures as one big chunk, and as row-at-a-time."""
        family = RandomBinningHash(40, dim=50, sigma=2.0, seed=0)
        n = 2 * (_CHUNK_CELLS // (40 * 50)) + 3
        points = np.random.default_rng(3).standard_normal((n, 50))
        default = family.hash_points(points)
        assert np.array_equal(default, family.hash_points(points, chunk=n))
        assert np.array_equal(default[:5], family.hash_points(points[:5], chunk=1))
        # A single row wider than the whole budget still hashes (chunk >= 1).
        wide = RandomBinningHash(_CHUNK_CELLS // 4 + 1, dim=5, sigma=2.0, seed=0)
        assert wide.hash_points(np.zeros((2, 5))).shape == (2, _CHUNK_CELLS // 4 + 1)

    def test_single_point_and_empty_batch(self):
        family = RandomBinningHash(6, dim=4, sigma=2.0, seed=0)
        points = np.random.default_rng(1).standard_normal((3, 4))
        whole = family.hash_points(points)
        assert np.array_equal(family.hash_points(points[1]), whole[1:2])  # (d,) -> (1, m)
        assert np.array_equal(family.hash_points(points[1:2]), whole[1:2])
        empty = family.hash_points(np.zeros((0, 4)))
        assert empty.shape == (0, 6) and empty.dtype == np.int64

    def test_collision_rate_tracks_kernel(self):
        """Expected collision probability equals the Laplacian kernel."""
        rng = np.random.default_rng(7)
        family = RandomBinningHash(2500, dim=6, sigma=4.0, seed=2)
        p = rng.standard_normal(6)
        q = p + rng.standard_normal(6) * 0.3
        empirical = family.empirical_collision_rate(p, q)
        predicted = family.collision_probability(p, q)
        assert empirical == pytest.approx(predicted, abs=0.05)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            RandomBinningHash(4, dim=4, sigma=0.0)

    def test_dim_mismatch(self):
        family = RandomBinningHash(4, dim=4, sigma=1.0)
        with pytest.raises(ValueError):
            family.hash_points(np.zeros((2, 7)))
