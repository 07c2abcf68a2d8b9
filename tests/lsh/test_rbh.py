"""Tests for Random Binning Hashing (Laplacian kernel)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.lsh import rbh
from repro.lsh.murmur import _CHUNK_CELLS, hash_combine, murmur3_int64
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

    @pytest.mark.parametrize("splits", [(1,), (7,), (3, 4, 19), (19,), (10, 11)])
    def test_batch_split_invariance(self, splits):
        """The cell table is built from each batch's own range, yet any
        split of the points hashes to the rows of the whole batch."""
        family = RandomBinningHash(6, dim=4, sigma=2.0, seed=0)
        points = np.random.default_rng(1).standard_normal((20, 4))
        whole = family.hash_points(points)
        for a, b in zip((0, *splits), (*splits, 20)):
            assert np.array_equal(family.hash_points(points[a:b]), whole[a:b])

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

    def test_batches_past_the_cell_budget(self):
        """More rows than one chunk holds (and a ragged tail): each slice
        of rows hashes as a batch of its own does."""
        family = RandomBinningHash(40, dim=50, sigma=2.0, seed=0)
        n = 2 * (_CHUNK_CELLS // 40) + 3
        points = np.random.default_rng(3).standard_normal((n, 50))
        whole = family.hash_points(points)
        for rows in (slice(0, 5), slice(_CHUNK_CELLS // 40 - 2, _CHUNK_CELLS // 40 + 2), slice(n - 4, n)):
            assert np.array_equal(family.hash_points(points[rows]), whole[rows])
        # A single row wider than the whole budget still hashes.
        wide = RandomBinningHash(_CHUNK_CELLS // 4 + 1, dim=5, sigma=2.0, seed=0)
        assert wide.hash_points(np.zeros((2, 5))).shape == (2, _CHUNK_CELLS // 4 + 1)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(1, 6),
        d=st.integers(1, 6),
        n=st.sampled_from([0, 1, 2]) | st.integers(0, 40),
        sigma=st.sampled_from([1e-7, 1e-3]) | st.floats(0.05, 50.0),
        offset=st.sampled_from([0.0, -3e9, 1e9]),
        budget=st.integers(1, 120),
        seed=st.integers(0, 2**16),
    )
    def test_equals_fold_of_grid_coordinates(self, m, d, n, sigma, offset, budget, seed):
        """The cell table (and, for a tiny ``sigma``, the wide-range branch
        that murmurs the cells) is bit for bit ``hash_combine`` of the grid
        coordinates, function ``j`` seeded with ``j + 1`` — under a cell
        budget small enough that rows split into chunks and dimensions
        into blocks."""
        family = RandomBinningHash(m, dim=d, sigma=sigma, seed=seed)
        points = np.random.default_rng(seed).standard_normal((n, d)) * 4.0 + offset
        expected = hash_combine(family.grid_coordinates(points), seed=np.arange(1, m + 1))
        with mock.patch.object(rbh, "_CHUNK_CELLS", budget):
            got = family.hash_points(points)
        assert got.shape == (n, m) and got.dtype == np.int64
        assert np.array_equal(got, expected.reshape(n, m))

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 6),
        d=st.integers(1, 6),
        n=st.integers(2, 40),
        sigma=st.floats(0.5, 20.0),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_range_past_the_budget_murmurs_the_cells(self, m, d, n, sigma, fraction, seed):
        """A cell range under the batch's cell count but at or past the cell
        budget builds no table (every murmur call is 2-D) and still equals
        ``hash_combine`` of the grid coordinates."""
        family = RandomBinningHash(m, dim=d, sigma=sigma, seed=seed)
        points = np.random.default_rng(seed).standard_normal((n, d)) * 4.0
        cells = family.grid_coordinates(points)
        span = int(cells.max() - cells.min())
        assume(1 <= span < n * m * d)
        budget = 1 + int(fraction * (span - 1))  # 1 <= budget <= span
        calls = []

        def counted(values, seed=0):
            calls.append(np.shape(values))
            return murmur3_int64(values, seed)

        with mock.patch.object(rbh, "_CHUNK_CELLS", budget), mock.patch.object(rbh, "murmur3_int64", counted):
            got = family.hash_points(points)
        assert np.array_equal(got, hash_combine(cells, seed=np.arange(1, m + 1)))
        assert calls and all(len(shape) == 2 for shape in calls)

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
