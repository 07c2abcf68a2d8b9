"""Random Binning Hashing for the Laplacian kernel (Rahimi & Recht).

For a shift-invariant kernel ``k`` with ``p(delta) = delta * k''(delta)`` a
probability density, an RBH function imposes a randomly shifted grid: per
dimension a pitch ``delta_j`` is drawn from ``p`` and a shift
``u_j ~ U[0, delta_j)``; the signature is the vector of grid coordinates
``floor((x_j - u_j) / delta_j)`` (Eqn. 2). Collisions happen with expected
probability ``k(p, q)``.

For the Laplacian kernel ``k(p,q) = exp(-||p-q||_1 / sigma)`` the pitch
density works out to ``Gamma(shape=2, scale=sigma)``.

The signature is a whole d-dimensional integer vector — the "huge signature
space" that motivates the paper's re-hashing mechanism. This module hashes
it to one integer per function (collision-free for practical purposes) —
the ``(rows, m, d)`` cell tensor of a chunk of points goes through one
:func:`~repro.lsh.murmur.hash_combine` pass, function ``j`` seeded with
``j + 1``; :mod:`repro.lsh.rehash` then buckets it into ``[0, D)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.lsh.family import LshFamily
from repro.lsh.murmur import _CHUNK_CELLS, hash_combine


def laplacian_kernel(p: np.ndarray, q: np.ndarray, sigma: float) -> float:
    """``exp(-||p - q||_1 / sigma)``."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return float(np.exp(-np.abs(diff).sum() / sigma))


def estimate_kernel_width(points: np.ndarray, n_samples: int = 1000, seed: int = 0) -> float:
    """The mean pairwise l1 distance of a sample — the paper's sigma heuristic.

    (Jaakkola's rule: set the kernel width to the mean paired distance of a
    random sample.)
    """
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = points.shape[0]
    if n < 2:
        raise ConfigError("need at least two points")
    left = rng.integers(0, n, size=n_samples)
    right = rng.integers(0, n, size=n_samples)
    keep = left != right
    if not keep.any():
        keep = np.ones_like(left, dtype=bool)
    distances = np.abs(points[left[keep]] - points[right[keep]]).sum(axis=1)
    return float(distances.mean())


class RandomBinningHash(LshFamily):
    """A batch of RBH functions for the Laplacian kernel.

    Args:
        num_functions: Number of functions ``m``.
        dim: Point dimensionality.
        sigma: Laplacian kernel width.
        seed: RNG seed for pitches and shifts.
    """

    def __init__(self, num_functions: int, dim: int, sigma: float, seed: int = 0):
        super().__init__(num_functions, seed)
        if sigma <= 0:
            raise ConfigError("sigma must be positive")
        self.dim = int(dim)
        self.sigma = float(sigma)
        rng = np.random.default_rng(seed)
        # Pitch per (function, dim): delta ~ Gamma(2, sigma); shift ~ U[0, delta).
        self._pitch = rng.gamma(shape=2.0, scale=self.sigma, size=(self.num_functions, self.dim))
        self._shift = rng.uniform(0.0, 1.0, size=(self.num_functions, self.dim)) * self._pitch

    def grid_coordinates(self, points: np.ndarray) -> np.ndarray:
        """Raw grid signatures: ``(n, m, d)`` integer coordinates (Eqn. 2)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise QueryError(f"expected dim {self.dim}, got {points.shape[1]}")
        # (n, 1, d) against (m, d) broadcast to (n, m, d).
        cells = np.floor((points[:, None, :] - self._shift[None, :, :]) / self._pitch[None, :, :])
        return cells.astype(np.int64)

    def hash_points(self, points: np.ndarray, chunk: int | None = None) -> np.ndarray:
        """Signatures folded to one integer per (point, function).

        The d-dimensional coordinate vector is murmur-combined; equal grid
        cells always fold to equal integers, so LSH collisions survive.
        Points are processed ``chunk`` rows at a time, each chunk's
        ``(rows, m, d)`` cell tensor in a single hash pass; the result
        does not depend on ``chunk``. By default a chunk holds a fixed
        budget of cells (``murmur._CHUNK_CELLS``), which bounds the
        intermediates whatever ``n``, ``m`` and ``d`` are.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n = points.shape[0]
        if chunk is None:
            chunk = max(1, _CHUNK_CELLS // max(1, self.num_functions * self.dim))
        seeds = np.arange(1, self.num_functions + 1)
        folded = np.empty((n, self.num_functions), dtype=np.int64)
        for start in range(0, n, chunk):
            cells = self.grid_coordinates(points[start : start + chunk])
            folded[start : start + chunk] = hash_combine(cells, seed=seeds)
        return folded

    def similarity(self, p: np.ndarray, q: np.ndarray) -> float:
        """The Laplacian kernel value."""
        return laplacian_kernel(p, q, self.sigma)

    def collision_probability(self, p: np.ndarray, q: np.ndarray) -> float:
        """Expected collision probability equals the kernel (Rahimi & Recht)."""
        return self.similarity(p, q)
