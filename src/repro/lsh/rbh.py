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
it to one integer per function, bit for bit ``hash_combine`` of the cells
with function ``j`` seeded ``j + 1``, murmuring each distinct cell of a
batch once; :mod:`repro.lsh.rehash` then buckets it into ``[0, D)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.lsh.family import LshFamily, finite_points
from repro.lsh.murmur import _CHUNK_CELLS, fold_components, murmur3_int64


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
        points = finite_points(np.asarray(points, dtype=np.float64), self.dim)
        # (n, 1, d) against (m, d) broadcast to (n, m, d).
        cells = np.floor((points[:, None, :] - self._shift[None, :, :]) / self._pitch[None, :, :])
        return cells.astype(np.int64)

    def hash_points(self, points: np.ndarray) -> np.ndarray:
        """Signatures folded to one integer per (point, function).

        ``floor((x - u) / delta)`` is monotone in ``x``: the batch's per-dimension ``min`` / ``max``
        bound its cells. Their range is murmured once into a table or, if it is wider than
        ``murmur._CHUNK_CELLS`` or the batch's cell count (a tiny ``sigma``), each cell is.
        """
        points = finite_points(np.asarray(points, dtype=np.float64), self.dim)
        n, m, d = points.shape[0], self.num_functions, self.dim
        folded = np.empty((n, m), dtype=np.int64)
        if n == 0:
            return folded
        # Each (dimension, function)'s cells over the batch lie in [low, high].
        low, high = (np.floor((v - self._shift) / self._pitch).T for v in (points.min(0), points.max(0)))
        lo, hi = low.min(), high.max()
        narrow = hi - lo < min(n * m * d, _CHUNK_CELLS) and -(2.0**63) <= lo and hi < 2.0**63
        table = murmur3_int64(np.arange(int(lo), int(hi) + 1)) if narrow else None
        def mix(cells: np.ndarray) -> np.ndarray:  # cell - lo is exact (< 2**53)
            return table.take((cells - lo).astype(np.intp)) if narrow else murmur3_int64(cells.astype(np.int64))
        # A pair whose whole batch shares one cell mixes it once; only the others are computed per point.
        shared, (vary_j, vary_f) = mix(low), np.nonzero(low != high)
        rows = max(1, _CHUNK_CELLS // m)
        for start in range(0, n, rows):
            chunk = points[start : start + rows]
            state = np.arange(1, m + 1)
            step = max(1, _CHUNK_CELLS // (len(chunk) * m))
            for first in range(0, d, step):
                mixed = np.repeat(shared[first : first + step, None, :], len(chunk), axis=1)
                block = slice(*np.searchsorted(vary_j, [first, first + step]))
                j, f = vary_j[block], vary_f[block]
                cells = np.floor((chunk[:, j] - self._shift[f, j]) / self._pitch[f, j])
                mixed[j - first, :, f] = mix(cells).T
                state = fold_components(mixed, state)
            folded[start : start + rows] = state
        return folded

    def similarity(self, p: np.ndarray, q: np.ndarray) -> float:
        """The Laplacian kernel value."""
        return laplacian_kernel(p, q, self.sigma)

    def collision_probability(self, p: np.ndarray, q: np.ndarray) -> float:
        """Expected collision probability equals the kernel (Rahimi & Recht)."""
        return self.similarity(p, q)
