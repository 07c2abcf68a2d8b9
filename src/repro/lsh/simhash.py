"""Sign random projections (SimHash) for angular similarity.

Charikar's rounding-based family, cited by the paper as the origin of the
``Pr[h(p) = h(q)] = sim(p, q)`` definition: ``h(p) = sign(a . p)`` with a
Gaussian ``a`` collides with probability ``1 - theta(p, q) / pi``.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.family import LshFamily, finite_points


def angular_similarity(p: np.ndarray, q: np.ndarray) -> float:
    """``1 - theta / pi`` where theta is the angle between the vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    denom = np.linalg.norm(p) * np.linalg.norm(q)
    if denom == 0:
        return 1.0
    cosine = float(np.clip(p @ q / denom, -1.0, 1.0))
    return 1.0 - np.arccos(cosine) / np.pi


class SimHash(LshFamily):
    """A batch of sign-random-projection functions.

    Args:
        num_functions: Number of functions ``m``.
        dim: Point dimensionality.
        seed: RNG seed for the projection directions.
    """

    def __init__(self, num_functions: int, dim: int, seed: int = 0):
        super().__init__(num_functions, seed)
        self.dim = int(dim)
        rng = np.random.default_rng(seed)
        self._a = rng.standard_normal((self.dim, self.num_functions))

    def hash_points(self, points: np.ndarray) -> np.ndarray:
        """Signatures in {0, 1}: the sign bit of each projection."""
        points = finite_points(np.asarray(points, dtype=np.float64), self.dim)
        return (points @ self._a >= 0).astype(np.int64)

    def similarity(self, p: np.ndarray, q: np.ndarray) -> float:
        """Angular similarity ``1 - theta/pi``."""
        return angular_similarity(p, q)

    def collision_probability(self, p: np.ndarray, q: np.ndarray) -> float:
        """Equal to the angular similarity (Goemans-Williamson rounding)."""
        return self.similarity(p, q)
