"""E2LSH: p-stable locality-sensitive hashing for lp norms (Datar et al.).

``h(q) = floor((a . q + b) / w)`` with ``a`` drawn from a p-stable
distribution (Gaussian for l2, Cauchy for l1) and ``b ~ U[0, w)``. The
collision probability is the strictly decreasing ``psi_p`` of Eqn. 11,
which the paper takes as the similarity measure ``sim_lp`` (Eqn. 12) that
GENIE's tau-ANN search then targets.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.lsh.family import LshFamily


def psi_l2(distance: float, width: float) -> float:
    """Collision probability of a Gaussian p-stable function at distance ``d``.

    Closed form of Eqn. 11 for p = 2:
    ``1 - 2*Phi(-w/d) - (2d / (sqrt(2 pi) w)) * (1 - exp(-w^2 / (2 d^2)))``,
    where ``1 - 2*Phi(-r) = erf(r / sqrt(2))``.
    """
    if distance <= 0:
        return 1.0
    ratio = width / distance
    term1 = math.erf(ratio / math.sqrt(2.0))
    term2 = (2.0 / (np.sqrt(2.0 * np.pi) * ratio)) * (1.0 - np.exp(-(ratio**2) / 2.0))
    return float(term1 - term2)


def psi_l1(distance: float, width: float) -> float:
    """Collision probability of a Cauchy p-stable function at distance ``d``.

    Closed form of Eqn. 11 for p = 1:
    ``2*atan(w/d)/pi - (d / (pi w)) * ln(1 + (w/d)^2)``.
    """
    if distance <= 0:
        return 1.0
    ratio = width / distance
    return float(2.0 * np.arctan(ratio) / np.pi - np.log(1.0 + ratio**2) / (np.pi * ratio))


class E2Lsh(LshFamily):
    """A batch of p-stable LSH functions for l1 or l2.

    Args:
        num_functions: Number of functions ``m``.
        dim: Point dimensionality.
        width: Bucket width ``w`` (the accuracy/time trade-off knob).
        p: 1 (Cauchy projections) or 2 (Gaussian projections).
        seed: RNG seed for the projections.
    """

    def __init__(self, num_functions: int, dim: int, width: float, p: int = 2, seed: int = 0):
        super().__init__(num_functions, seed)
        if p not in (1, 2):
            raise ConfigError("p must be 1 or 2")
        if width <= 0:
            raise ConfigError("width must be positive")
        self.dim = int(dim)
        self.width = float(width)
        self.p = int(p)
        rng = np.random.default_rng(seed)
        if p == 2:
            self._a = rng.standard_normal((self.dim, self.num_functions))
        else:
            self._a = rng.standard_cauchy((self.dim, self.num_functions))
        self._b = rng.uniform(0.0, self.width, size=self.num_functions)

    def hash_points(self, points: np.ndarray) -> np.ndarray:
        """Signatures ``floor((a.q + b)/w)`` for all points and functions."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise QueryError(f"expected dim {self.dim}, got {points.shape[1]}")
        projections = points @ self._a + self._b
        return np.floor(projections / self.width).astype(np.int64)

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        """The lp distance the family is sensitive to."""
        diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return float(np.linalg.norm(diff, ord=self.p))

    def similarity(self, p: np.ndarray, q: np.ndarray) -> float:
        """``sim_lp(p, q) = psi_p(||p - q||_p)`` — Eqn. 12 of the paper."""
        return self.collision_probability(p, q)

    def collision_probability(self, p: np.ndarray, q: np.ndarray) -> float:
        """``psi_p`` evaluated at the pair's lp distance (Eqn. 11)."""
        distance = self.distance(p, q)
        if self.p == 2:
            return psi_l2(distance, self.width)
        return psi_l1(distance, self.width)
