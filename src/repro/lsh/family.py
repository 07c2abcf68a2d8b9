"""Base interface for LSH families (Section IV of the paper).

A *generic LSH scheme* in the paper's sense is a family of functions with
``Pr[h(p) = h(q)] = sim(p, q)`` (Eqn. 1). Every family here implements:

* ``hash_points`` — signatures for a batch of points, one column per
  function (integers; re-hashing maps them to a bounded bucket domain),
* ``similarity`` — the measure the family is locality-sensitive for, and
* ``collision_probability`` — ``Pr[h(p) = h(q)]`` as a function of that
  similarity/distance, used by tests to validate Eqn. 1 empirically.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ConfigError, QueryError, ReproError


def finite_points(points, dim: int | None = None, error: type[ReproError] = QueryError) -> np.ndarray:
    """``points`` as a 2-D array of ``dim`` columns (``QueryError``); ``error``
    names the first row with a NaN or inf coordinate, which has no signature."""
    points = np.atleast_2d(np.asarray(points))
    if dim is not None and points.shape[1] != dim:
        raise QueryError(f"expected dim {dim}, got {points.shape[1]}")
    if points.dtype.kind == "f" and not np.isfinite(points).all():
        first = int(np.argmin(np.isfinite(points).reshape(points.shape[0], -1).all(axis=1)))
        raise error(f"point {first} has a non-finite coordinate (NaN or inf); its LSH signature is undefined")
    return points


class LshFamily(abc.ABC):
    """A set of ``m`` locality-sensitive hash functions over points.

    Attributes:
        num_functions: Number of hash functions ``m``.
    """

    def __init__(self, num_functions: int, seed: int = 0):
        if num_functions < 1:
            raise ConfigError("num_functions must be >= 1")
        self.num_functions = int(num_functions)
        self.seed = int(seed)

    @abc.abstractmethod
    def hash_points(self, points: np.ndarray) -> np.ndarray:
        """Hash a batch of points.

        Args:
            points: ``(n, d)`` array (or the family's native point type).

        Returns:
            ``(n, num_functions)`` int64 signature matrix.
        """

    @abc.abstractmethod
    def similarity(self, p: np.ndarray, q: np.ndarray) -> float:
        """The similarity measure this family is locality-sensitive for."""

    @abc.abstractmethod
    def collision_probability(self, p: np.ndarray, q: np.ndarray) -> float:
        """``Pr[h(p) = h(q)]`` for a single random function of the family."""

    def empirical_collision_rate(self, p: np.ndarray, q: np.ndarray) -> float:
        """Fraction of this family's functions on which ``p`` and ``q`` collide."""
        hp = self.hash_points(np.asarray(p)[None, :])
        hq = self.hash_points(np.asarray(q)[None, :])
        return float(np.mean(hp[0] == hq[0]))
