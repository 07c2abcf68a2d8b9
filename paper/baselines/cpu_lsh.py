"""CPU-LSH: collision-counting LSH on the CPU (C2LSH, Gan et al.).

The paper's CPU competitor for high-dimensional ANN. C2LSH counts, per
data point, the number of individual LSH functions on which it collides
with the query; points whose collision count passes a threshold become
candidates and are verified with true distances. The collision-counting
core is the same idea as GENIE's match-count model (the paper notes C2LSH
"corroborates" its ANN scheme), but it runs sequentially on one core and
pays a verification pass per candidate.
"""

from __future__ import annotations

import numpy as np

from paper.reference.reference import match_counts
from repro.core.inverted_index import InvertedIndex
from repro.core.types import Corpus, Query, TopKResult
from repro.errors import ConfigError, QueryError
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings, timings_delta
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.rehash import ReHasher


class CpuLsh:
    """Collision-counting LSH k-NN on the simulated CPU.

    Args:
        num_functions: Number of LSH functions ``m``.
        width: E2LSH bucket width.
        p: lp norm (1 or 2).
        collision_fraction: Candidates must collide on at least this
            fraction of the functions (C2LSH's alpha threshold).
        domain: Bucket domain for the signature re-hash.
        host: Simulated host CPU to charge.
        seed: RNG seed.
    """

    def __init__(
        self,
        num_functions: int,
        width: float,
        p: int = 2,
        collision_fraction: float = 0.3,
        domain: int = 4096,
        host: HostCpu | None = None,
        seed: int = 0,
    ):
        if not 0 < collision_fraction <= 1:
            raise ConfigError("collision_fraction must lie in (0, 1]")
        self.num_functions = int(num_functions)
        self.width = float(width)
        self.p = int(p)
        self.collision_fraction = float(collision_fraction)
        self.domain = int(domain)
        self.host = host if host is not None else HostCpu()
        self.seed = int(seed)
        self._family: E2Lsh | None = None
        self._rehasher: ReHasher | None = None
        self._index: InvertedIndex | None = None
        self._points: np.ndarray | None = None
        self.last_profile: StageTimings | None = None

    def fit(self, points: np.ndarray) -> "CpuLsh":
        """Hash the points and build the collision-count index on the host."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        self._points = points
        self._family = E2Lsh(self.num_functions, points.shape[1], self.width, p=self.p, seed=self.seed)
        self._rehasher = ReHasher(self.num_functions, self.domain, seed=self.seed + 1)
        keywords = self._rehasher.keywords(self._family.hash_points(points))
        self._index = InvertedIndex.build(Corpus(keywords))
        self.host.charge_ops(self._index.build_ops, stage="index_build")
        return self

    def query(self, query_points: np.ndarray, k: int) -> list[TopKResult]:
        """Sequential collision counting + candidate verification.

        Returns ``TopKResult`` records ordered by true lp distance;
        ``counts`` holds the collision counts of the returned points.
        """
        if self._index is None or self._points is None:
            raise QueryError("CpuLsh must be fitted before querying")
        query_points = np.atleast_2d(np.asarray(query_points, dtype=np.float64))
        before = self.host.timings.copy()
        n, dim = self._points.shape
        threshold = max(1, int(np.ceil(self.collision_fraction * self.num_functions)))

        results = []
        query_keywords = self._rehasher.keywords(self._family.hash_points(query_points))
        for row, qp in zip(query_keywords, query_points):
            counts = match_counts(self._index, Query.from_keywords(row))
            candidates = np.nonzero(counts >= threshold)[0]
            if candidates.size < k:
                # C2LSH relaxes the threshold until enough candidates exist.
                order_all = np.argsort(-counts, kind="stable")
                candidates = order_all[: max(k, candidates.size)]
            distances = np.linalg.norm(self._points[candidates] - qp[None, :], ord=self.p, axis=1)
            order = np.argsort(distances, kind="stable")[:k]
            chosen = candidates[order]
            results.append(TopKResult(ids=chosen, counts=counts[chosen]))

            scan_ops = float(counts.sum()) * 3.0 + float(n)
            verify_ops = float(candidates.size) * float(dim) * 3.0
            self.host.charge_ops(scan_ops, stage="match")
            self.host.charge_ops(verify_ops, stage="verify")
            self.host.charge_bytes(float(candidates.size * dim) * 8.0, stage="verify")
        self.last_profile = timings_delta(before, self.host.timings)
        return results

