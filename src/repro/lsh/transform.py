"""LSH-to-GENIE transformation.

:class:`LshTransformer` turns points into GENIE objects/queries: point
``p`` becomes ``[r_1(h_1(p)), ..., r_m(h_m(p))]`` with keyword
``i * D + bucket`` for function ``i`` (Section IV-A1).
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Corpus, QueryBatch
from repro.lsh.family import LshFamily
from repro.lsh.rehash import ReHasher

#: Default re-hash bucket domain (the paper uses 8192 for OCR).
DEFAULT_DOMAIN = 8192


class LshTransformer:
    """Points -> GENIE keyword sets, via hash + re-hash.

    Args:
        family: The LSH family supplying ``h_1 .. h_m``.
        domain: Re-hash bucket domain ``D``.
        seed: Seed for the re-hash projections.
    """

    def __init__(self, family: LshFamily, domain: int = DEFAULT_DOMAIN, seed: int = 0):
        self.family = family
        self.domain = int(domain)
        self.rehasher = ReHasher(family.num_functions, self.domain, seed=seed)

    @property
    def num_functions(self) -> int:
        """Number of LSH functions ``m``."""
        return self.family.num_functions

    def keyword_matrix(self, points) -> np.ndarray:
        """``(n, m)`` keyword matrix for a batch of points."""
        return self.rehasher.keywords(self.family.hash_points(points))

    def to_corpus(self, points) -> Corpus:
        """Transform data points into a GENIE corpus."""
        return Corpus(self.keyword_matrix(points))

    def to_queries(self, points) -> QueryBatch:
        """Transform query points into one batch (one item per function)."""
        matrix = self.keyword_matrix(points)
        n, m = matrix.shape
        return QueryBatch(matrix.reshape(-1), None, np.arange(n + 1) * m)
