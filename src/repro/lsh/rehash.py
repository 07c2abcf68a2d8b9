"""The re-hashing mechanism (Section IV-A2, Fig. 7).

LSH signatures may live in a huge or unbounded domain (RBH signatures are
whole grid-coordinate vectors; E2LSH buckets are unbounded integers). GENIE
needs a bounded keyword domain per function, so each signature is passed
through a random projection ``r_i`` into ``[0, D)``. Projection collisions
add a false-collision rate of ``1/D`` on top of the LSH collision rate —
the ``omega`` term of Theorem 4.1.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, QueryError
from repro.lsh.murmur import _CHUNK_CELLS, murmur3_int64


class ReHasher:
    """Per-function random projections from signatures to ``[0, domain)``.

    Args:
        num_functions: Number of LSH functions being re-hashed (each gets
            an independent projection seed).
        domain: Bucket-domain size ``D``.
        seed: Master seed deriving the per-function seeds.
    """

    def __init__(self, num_functions: int, domain: int, seed: int = 0):
        if num_functions < 1:
            raise ConfigError("num_functions must be >= 1")
        if domain < 1:
            raise ConfigError("domain must be >= 1")
        self.num_functions = int(num_functions)
        self.domain = int(domain)
        rng = np.random.default_rng(seed)
        self._seeds = rng.integers(1, 2**31 - 1, size=self.num_functions)

    def rehash(self, signatures: np.ndarray) -> np.ndarray:
        """Project a signature matrix into the bounded bucket domain.

        Column ``j`` is murmur-hashed under function ``j``'s seed — the
        whole matrix in one :func:`~repro.lsh.murmur.murmur3_int64` pass
        with the seed vector broadcast along the rows (matrices beyond the
        ``murmur._CHUNK_CELLS`` element budget go through in row blocks).

        Args:
            signatures: ``(n, num_functions)`` int64 LSH signatures; a 1-D
                array is one signature row.

        Returns:
            ``(n, num_functions)`` int64 buckets in ``[0, domain)``.

        Raises:
            QueryError: If the signature width is not ``num_functions``.
        """
        signatures = np.atleast_2d(np.asarray(signatures, dtype=np.int64))
        if signatures.shape[1] != self.num_functions:
            raise QueryError(
                f"expected {self.num_functions} signature columns, got {signatures.shape[1]}"
            )
        buckets = np.empty_like(signatures)
        rows = max(1, _CHUNK_CELLS // self.num_functions)
        for start in range(0, signatures.shape[0], rows):
            hashed = murmur3_int64(signatures[start : start + rows], seed=self._seeds)
            buckets[start : start + rows] = hashed % np.uint32(self.domain)
        return buckets

    def keywords(self, signatures: np.ndarray) -> np.ndarray:
        """Re-hash and offset each function into its own keyword range.

        The GENIE keyword of function ``i`` with bucket ``b`` is
        ``i * domain + b`` — the ``(i, h_i(p))`` pair of the paper encoded
        as a single integer.
        """
        buckets = self.rehash(signatures)
        offsets = np.arange(self.num_functions, dtype=np.int64) * self.domain
        return buckets + offsets[None, :]
