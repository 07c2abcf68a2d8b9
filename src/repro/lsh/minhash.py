"""MinHash: the classic LSH family for Jaccard similarity on sets.

The paper lists the Jaccard kernel among the kernelized similarities GENIE
supports through its LSH front-end (Section II-B1); MinHash is its standard
LSH family: ``Pr[min-hash collision] = |A ∩ B| / |A ∪ B|``.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Corpus
from repro.lsh.family import LshFamily
from repro.lsh.murmur import murmur3_int64

_PRIME = (1 << 61) - 1
#: Cells of the per-batch hash table held at once (32 MB of int64).
_TABLE_CELLS = 1 << 22


def jaccard(a, b) -> float:
    """Jaccard similarity of two element iterables."""
    sa, sb = set(map(int, a)), set(map(int, b))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


class MinHash(LshFamily):
    """A batch of min-wise independent hash functions over integer sets.

    Each function applies a random linear permutation-style hash
    ``(alpha * murmur(x) + beta) mod PRIME`` and keeps the minimum over the
    set's elements.

    Args:
        num_functions: Number of functions ``m``.
        seed: RNG seed for the linear coefficients.
    """

    def __init__(self, num_functions: int, seed: int = 0):
        super().__init__(num_functions, seed)
        rng = np.random.default_rng(seed)
        self._alpha = rng.integers(1, _PRIME, size=self.num_functions, dtype=np.int64)
        self._beta = rng.integers(0, _PRIME, size=self.num_functions, dtype=np.int64)

    def hash_set(self, elements) -> np.ndarray:
        """Signature of one set: the per-function minima."""
        arr = np.asarray(sorted(set(map(int, elements))), dtype=np.int64)
        if arr.size == 0:
            return np.full(self.num_functions, -1, dtype=np.int64)
        base = murmur3_int64(arr).astype(np.int64)  # (s,)
        with np.errstate(over="ignore"):
            table = (base[:, None] * self._alpha[None, :] + self._beta[None, :]) % _PRIME
        return table.min(axis=0)

    def hash_points(self, points) -> np.ndarray:
        """Signatures for a batch of sets (any iterable of iterables).

        :meth:`hash_set` per set, computed for the whole batch at once: the
        sets are flattened and de-duplicated like any ragged keyword
        container, hashed in one murmur pass and reduced per set.
        """
        sets = Corpus(points)
        signatures = np.full((len(sets), self.num_functions), -1, dtype=np.int64)
        if sets.keywords.size:
            base = murmur3_int64(sets.keywords).astype(np.int64)[:, None]
            filled = np.flatnonzero(np.diff(sets.offsets))
            # A few functions at a time: the (elements x functions) table stays bounded.
            width = max(1, _TABLE_CELLS // base.size)
            for lo in range(0, self.num_functions, width):
                cols = slice(lo, lo + width)
                with np.errstate(over="ignore"):
                    table = (base * self._alpha[cols] + self._beta[cols]) % _PRIME
                signatures[filled, cols] = np.minimum.reduceat(table, sets.offsets[filled], axis=0)
        return signatures

    def similarity(self, p, q) -> float:
        """Jaccard similarity."""
        return jaccard(p, q)

    def collision_probability(self, p, q) -> float:
        """Equal to the Jaccard similarity, by min-wise independence."""
        return self.similarity(p, q)
