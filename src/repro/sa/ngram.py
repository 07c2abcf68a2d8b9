"""Ordered n-gram decomposition of sequences (Section V-A1).

A sequence is shredded into length-n substrings by a sliding window; the
*ordered* n-gram ``(gram, i)`` tags the i-th occurrence of the same gram so
that the match-count model counts common grams as ``min(c_s, c_q)`` per
distinct gram (Lemma 5.1).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.types import ID_DTYPE
from repro.errors import ConfigError


def ordered_ngrams(sequence: str, n: int) -> list[tuple[str, int]]:
    """Decompose a sequence into ordered n-grams.

    Args:
        sequence: The string to shred.
        n: Gram length.

    Returns:
        ``(gram, occurrence_index)`` pairs, e.g. ``"aabaab"`` with n = 3
        gives ``[("aab", 0), ("aba", 0), ("baa", 0), ("aab", 1)]``
        (Example 5.1). Sequences shorter than ``n`` give an empty list.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    seen: Counter[str] = Counter()
    grams: list[tuple[str, int]] = []
    for i in range(len(sequence) - n + 1):
        gram = sequence[i : i + n]
        grams.append((gram, seen[gram]))
        seen[gram] += 1
    return grams


def common_gram_count(s: str, q: str, n: int) -> int:
    """Reference for Lemma 5.1: ``sum_g min(c_s(g), c_q(g))``."""
    cs = Counter(s[i : i + n] for i in range(len(s) - n + 1))
    cq = Counter(q[i : i + n] for i in range(len(q) - n + 1))
    return sum(min(count, cq[gram]) for gram, count in cs.items())


def count_filter_bound(len_q: int, len_s: int, tau: int, n: int) -> int:
    """Theorem 5.1's lower bound on the common-gram count at edit distance tau.

    ``MC >= max(|Q|, |S|) - n + 1 - tau * n``.
    """
    return max(len_q, len_s) - n + 1 - tau * n


class NgramVocabulary:
    """Bidirectional map between ordered n-grams and GENIE keywords.

    Args:
        n: Gram length.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError("n must be >= 1")
        self.n = int(n)
        self._ids: dict[tuple[str, int], int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, sequence: str, grow: bool = True) -> np.ndarray:
        """Keyword ids of a sequence's ordered n-grams.

        Args:
            sequence: The sequence to encode.
            grow: Whether unseen grams get fresh ids (index build) or are
                dropped (query time — an unseen gram matches nothing).

        Returns:
            ``int64`` keyword array.
        """
        if not grow:
            return np.asarray(self.lookup(sequence), dtype=ID_DTYPE)
        ids = self._ids  # an unseen gram gets the next id
        grams = ordered_ngrams(sequence, self.n)
        return np.asarray([ids.setdefault(gram, len(ids)) for gram in grams], dtype=ID_DTYPE)

    def lookup(self, sequence: str) -> list[int]:
        """Keyword ids of a sequence's known ordered n-grams; unseen ones are dropped."""
        ids = self._ids
        return [ids[gram] for gram in ordered_ngrams(sequence, self.n) if gram in ids]
