"""Short-document similarity search (Section V-B).

Documents are shredded into words; the match count between two documents is
then exactly the inner product of their binary vector-space representations.

This module holds the tokenization primitives (:func:`tokenize`,
:class:`WordVocabulary`) the ``"document"`` match model encodes with.
"""

from __future__ import annotations

import re

import numpy as np

_TOKEN_RE = re.compile(r"[a-z0-9']+")

#: A small English stop-word list (the paper removes stop words from tweets).
DEFAULT_STOPWORDS = frozenset(
    "a an and are as at be by for from has he in is it its of on or that the "
    "this to was were will with i you we they she him her them my your our".split()
)


def tokenize(text: str, stopwords: frozenset[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase word tokens with stop words removed."""
    return [tok for tok in _TOKEN_RE.findall(text.lower()) if tok not in stopwords]


class WordVocabulary:
    """Word -> keyword id map."""

    def __init__(self):
        self._ids: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def encode(self, tokens: list[str], grow: bool = True) -> np.ndarray:
        """Keyword ids of distinct tokens (binary vector-space model)."""
        if not grow:
            return np.asarray(self.lookup(tokens), dtype=np.int64)
        ids = self._ids  # an unseen token gets the next id
        return np.asarray([ids.setdefault(token, len(ids)) for token in dict.fromkeys(tokens)], dtype=np.int64)

    def lookup(self, tokens: list[str]) -> list[int]:
        """Keyword ids of the distinct known tokens, in first-seen order; unseen ones are dropped."""
        ids = self._ids
        return [ids[token] for token in dict.fromkeys(tokens) if token in ids]
