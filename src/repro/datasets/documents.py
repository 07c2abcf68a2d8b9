"""Tweets-like short documents: Zipf-distributed word bags.

Stands in for the paper's 6.8M-tweet crawl: short documents over a skewed
vocabulary (a few hot topic words, a long tail), which is what shapes the
inverted index's postings-list length distribution.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_TOPIC_WORDS = ["singapore", "city", "food", "restaurant", "joint", "travel", "coffee"]


def make_vocabulary(size: int) -> list[str]:
    """A deterministic vocabulary: topic words first, then generated tokens."""
    if size < 1:
        raise ConfigError("vocabulary size must be >= 1")
    vocab = list(_TOPIC_WORDS[:size])
    i = 0
    while len(vocab) < size:
        vocab.append(f"w{i:05d}")
        i += 1
    return vocab


def make_tweets_like(
    n: int = 10_000,
    vocab_size: int = 5_000,
    min_words: int = 4,
    max_words: int = 14,
    zipf_a: float = 1.3,
    seed: int = 0,
) -> list[str]:
    """Generate ``n`` short documents with Zipf-distributed words.

    Args:
        n: Number of documents.
        vocab_size: Vocabulary size.
        min_words: Minimum words per document.
        max_words: Maximum words per document.
        zipf_a: Zipf exponent (>1); larger = more skew.
        seed: RNG seed.
    """
    if zipf_a <= 1.0:
        raise ConfigError("zipf_a must be > 1")
    rng = np.random.default_rng(seed)
    vocab = make_vocabulary(vocab_size)
    docs = []
    for _ in range(n):
        length = int(rng.integers(min_words, max_words + 1))
        ranks = np.minimum(rng.zipf(zipf_a, size=length) - 1, vocab_size - 1)
        docs.append(" ".join(vocab[int(r)] for r in ranks))
    return docs


def make_document_queries(
    documents: list[str], n_queries: int, drop_fraction: float = 0.3, seed: int = 0
) -> tuple[list[str], list[int]]:
    """Derive queries by dropping a fraction of words from sampled documents.

    Returns:
        ``(queries, source_ids)``; the source document should rank highly
        for its derived query under the inner-product measure.
    """
    rng = np.random.default_rng(seed)
    ids = rng.choice(len(documents), size=min(n_queries, len(documents)), replace=False)
    queries = []
    for i in ids:
        words = documents[int(i)].split()
        keep = max(1, int(round(len(words) * (1.0 - drop_fraction))))
        chosen = rng.choice(len(words), size=keep, replace=False)
        queries.append(" ".join(words[int(j)] for j in sorted(chosen)))
    return queries, [int(i) for i in ids]
