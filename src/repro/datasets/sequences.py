"""DBLP-like sequence data: generated titles + controlled corruption.

The paper builds its sequence queries by sampling DBLP article titles and
modifying 10-40% of their characters; the accuracy experiments (Tables VI
and VII) then check whether GENIE recovers the original title. The
generator below produces titles from a small Markov word model and
:func:`modify_sequence` applies the same corruption protocol.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

_TOPICS = [
    "query", "index", "graph", "stream", "parallel", "approximate", "nearest",
    "neighbor", "search", "learning", "database", "distributed", "efficient",
    "scalable", "similarity", "hashing", "mining", "optimization", "join",
    "selection", "clustering", "embedding", "storage", "memory", "cache",
    "transaction", "recovery", "spatial", "temporal", "probabilistic",
]
_CONNECTORS = ["for", "with", "over", "on", "via", "using", "under", "in"]
_ALPHABET = "abcdefghijklmnopqrstuvwxyz "


def make_dblp_like(
    n: int = 5_000,
    min_words: int = 4,
    max_words: int = 9,
    seed: int = 0,
) -> list[str]:
    """Generate ``n`` distinct article-title-like sequences.

    Args:
        n: Number of titles.
        min_words: Minimum words per title.
        max_words: Maximum words per title.
        seed: RNG seed.

    Returns:
        A list of unique lowercase titles.
    """
    rng = np.random.default_rng(seed)
    titles: list[str] = []
    seen: set[str] = set()
    while len(titles) < n:
        length = int(rng.integers(min_words, max_words + 1))
        words = []
        for i in range(length):
            pool = _CONNECTORS if (i % 3 == 2 and i < length - 1) else _TOPICS
            words.append(pool[int(rng.integers(0, len(pool)))])
        title = " ".join(words)
        if title in seen:
            title = f"{title} {int(rng.integers(0, 1000))}"
        if title not in seen:
            seen.add(title)
            titles.append(title)
    return titles


def modify_sequence(sequence: str, fraction: float, rng: np.random.Generator) -> str:
    """Corrupt a fraction of a sequence's characters (the paper's protocol).

    Each selected position suffers a substitution, deletion, or insertion
    with equal probability.

    Args:
        sequence: The original sequence.
        fraction: Fraction of characters to modify (0.2 = 20%).
        rng: Source of randomness.

    Returns:
        The corrupted sequence.
    """
    if not 0 <= fraction <= 1:
        raise ConfigError("fraction must lie in [0, 1]")
    chars = list(sequence)
    n_mods = int(round(len(chars) * fraction))
    if n_mods == 0:
        return sequence
    positions = rng.choice(len(chars), size=min(n_mods, len(chars)), replace=False)
    # Apply from the right so earlier indices stay valid under edits.
    for pos in sorted(map(int, positions), reverse=True):
        op = int(rng.integers(0, 3))
        random_char = _ALPHABET[int(rng.integers(0, len(_ALPHABET)))]
        if op == 0:  # substitution
            chars[pos] = random_char
        elif op == 1 and len(chars) > 1:  # deletion
            del chars[pos]
        else:  # insertion
            chars.insert(pos, random_char)
    return "".join(chars)


def make_query_set(
    titles: list[str],
    n_queries: int,
    fraction: float,
    seed: int = 0,
) -> tuple[list[str], list[int]]:
    """Sample titles and corrupt them, keeping the ground-truth ids.

    Args:
        titles: The indexed sequences.
        n_queries: Queries to sample.
        fraction: Character-modification fraction.
        seed: RNG seed.

    Returns:
        ``(queries, true_ids)`` — corrupted strings and the id of the title
        each was derived from.
    """
    rng = np.random.default_rng(seed)
    ids = rng.choice(len(titles), size=min(n_queries, len(titles)), replace=False)
    queries = [modify_sequence(titles[int(i)], fraction, rng) for i in ids]
    return queries, [int(i) for i in ids]
