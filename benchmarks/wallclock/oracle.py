"""Independent brute-force match-count oracle over an *encoded* corpus.

``MC(Q, O) = sum over items r of |O ∩ r|`` (Definition 2.1), computed here
with one ``np.isin`` over the corpus's flat keyword array and one weighted
``np.bincount`` over the owners — no inverted index, no scan kernel, no
planner, no shard merge.  Deliberately imports nothing from
``repro.core.batch_scan``, ``repro.plan`` or ``repro.cluster``; the only
``repro`` import is the slow reference implementation the oracle checks
*itself* against at start-up.
"""

from __future__ import annotations

import numpy as np


class FlatCorpus:
    """``(owner id, keyword)`` pairs, one per distinct keyword of an object."""

    def __init__(self, arrays, ids=None):
        arrays = [np.asarray(a, dtype=np.int64).reshape(-1) for a in arrays]
        ids = np.arange(len(arrays), dtype=np.int64) if ids is None else np.asarray(ids, dtype=np.int64)
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(arrays))
        owners = np.repeat(ids, sizes)
        keywords = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        # An object is a *set* of keywords: drop in-object duplicates.
        span = int(keywords.max()) + 1 if keywords.size else 1
        pairs = np.unique(owners * span + keywords)
        self.owners = pairs // span
        self.keywords = pairs % span
        self.n_slots = int(ids.max()) + 1 if ids.size else 0

    @classmethod
    def from_handle(cls, handle) -> "FlatCorpus":
        """The corpus a fitted handle encoded (before any index was built)."""
        plan = getattr(handle, "plan", None)
        if plan is not None:  # sharded: slices carry their global ids
            arrays, ids = [], []
            for shard in plan.shards:
                arrays.extend(shard.corpus.keyword_arrays)
                ids.extend(int(g) for g in shard.global_ids)
            return cls(arrays, ids)
        return cls(handle.engine.corpus.keyword_arrays)

    def counts(self, query) -> np.ndarray:
        """Match count of every id slot against one encoded query."""
        items = [np.unique(np.asarray(item, dtype=np.int64)) for item in query.items]
        if not items or self.keywords.size == 0:
            return np.zeros(self.n_slots, dtype=np.int64)
        wanted, multiplicity = np.unique(np.concatenate(items), return_counts=True)
        hit = np.isin(self.keywords, wanted)
        weights = multiplicity[np.searchsorted(wanted, self.keywords[hit])]
        return np.bincount(self.owners[hit], weights=weights, minlength=self.n_slots).astype(np.int64)


def topk_counts(counts: np.ndarray, k: int) -> np.ndarray:
    """The k largest positive counts, descending (the answer's count multiset)."""
    positive = counts[counts > 0]
    return np.sort(positive)[::-1][:k]


def agrees(corpus: FlatCorpus, query, result, k: int) -> bool:
    """Whether ``result`` is *a* correct top-k answer for ``query``.

    The returned count multiset must equal the oracle's top-k counts and
    every returned id must carry its true count; which ids fill a tie at
    the k-th count is the program's choice.
    """
    counts = corpus.counts(query)
    ids = np.asarray(result.ids, dtype=np.int64)
    got = np.asarray(result.counts, dtype=np.int64)
    if ids.size != np.unique(ids).size or (ids.size and (ids.min() < 0 or ids.max() >= counts.size)):
        return False
    return bool(np.array_equal(got, topk_counts(counts, k)) and np.array_equal(counts[ids], got))


def self_check(seed: int = 0) -> None:
    """Fail loudly unless the oracle matches the repo's reference on 50 objects."""
    from repro.core.match_count import brute_force_topk
    from repro.core.types import Corpus, Query, TopKResult

    rng = np.random.default_rng(seed)
    objects = [rng.integers(0, 30, size=int(rng.integers(1, 9))) for _ in range(50)]
    corpus, flat = Corpus(objects), FlatCorpus(objects)
    for _ in range(8):
        items = [rng.integers(0, 30, size=int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 6)))]
        query = Query(items=items)
        expected = [(i, c) for i, c in brute_force_topk(query, corpus, 5) if c > 0]
        reference = TopKResult(ids=[i for i, _ in expected], counts=[c for _, c in expected])
        if not agrees(flat, query, reference, 5):
            raise AssertionError("oracle disagrees with repro.core.match_count.brute_force_topk")
        if expected:
            wrong = TopKResult(ids=reference.ids, counts=reference.counts + 1)
            if agrees(flat, query, wrong, 5):
                raise AssertionError("oracle accepted a wrong answer")
