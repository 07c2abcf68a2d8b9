"""AppGram: CPU filter-and-verify sequence kNN under edit distance.

Stand-in for the paper's state-of-the-art CPU competitor (Wang et al.,
"Efficient and effective kNN sequence search with approximate n-grams").
Like the original it is exact: an n-gram count filter (Theorem 5.1) orders
candidates, and edit-distance verification continues until the count bound
proves no unseen sequence can enter the top-k. Unlike GENIE's single-round
search it never stops early, which is why the paper finds it orders of
magnitude slower at similar accuracy.
"""

from __future__ import annotations

import numpy as np

from paper.reference.reference import match_counts
from repro.core.inverted_index import InvertedIndex
from repro.core.types import Corpus, Query
from repro.errors import QueryError
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings, timings_delta
from repro.sa.edit_distance import edit_distance, edit_distance_ops
from repro.sa.ngram import NgramVocabulary
from repro.sa.sequence import SequenceMatch


class AppGram:
    """Exact CPU sequence kNN with an n-gram count filter.

    Args:
        n: n-gram length.
        host: Simulated host CPU to charge.
    """

    def __init__(self, n: int = 3, host: HostCpu | None = None):
        self.n = int(n)
        self.host = host if host is not None else HostCpu()
        self.vocabulary = NgramVocabulary(self.n)
        self.sequences: list[str] = []
        self._index: InvertedIndex | None = None
        self.last_profile: StageTimings | None = None

    def fit(self, sequences: list[str]) -> "AppGram":
        """Shred and index the data sequences on the host."""
        self.sequences = list(sequences)
        corpus = Corpus([self.vocabulary.encode(s, grow=True) for s in self.sequences])
        self._index = InvertedIndex.build(corpus)
        self.host.charge_ops(self._index.build_ops, stage="index_build")
        return self

    def search(self, query: str, k: int = 1) -> list[SequenceMatch]:
        """Exact top-k most similar sequences under edit distance.

        Candidates are visited in descending common-gram-count order;
        verification stops once Theorem 5.1 guarantees that every unseen
        sequence is farther than the current k-th best.
        """
        if self._index is None:
            raise QueryError("AppGram must be fitted before searching")
        genie_query = Query.from_keywords(self.vocabulary.encode(query, grow=False))
        n_seq = len(self.sequences)
        counts = match_counts(self._index, genie_query)
        self.host.charge_ops(float(counts.sum()) * 3.0 + n_seq, stage="match")

        order = np.lexsort((np.arange(n_seq), -counts))
        matches: list[SequenceMatch] = []
        for sid in order:
            count = int(counts[sid])
            if len(matches) >= k:
                tau_k = matches[k - 1].distance
                # Theorem 5.1: count >= |Q| - n + 1 - tau*n whenever
                # ed <= tau; so if the bound for tau_k - 1 exceeds this
                # candidate's count, no remaining candidate can improve.
                if count < len(query) - self.n + 1 - tau_k * self.n:
                    break
            candidate = self.sequences[int(sid)]
            if len(matches) >= k and abs(len(query) - len(candidate)) > matches[k - 1].distance:
                continue
            distance = edit_distance(query, candidate)
            self.host.charge_ops(edit_distance_ops(len(query), len(candidate)), stage="verify")
            matches.append(SequenceMatch(sequence_id=int(sid), distance=distance, count=count))
            matches.sort(key=lambda match: (match.distance, match.sequence_id))
            del matches[k:]
        return matches

    def search_batch(self, queries: list[str], k: int = 1) -> list[list[SequenceMatch]]:
        """Sequential batch search with per-call profiling."""
        before = self.host.timings.copy()
        results = [self.search(q, k=k) for q in queries]
        self.last_profile = timings_delta(before, self.host.timings)
        return results

