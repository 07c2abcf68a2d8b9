"""CPU-Idx: a single-threaded CPU inverted index baseline (Section VI-A2).

Same inverted index as GENIE, but queries run sequentially on the host: an
array records each object's match count while postings are scanned, then a
partial quick-selection (the paper uses C++ STL ``partial_sort``-style
selection, Θ(n + k log n)) extracts the top-k.
"""

from __future__ import annotations

import numpy as np

from paper.reference.reference import match_counts, topk_from_counts
from repro.core.inverted_index import InvertedIndex
from repro.core.types import Corpus, Query, TopKResult
from repro.errors import QueryError
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings, timings_delta


class CpuIdx:
    """Sequential CPU inverted-index search.

    Args:
        host: Simulated host CPU to charge.
    """

    def __init__(self, host: HostCpu | None = None):
        self.host = host if host is not None else HostCpu()
        self.corpus: Corpus | None = None
        self.index: InvertedIndex | None = None
        self.last_profile: StageTimings | None = None

    def fit(self, corpus: Corpus) -> "CpuIdx":
        """Build the in-memory inverted index."""
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        self.corpus = corpus
        self.index = InvertedIndex.build(corpus)
        self.host.charge_ops(self.index.build_ops, stage="index_build")
        return self

    def query(self, queries: list[Query], k: int) -> list[TopKResult]:
        """Process queries one after another on one core."""
        if self.index is None:
            raise QueryError("CpuIdx must be fitted before querying")
        before = self.host.timings.copy()
        results = []
        n = len(self.corpus)
        for query in queries:
            counts = match_counts(self.index, query)
            scanned = int(counts.sum())  # one postings entry per counter bump
            results.append(topk_from_counts(counts, k))
            # Postings scan + count array reset + partial selection.
            scan_ops = float(scanned) * 3.0
            select_ops = float(n) + float(k) * np.log2(max(n, 2))
            self.host.charge_ops(scan_ops + select_ops, stage="match")
            self.host.charge_bytes(float(scanned + n) * 4.0, stage="match")
        self.last_profile = timings_delta(before, self.host.timings)
        return results

