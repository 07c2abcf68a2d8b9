"""Construction of postings lists from a corpus.

A postings list for keyword ``w`` is the ascending list of ids of objects
containing ``w``. All lists are flattened into one big *List Array* (the
layout GENIE keeps in GPU global memory, Fig. 3 of the paper) plus offset
metadata consumed by :class:`repro.core.inverted_index.InvertedIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import ID_DTYPE, Corpus


@dataclass
class FlatPostings:
    """Flattened postings lists.

    Attributes:
        keywords: Sorted unique keywords that have postings.
        offsets: ``offsets[i]:offsets[i+1]`` delimits keyword ``i``'s list
            inside ``list_array`` (length ``len(keywords) + 1``).
        list_array: All postings concatenated; each list is sorted by
            object id.
        build_ops: Abstract CPU operation count of the build, charged to the
            ``index_build`` stage by the engine.
    """

    keywords: np.ndarray
    offsets: np.ndarray
    list_array: np.ndarray
    build_ops: float

    @property
    def num_lists(self) -> int:
        """Number of postings lists."""
        return int(self.keywords.size)

    @property
    def total_entries(self) -> int:
        """Total postings entries across all lists."""
        return int(self.list_array.size)

    def list_for(self, index: int) -> np.ndarray:
        """The postings list at position ``index`` (a view)."""
        return self.list_array[self.offsets[index] : self.offsets[index + 1]]

    def span_csr(self, max_sublist_len: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the CSR span layout of the position map, vectorized.

        Every keyword's list is (optionally) split into sublists of at most
        ``max_sublist_len`` entries, exactly like
        :func:`repro.core.load_balance.split_span`, but for all keywords at
        once with array arithmetic.

        Args:
            max_sublist_len: Load-balancing split limit, or ``None`` for one
                span per keyword.

        Returns:
            ``(kw_span_offsets, span_starts, span_ends)`` where keyword row
            ``i`` owns spans ``kw_span_offsets[i]:kw_span_offsets[i + 1]``
            and span ``j`` covers ``list_array[span_starts[j]:span_ends[j]]``.
        """
        starts = self.offsets[:-1].astype(ID_DTYPE)
        ends = self.offsets[1:].astype(ID_DTYPE)
        if max_sublist_len is None:
            kw_span_offsets = np.arange(self.num_lists + 1, dtype=ID_DTYPE)
            return kw_span_offsets, starts.copy(), ends.copy()
        max_len = int(max_sublist_len)
        # ceil((end - start) / max_len); degenerate empty lists keep one span,
        # matching load_balance.split_span.
        n_spans = np.maximum(-((starts - ends) // max_len), 1)
        kw_span_offsets = np.zeros(self.num_lists + 1, dtype=ID_DTYPE)
        np.cumsum(n_spans, out=kw_span_offsets[1:])
        total = int(kw_span_offsets[-1])
        # Within-keyword span rank: 0, 1, ... for each keyword's chunk run.
        rank = np.arange(total, dtype=ID_DTYPE) - np.repeat(kw_span_offsets[:-1], n_spans)
        span_starts = np.repeat(starts, n_spans) + rank * max_len
        span_ends = np.minimum(span_starts + max_len, np.repeat(ends, n_spans))
        return kw_span_offsets, span_starts, span_ends


def build_postings(corpus: Corpus) -> FlatPostings:
    """Build flattened postings lists for a corpus.

    The build sorts all ``(keyword, object)`` pairs by keyword (stable, so
    object ids stay ascending within a list) and computes list boundaries.

    Args:
        corpus: Objects to index.

    Returns:
        The flattened postings structure.
    """
    all_keywords = corpus.keywords
    total = int(all_keywords.size)
    if total == 0:
        empty = np.empty(0, dtype=ID_DTYPE)
        return FlatPostings(
            keywords=empty, offsets=np.zeros(1, dtype=ID_DTYPE), list_array=empty, build_ops=1.0
        )
    all_objects = np.repeat(np.arange(len(corpus), dtype=ID_DTYPE), np.diff(corpus.offsets))

    order = np.argsort(all_keywords, kind="stable")
    sorted_keywords = all_keywords[order]
    list_array = np.ascontiguousarray(all_objects[order])

    keywords, starts = np.unique(sorted_keywords, return_index=True)
    offsets = np.concatenate([starts, [total]]).astype(ID_DTYPE)

    # A sort-dominated build: ~ n log n comparisons plus the linear passes.
    build_ops = total * max(1.0, np.log2(total)) + 4.0 * total
    return FlatPostings(
        keywords=keywords.astype(ID_DTYPE),
        offsets=offsets,
        list_array=list_array,
        build_ops=float(build_ops),
    )
