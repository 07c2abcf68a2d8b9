"""The GENIE inverted index: List Array + Position Map (Section III-B).

The index stores all postings lists in one flat array destined for GPU
global memory, and a host-side *position map* from keyword to the address
range(s) of its list. With load balancing enabled a keyword maps to several
sublist spans (the one-to-many map of Fig. 4).

The position map is held in CSR form — three dense arrays instead of a
``dict`` of span lists — so the batch scanner
(:mod:`repro.core.batch_scan`) can resolve an arbitrary array of keywords to
spans with fancy indexing instead of a Python loop:

* ``span_starts`` / ``span_ends``: the half-open List-Array range of every
  (sub-)postings list, in List-Array order,
* ``kw_span_offsets``: keyword row ``i`` owns spans
  ``kw_span_offsets[i]:kw_span_offsets[i + 1]``,
* a keyword → row lookup built once at construction (a dense table when the
  keyword universe is compact, binary search over the sorted keyword array
  otherwise).

The scalar API (``spans_for_keyword`` and friends) is a thin layer of
functions over the same CSR arrays; there is no second copy of the map.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import ID_DTYPE, Corpus, csr_offsets, ragged_slices
from repro.errors import MalformedIndexError

#: Bytes the position map costs per span entry (keyword + start + end).
_POSITION_MAP_ENTRY_BYTES = 24

#: Build a dense keyword -> row table when the keyword universe is at most
#: this many times larger than the number of distinct keywords.
_DENSE_LOOKUP_OVERHEAD = 8

#: Abstract CPU operations :meth:`InvertedIndex.spliced` spends per postings entry
#: a pass goes over: :func:`sort_postings`' linear passes, without its sort.
_MERGE_OPS_PER_ENTRY = 4.0


def sort_postings(corpus: Corpus) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """A corpus's postings lists, flattened: the arrays an index is laid out over.

    Sorts all ``(keyword, object)`` pairs by keyword (stable, so object ids
    stay ascending within a list) and computes list boundaries.

    Returns:
        ``(keywords, offsets, list_array, build_ops)``: the sorted distinct
        keywords, ``offsets[i]:offsets[i + 1]`` delimiting keyword ``i``'s
        list inside ``list_array``, and the abstract CPU operation count of
        the sort (what the engine charges to ``index_build``).
    """
    all_keywords = corpus.keywords
    total = int(all_keywords.size)
    all_objects = np.repeat(np.arange(len(corpus), dtype=ID_DTYPE), np.diff(corpus.offsets))

    order = np.argsort(all_keywords, kind="stable")
    sorted_keywords = all_keywords[order]
    list_array = np.ascontiguousarray(all_objects[order])

    starts = _firsts(sorted_keywords)
    return sorted_keywords[starts], np.append(starts, total), list_array, _sort_ops(total)


def _firsts(ascending: np.ndarray) -> np.ndarray:
    """Where each distinct value of the ascending (non-negative) keywords first occurs."""
    return np.flatnonzero(np.diff(ascending, prepend=-1))


def _sort_ops(total: int) -> float:
    """The price of a sort-dominated build of ``total`` postings: ~ n log n comparisons plus the linear passes."""
    return float(total * max(1.0, np.log2(total)) + 4.0 * total) if total else 1.0


def span_csr(offsets: np.ndarray, max_sublist_len: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR span layout of the position map over list ``offsets``, vectorized.

    Every keyword's list is (optionally) split into sublists of at most
    ``max_sublist_len`` entries, exactly like
    :func:`repro.core.load_balance.split_span`, but for all keywords at
    once with array arithmetic.

    Returns:
        ``(kw_span_offsets, span_starts, span_ends)`` where keyword row
        ``i`` owns spans ``kw_span_offsets[i]:kw_span_offsets[i + 1]``
        and span ``j`` covers ``list_array[span_starts[j]:span_ends[j]]``.
    """
    num_lists = offsets.size - 1
    starts = offsets[:-1].astype(ID_DTYPE)
    ends = offsets[1:].astype(ID_DTYPE)
    if max_sublist_len is None:
        return np.arange(num_lists + 1, dtype=ID_DTYPE), starts, ends
    max_len = int(max_sublist_len)
    # ceil((end - start) / max_len); degenerate empty lists keep one span,
    # matching load_balance.split_span.
    n_spans = np.maximum(-((starts - ends) // max_len), 1)
    kw_span_offsets = np.zeros(num_lists + 1, dtype=ID_DTYPE)
    np.cumsum(n_spans, out=kw_span_offsets[1:])
    total = int(kw_span_offsets[-1])
    # Within-keyword span rank: 0, 1, ... for each keyword's chunk run.
    rank = np.arange(total, dtype=ID_DTYPE) - np.repeat(kw_span_offsets[:-1], n_spans)
    span_starts = np.repeat(starts, n_spans) + rank * max_len
    span_ends = np.minimum(span_starts + max_len, np.repeat(ends, n_spans))
    return kw_span_offsets, span_starts, span_ends


class InvertedIndex:
    """An inverted index over a keyword corpus.

    Build with :meth:`build`; query through
    :meth:`spans_for_keyword` / :meth:`spans_for_keywords` (scalar
    API) or :meth:`keyword_rows` + the CSR arrays (vectorized API), or hand
    the whole index to :class:`repro.core.engine.GenieEngine`.

    The constructor takes flattened postings lists — what
    :func:`sort_postings` returns — and lays the position map's spans out
    over them under ``load_balance``; :meth:`build` and :meth:`spliced`
    both end in it.

    Attributes:
        list_array: All postings concatenated (object ids).
        keyword_array: Sorted distinct keywords (one row per keyword).
        kw_span_offsets: CSR offsets mapping keyword rows to span rows.
        span_starts: Per-span start position in ``list_array``.
        span_ends: Per-span end position in ``list_array``.
        n_objects: Number of objects indexed.
        load_balance: The splitting configuration used, or ``None``.
        build_ops: Abstract CPU cost of construction.
    """

    def __init__(
        self,
        keyword_array: np.ndarray,
        list_offsets: np.ndarray,
        list_array: np.ndarray,
        build_ops: float,
        n_objects: int,
        load_balance: LoadBalanceConfig | None = None,
    ):
        self.list_array = np.asarray(list_array, dtype=ID_DTYPE)
        self.keyword_array = np.asarray(keyword_array, dtype=ID_DTYPE)
        self.kw_span_offsets, self.span_starts, self.span_ends = span_csr(
            np.asarray(list_offsets, dtype=ID_DTYPE),
            None if load_balance is None else load_balance.max_sublist_len,
        )
        self.n_objects = int(n_objects)
        self.load_balance = load_balance
        self.build_ops = float(build_ops)
        self._kw_lookup = self._build_dense_lookup(self.keyword_array)
        self._list_array32: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(cls, corpus: Corpus, load_balance: LoadBalanceConfig | None = None) -> "InvertedIndex":
        """Index a corpus, optionally splitting long lists.

        Args:
            corpus: Objects to index.
            load_balance: If given, lists longer than
                ``load_balance.max_sublist_len`` are split into sublists.

        Returns:
            The built index.
        """
        return cls(*sort_postings(corpus), len(corpus), load_balance)

    def spliced(self, dropped, rows: Corpus, positions) -> "InvertedIndex":
        """This index minus its objects at local ``dropped``, plus ``rows`` at local ids ``positions``, in one pass.

        Kept objects fill the other slots in their old order. Postings travel as fused
        ``(keyword row << 32) | local id`` keys over the union keyword table; the kept ones
        still ascend, so the stable sort is timsort's merge of a long run and a short one.
        Array for array what :meth:`build` makes of the result. ``build_ops`` prices a drop
        pass when anything is dropped, then a merge pass when anything is added.

        Raises:
            MalformedIndexError: ``positions`` does not name one distinct slot per incoming object.
        """
        positions = np.asarray(positions, dtype=ID_DTYPE).reshape(-1)
        if positions.size != len(rows) or (positions[1:] <= positions[:-1]).any():
            raise MalformedIndexError("positions must ascend, one per merged-in object")
        keep = np.ones(self.n_objects, dtype=bool)
        keep[dropped] = False
        n_objects = int(keep.sum()) + len(rows)
        renumber = np.zeros(self.n_objects, dtype=ID_DTYPE)
        renumber[keep] = np.delete(np.arange(n_objects, dtype=ID_DTYPE), positions)
        kept, offsets = keep[self.list_array], self.list_offsets
        keywords = np.sort(np.concatenate([self.keyword_array, rows.keywords]), kind="stable")
        keywords = keywords[_firsts(keywords)]
        my_rows, their_rows = keywords.searchsorted(self.keyword_array), keywords.searchsorted(rows.keywords)
        lengths = np.bincount(their_rows, minlength=keywords.size)
        lengths[my_rows] += np.add.reduceat(kept, offsets[:-1], dtype=ID_DTYPE)
        my_keys = np.repeat(my_rows << 32, np.diff(offsets))
        my_keys |= renumber[self.list_array]
        their_keys = (their_rows << 32) | np.repeat(positions, np.diff(rows.offsets))
        keys = np.sort(np.concatenate([my_keys[kept], their_keys]), kind="stable")
        ops = 0.0 if keep.all() else _MERGE_OPS_PER_ENTRY * max(1, self.total_entries)
        ops += _sort_ops(rows.total_entries) + _MERGE_OPS_PER_ENTRY * keys.size if positions.size else 0.0
        return InvertedIndex(
            keywords[lengths > 0], csr_offsets(lengths[lengths > 0]), keys & 0xFFFFFFFF, ops, n_objects,
            self.load_balance,
        )

    def corpus(self) -> Corpus:
        """The indexed objects, row for row: the inverse of :meth:`build` (one stable sort by object)."""
        order = np.argsort(self.list_array, kind="stable")
        keywords = np.repeat(self.keyword_array, np.diff(self.list_offsets))[order]
        return Corpus._of(keywords, csr_offsets(np.bincount(self.list_array, minlength=self.n_objects)))

    @staticmethod
    def _build_dense_lookup(keywords: np.ndarray) -> np.ndarray | None:
        """A keyword -> row table, when the keyword universe is compact."""
        if keywords.size == 0:
            return None
        max_kw = int(keywords[-1])
        if max_kw + 1 > _DENSE_LOOKUP_OVERHEAD * keywords.size + 1024:
            return None
        table = np.full(max_kw + 1, -1, dtype=ID_DTYPE)
        table[keywords] = np.arange(keywords.size, dtype=ID_DTYPE)
        return table

    # ------------------------------------------------------------------
    # vectorized lookups

    def keyword_rows(self, keywords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Resolve an array of keywords to keyword rows, vectorized.

        Args:
            keywords: Any integer array (need not be sorted or present).

        Returns:
            ``(rows, found)``: per input keyword its row into
            ``kw_span_offsets`` and whether it is indexed at all. Rows of
            absent keywords are garbage and must be masked with ``found``.
        """
        kws = np.asarray(keywords, dtype=ID_DTYPE).reshape(-1)
        if self.keyword_array.size == 0:
            return np.zeros(kws.size, dtype=ID_DTYPE), np.zeros(kws.size, dtype=bool)
        if self._kw_lookup is not None:
            inside = (kws >= 0) & (kws < self._kw_lookup.size)
            rows = self._kw_lookup[np.where(inside, kws, 0)]
            return rows, inside & (rows >= 0)
        rows = np.searchsorted(self.keyword_array, kws)
        rows = np.minimum(rows, self.keyword_array.size - 1)
        return rows, self.keyword_array[rows] == kws

    def span_rows_for_keyword_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand keyword rows to their span rows (CSR gather).

        Args:
            rows: Valid keyword rows (e.g. the masked output of
                :meth:`keyword_rows`).

        Returns:
            ``(span_rows, n_spans)``: the concatenated span rows of every
            input keyword, in input order, plus each keyword's span count
            (so callers can segment the flat result).
        """
        rows = np.asarray(rows, dtype=ID_DTYPE).reshape(-1)
        first = self.kw_span_offsets[rows]
        n_spans = self.kw_span_offsets[rows + 1] - first
        return ragged_slices(first, n_spans), n_spans

    def gather_span_rows(self, span_rows: np.ndarray) -> np.ndarray:
        """Concatenate the object ids of the given span rows, vectorized."""
        starts = self.span_starts[span_rows]
        lengths = self.span_ends[span_rows] - starts
        return self.list_array[ragged_slices(starts, lengths)]

    @property
    def list_offsets(self) -> np.ndarray:
        """Keyword row ``i``'s whole list (sublists re-joined) is ``list_array[list_offsets[i]:list_offsets[i + 1]]``."""
        return np.append(self.span_starts[self.kw_span_offsets[:-1]], self.total_entries)

    @property
    def list_array32(self) -> np.ndarray:
        """The List Array as 32-bit ids (the device's own layout).

        The batch scanner streams postings through this view: object ids
        always fit 32 bits (a 12 GB card cannot hold more objects), and the
        halved traffic matters on the host exactly as it does on the device.
        """
        if self._list_array32 is None:
            self._list_array32 = self.list_array.astype(np.int32)
        return self._list_array32

    @cached_property
    def keyword_bitmaps(self) -> np.ndarray | None:
        """Every keyword row's whole list as a packed bitmap, plus one all-zero row last.

        Row ``i`` holds object ``o`` at bit ``o % 64`` of word ``o // 64``: the
        operand of both shared dense regimes of the scan (bit planes add them,
        long-list byte rows unpack them), kept on the host only (the device
        still receives :attr:`list_array32`). Per keyword row, not per span; ``None``
        where they would outweigh ``list_array32`` (lists averaging under ``n_objects / 32``).
        """
        rows, words = self.keyword_array.size, -(-self.n_objects // 64)
        if self.total_entries == 0 or (rows + 1) * words * 8 > 4 * self.total_entries:
            return None
        bitmaps = np.zeros((rows + 1, words), dtype=np.uint64)
        # Lists ascend by (row, object), so the bits of one (row, word) cell are one run.
        cell = np.repeat(np.arange(rows) * words, np.diff(self.list_offsets)) + (self.list_array >> 6)
        first = np.flatnonzero(np.diff(cell, prepend=-1))
        bits = np.left_shift(np.uint64(1), (self.list_array & 63).astype(np.uint64))
        bitmaps.reshape(-1)[cell[first]] = np.bitwise_or.reduceat(bits, first)
        return bitmaps

    # ------------------------------------------------------------------
    # scalar lookups (functions over the CSR arrays)

    @property
    def keywords(self) -> list[int]:
        """Keywords that have postings."""
        return self.keyword_array.tolist()

    @property
    def num_lists(self) -> int:
        """Number of (sub-)postings lists after any splitting."""
        return int(self.span_starts.size)

    @property
    def max_list_len(self) -> int:
        """Length of the longest (sub-)postings list."""
        if self.span_starts.size == 0:
            return 0
        return int((self.span_ends - self.span_starts).max())

    def spans_for_keyword(self, keyword: int) -> list[tuple[int, int]]:
        """Sublist spans for one keyword (empty if it has no postings)."""
        return self.spans_for_keywords(np.asarray([keyword]))

    def spans_for_keywords(self, keywords: np.ndarray) -> list[tuple[int, int]]:
        """Concatenated spans for an array of keywords (a fresh list)."""
        rows, found = self.keyword_rows(keywords)
        span_rows, _ = self.span_rows_for_keyword_rows(rows[found])
        return list(zip(self.span_starts[span_rows].tolist(), self.span_ends[span_rows].tolist()))

    def postings_for_keyword(self, keyword: int) -> np.ndarray:
        """The full (re-joined) postings list for a keyword."""
        return self.gather(self.spans_for_keyword(keyword))

    def gather(self, spans: list[tuple[int, int]]) -> np.ndarray:
        """Concatenate the object ids covered by ``spans``."""
        if not spans:
            return np.empty(0, dtype=ID_DTYPE)
        return np.concatenate([self.list_array[s:e] for s, e in spans])

    # ------------------------------------------------------------------
    # sizes

    @property
    def total_entries(self) -> int:
        """Entries in the List Array."""
        return int(self.list_array.size)

    def device_bytes(self) -> int:
        """Bytes the index occupies in GPU global memory (the List Array)."""
        return int(self.list_array.nbytes)

    def host_bytes(self) -> int:
        """Approximate host-side position-map footprint."""
        return self.num_lists * _POSITION_MAP_ENTRY_BYTES

    def validate(self) -> None:
        """Check structural invariants; raises on corruption.

        Raises:
            MalformedIndexError: If spans overlap, leave gaps, or point outside the
                List Array, or if the CSR keyword rows are malformed.
        """
        if self.kw_span_offsets.size != self.keyword_array.size + 1:
            raise MalformedIndexError("kw_span_offsets does not cover the keyword rows")
        if self.span_starts.size != self.span_ends.size:
            raise MalformedIndexError("span_starts and span_ends must align")
        if int(self.kw_span_offsets[-1]) != self.num_lists:
            raise MalformedIndexError("kw_span_offsets does not cover the span rows")
        order = np.lexsort((self.span_ends, self.span_starts))
        starts = self.span_starts[order]
        ends = self.span_ends[order]
        cursor = 0
        for start, end in zip(starts, ends):
            if int(start) != cursor or end < start:
                raise MalformedIndexError(f"span ({start},{end}) breaks coverage at {cursor}")
            cursor = int(end)
        if cursor != self.total_entries:
            raise MalformedIndexError(f"spans cover {cursor} of {self.total_entries} entries")
