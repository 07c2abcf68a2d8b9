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

#: Abstract CPU operations ``merged`` / ``without`` spend per postings entry they
#: pass over: :func:`sort_postings`' linear passes, without its sort.
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
    if total == 0:
        empty = np.empty(0, dtype=ID_DTYPE)
        return empty, np.zeros(1, dtype=ID_DTYPE), empty, 1.0
    all_objects = np.repeat(np.arange(len(corpus), dtype=ID_DTYPE), np.diff(corpus.offsets))

    order = np.argsort(all_keywords, kind="stable")
    sorted_keywords = all_keywords[order]
    list_array = np.ascontiguousarray(all_objects[order])

    keywords, starts = np.unique(sorted_keywords, return_index=True)
    offsets = np.concatenate([starts, [total]]).astype(ID_DTYPE)

    # A sort-dominated build: ~ n log n comparisons plus the linear passes.
    build_ops = total * max(1.0, np.log2(total)) + 4.0 * total
    return keywords.astype(ID_DTYPE), offsets, list_array, float(build_ops)


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
    over them under ``load_balance``; :meth:`build`, :meth:`merged` and
    :meth:`without` all end in it.

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

    def merged(self, other: "InvertedIndex", positions: np.ndarray) -> "InvertedIndex":
        """This index and ``other`` as one, without sorting either again.

        A two-run merge of the keyword tables, then of the posting arrays on
        fused ``(keyword row << 32) | local id`` keys — both runs already
        ascend in that key. ``other``'s objects take the ascending local ids
        ``positions``, this index's keep their order in the remaining slots
        (``arange(n, n + m)`` appends). Array for array what :meth:`build`
        makes of the resulting corpus, spans under ``self.load_balance``
        included; ``build_ops`` is the merge's own price: ``other``'s build
        plus a linear pass over both runs.

        Raises:
            MalformedIndexError: ``positions`` does not name one distinct slot per object.
        """
        positions = np.asarray(positions, dtype=ID_DTYPE).reshape(-1)
        if positions.size != other.n_objects or (positions[1:] <= positions[:-1]).any():
            raise MalformedIndexError("positions must ascend, one per merged-in object")
        n_objects = self.n_objects + other.n_objects
        own_ids = np.delete(np.arange(n_objects, dtype=ID_DTYPE), positions)
        # Keyword tables: other's rows land among this index's; ``fresh`` ones are new keywords.
        mine, theirs = self.keyword_array, other.keyword_array
        at = mine.searchsorted(theirs)
        fresh = np.ones(theirs.size, dtype=bool)
        known = at < mine.size
        fresh[known] = mine[at[known]] != theirs[known]
        their_rows = at + np.cumsum(fresh) - fresh
        keywords = np.insert(mine, at[fresh], theirs[fresh])
        my_rows = np.delete(np.arange(keywords.size, dtype=ID_DTYPE), their_rows[fresh])
        my_lengths, their_lengths = np.diff(self.list_offsets), np.diff(other.list_offsets)
        lengths = np.zeros(keywords.size, dtype=ID_DTYPE)
        lengths[my_rows] = my_lengths
        lengths[their_rows] += their_lengths
        my_keys = np.repeat(my_rows << 32, my_lengths) | own_ids[self.list_array]
        their_keys = np.repeat(their_rows << 32, their_lengths) | positions[other.list_array]
        keys = np.insert(my_keys, my_keys.searchsorted(their_keys), their_keys)
        ops = other.build_ops + _MERGE_OPS_PER_ENTRY * keys.size
        return InvertedIndex(keywords, csr_offsets(lengths), keys & 0xFFFFFFFF, ops, n_objects, self.load_balance)

    def without(self, ids: np.ndarray) -> "InvertedIndex":
        """This index minus the objects at local ``ids``, the rest renumbered densely.

        One ``compress`` of the dropped objects' postings; keywords left
        without postings leave the table. Array for array what :meth:`build`
        makes of the remaining corpus, for a linear pass (``build_ops``).
        """
        dropped = np.zeros(self.n_objects, dtype=bool)
        dropped[ids] = True
        new_ids = np.cumsum(~dropped) - 1
        keep = ~dropped[self.list_array]
        offsets = csr_offsets(keep)[self.list_offsets]
        alive = offsets[1:] > offsets[:-1]
        return InvertedIndex(
            self.keyword_array[alive], np.append(offsets[:-1][alive], offsets[-1]),
            new_ids[self.list_array[keep]], _MERGE_OPS_PER_ENTRY * max(1, self.total_entries),
            self.n_objects - int(dropped.sum()), self.load_balance,
        )

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

    @cached_property
    def keyword_table(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted distinct keywords, postings per keyword)``: the indexed corpus's
        :attr:`~repro.core.types.Corpus.keyword_table`, read off the lists (no pass over the rows)."""
        return self.keyword_array, np.diff(self.list_offsets).astype(np.float64)

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
