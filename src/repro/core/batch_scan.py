"""Whole-batch match counting (the engine's one scan path), one round of parts at a time.

GENIE's match-count model lets thousands of queries share one scan
infrastructure; this module is the host-side realization of that idea.
:func:`plan_scan_round` scans every part of a round — each an ``(index,
batch, k)``: the plan executor's routed sources, each device-sized
sub-batch one more part — in one pass over flat arrays whose rows are
``(part, query)`` pairs; :func:`plan_batch_scan` is its one-part case.

1. Each part's :class:`~repro.core.types.QueryBatch` keyword array is
   resolved to CSR keyword rows with one fancy-indexed lookup
   (:meth:`InvertedIndex.keyword_rows`) and expanded to span rows in
   ``(query, item, span)`` order, owners read off the batch's cached
   keyword → item → query arrays; its ``block_sizes`` fall out of
   segmented reductions over that span stream,
2. match counts are computed one tile of a part's query rows at a time,
   in one of four regimes picked by rules over what the span stream says.
   A tile whose postings stream is at most a quarter of its cells is
   **sparse**: the round's sparse tiles are pooled (while their postings
   stay within ``max_fused_cells``) and ``np.unique`` of a pool's fused
   ``row * stride + object_id`` keys (``stride`` the widest part's object
   count) yields its positive cells; no tile is touched. A dense tile is
   **short-list** or **long-list**, by whether its part's keyword
   references average a quarter of the objects a list
   (``sum(list_lengths) * 4 >= n_references * n_objects``). Short lists:
   each row's List-Array spans are concatenated (spans adjacent in the List
   Array as one view) — a cache-sized stream, never the batch's — and
   counted with one ``bincount`` straight into a reused **int32** tile, the
   device's counter width. Long lists: a batch shares its lists (the
   paper's premise; an LSH re-hash domain makes a few heavy buckets that
   every query hits), so each *distinct* referenced keyword list becomes a
   0/1 byte row **once per part** — its cached bitmap
   (:attr:`InvertedIndex.keyword_bitmaps`) unpacked, its postings scattered
   where the index keeps none — and a tile's counts are sums of byte rows
   in a **uint8** tile. A count never exceeds its row's references, so rows
   of more than 255, or byte rows past ``MAX_BYTE_ROW_BYTES``, count as
   short lists instead (README, "Four counting regimes", has the measured
   redundancy per workload). A short-list tile may count as **bit planes**
   instead — the paper's Bitmap Counter (``bit_length(bound)`` bits an
   object) stored plane by plane: a pass adds each row's next two bitmaps
   into the planes 64 objects a word with a carry-save full adder, the
   planes above the tile's largest count are dropped, an MSB-first split of
   the rest under ``np.bitwise_count`` is the row histogram up to that
   count and a bit-sliced comparison yields the candidates.
   :func:`_bit_planes_pay` picks it from the tile's rows, references,
   objects and postings,
3. every regime feeds one **per-row count histogram** (slot ``v`` = how
   many of the row's objects ended at count ``v``; a count is bounded by
   the query size, the fact the paper's Bitmap Counter rests on). Every
   statistic is read off it, once per pool or dense tile, each row at its
   part's ``k``: nonzero totals, the k-th largest count (Theorem 3.1 pins
   ``AT - 1`` to it), the c-PQ Gate passes, and each part's ``count_hist``
   for the launch's atomic-conflict estimate (one ``bincount`` a round),
4. the only sparse extraction is the cells at or above each row's
   threshold, and one segmented sort over the round's candidates yields
   every row's top-k; each part gets its own
   :class:`~repro.core.types.TopKBatch`.

:class:`BatchScanPlan` carries what the engine and the launch builders of
:mod:`repro.core.scan_kernel` read: batch arrays, no per-query objects. No
``(n_queries, n_objects)`` array ever exists.

The readable per-query specification lives outside the package, in the
repository's ``paper/reference/reference.py``; its ``plan_batch`` assembles
the same struct one query at a time and ``tests/core/test_batch_scan.py``
holds the two equal field by field (and a round equal to its parts scanned
one by one), so the simulated
:class:`~repro.gpu.kernel.KernelLaunch` costs and every answer
(count-desc / id-asc tie-break included) are bit-for-bit the specification's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inverted_index import InvertedIndex
from repro.core.types import ID_DTYPE, QueryBatch, TopKBatch, csr_offsets, ragged_slices

#: Count-matrix cells per tile — the pipeline's cache budget: 512k int32
#: cells = 2 MB, so a tile's count rows stay resident while the candidate
#: extraction reads them back.
DEFAULT_MAX_FUSED_CELLS = 512 * 1024


@dataclass
class BatchScanPlan:
    """Work layout and results of a whole batch's scan.

    Attributes:
        n_queries: Queries in the batch.
        block_sizes: Postings entries scanned by each match-kernel block:
            every query's blocks concatenated in batch order (a query that
            scans nothing still contributes one ``0`` block).
        updates: ``(n_queries,)`` counter increments (= entries scanned).
        gate_passes: ``(n_queries,)`` estimated c-PQ Gate passes.
        count_hist: Histogram of the batch's final counters: entry ``v`` is
            the number of ``(query, object)`` counters that ended at count
            ``v >= 1`` (entry 0 is 0; the last entry is the largest count).
        results: Every query's top-k as one batch (``results[i]`` is query
            ``i``'s :class:`~repro.core.types.TopKResult` view; the arrays
            hold the answer entries only, at most ``n_queries * k``).
    """

    n_queries: int
    block_sizes: np.ndarray
    updates: np.ndarray
    gate_passes: np.ndarray
    count_hist: np.ndarray
    results: TopKBatch


def plan_batch_scan(
    index: InvertedIndex,
    queries: QueryBatch,
    k: int,
    max_fused_cells: int = DEFAULT_MAX_FUSED_CELLS,
) -> BatchScanPlan:
    """Lay out block structure, count and select top-k for a whole batch: a one-part round.

    Returns the batch plan, equal field by field to
    the specification's ``plan_batch(index, queries, k)`` (see
    :func:`plan_scan_round`; ``k`` also feeds the c-PQ cost derivation).
    """
    (plan,) = plan_scan_round([(index, queries, k)], max_fused_cells)
    return plan


def plan_scan_round(parts, max_fused_cells: int = DEFAULT_MAX_FUSED_CELLS) -> list[BatchScanPlan]:
    """Scan every ``(index, queries, k)`` part of a round in one pass.

    Rows are ``(part, query)`` pairs, part-major. Each part resolves its own
    spans, block sizes and tiles of at most ``max_fused_cells`` cells, and
    its dense tiles keep their regime rules; the round's sparse tiles are
    pooled while their postings stay within ``max_fused_cells``, and each
    pool is counted by one ``np.unique`` over ``row * stride + local_id``
    keys (``stride`` = the widest part's object count). Row statistics run
    once per pool and once per dense tile, each row at its part's ``k``;
    the selection and the count histograms run once per round.

    Returns:
        Per part, ``plan_batch_scan(index, queries, k)`` field by field.
    """
    sweep = _Round([_Part(index, queries, int(k)) for index, queries, k in parts], int(max_fused_cells))
    pool, pooled = [], 0
    for part in sweep.parts:
        n_objects, n_queries = part.index.n_objects, part.n_queries
        rows_per_tile = max(1, sweep.max_fused_cells // max(n_objects, 1))
        shared = _shared_byte_rows(part.index, part.keyword_rows, part.keyword_bounds, int(part.updates.sum()))
        buffer = None
        for lo in range(0, n_queries, rows_per_tile):
            hi = min(lo + rows_per_tile, n_queries)
            entries = int(part.updates[lo:hi].sum())
            if entries * 4 <= (hi - lo) * n_objects:
                if pool and pooled + entries > sweep.max_fused_cells:
                    sweep.count_sparse(pool)
                    pool, pooled = [], 0
                pool.append((part, lo, hi))
                pooled += entries
                continue
            if buffer is None:
                # Dense tiles are recounted into one buffer at the device's
                # counter width; byte rows add up in a byte tile.
                counter = np.int32 if shared is None else np.uint8
                buffer = np.empty((min(rows_per_tile, n_queries), n_objects), dtype=counter)
            sweep.count_dense(part, lo, hi, entries, shared, buffer[: hi - lo])
    if pool:
        sweep.count_sparse(pool)
    return sweep.plans()


# ----------------------------------------------------------------------
# span resolution and block layout


def _resolve_spans(
    index: InvertedIndex, queries: QueryBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every query item's keywords to one flat span stream.

    Returns:
        ``(span_rows, span_query, span_item, keyword_rows, keyword_query)``:
        for each resolved span its row in the index's span table, owning
        query, and owning item (a batch-global item counter); for each
        resolved keyword its keyword row and owning query. The stream is
        ordered by query, then item, then the item's keyword order, then
        span order — the order the specification's ``plan_query_scan``
        visits spans.
    """
    rows, found = index.keyword_rows(queries.keywords)
    rows, keyword_item = rows[found], queries.keyword_item[found]
    span_rows, n_spans = index.span_rows_for_keyword_rows(rows)
    span_item = np.repeat(keyword_item, n_spans)
    return span_rows, queries.item_query[span_item], span_item, rows, queries.item_query[keyword_item]


def _segmented_block_sizes(
    index: InvertedIndex,
    span_lengths: np.ndarray,
    span_query: np.ndarray,
    span_item: np.ndarray,
    n_queries: int,
) -> np.ndarray:
    """The batch's block sizes from segmented reductions over the span stream.

    The layout rule of the paper's match kernel: without load balancing one
    block per item with postings; with load balancing the item's spans are
    grouped ``max_lists_per_block`` at a time, in stream order. A query with
    no block of its own gets a single ``0`` block, so the launch's block
    count never drops below the batch size.
    """
    if span_item.size == 0:
        return np.zeros(n_queries, dtype=np.int64)

    is_new_item = np.empty(span_item.size, dtype=bool)
    is_new_item[0] = True
    np.not_equal(span_item[1:], span_item[:-1], out=is_new_item[1:])

    lb = index.load_balance
    if lb is None:
        block_starts = np.nonzero(is_new_item)[0]
    else:
        item_first = np.nonzero(is_new_item)[0]
        spans_per_item = np.diff(np.append(item_first, span_item.size))
        within_item = np.arange(span_item.size, dtype=ID_DTYPE) - np.repeat(
            item_first, spans_per_item
        )
        block_starts = np.nonzero(is_new_item | (within_item % lb.max_lists_per_block == 0))[0]

    real_blocks = np.add.reduceat(span_lengths, block_starts)
    block_query = span_query[block_starts]
    scans_nothing = np.bincount(block_query, minlength=n_queries) == 0
    # Each real block shifts right by the number of empty queries before it.
    block_sizes = np.zeros(real_blocks.size + int(scans_nothing.sum()), dtype=np.int64)
    block_sizes[np.arange(real_blocks.size) + np.cumsum(scans_nothing)[block_query]] = real_blocks
    return block_sizes


# ----------------------------------------------------------------------
# the round's count / histogram / selection sweep


class _Part:
    """One part of a round: its span stream, block layout and (set by the round) first round row."""

    def __init__(self, index: InvertedIndex, queries: QueryBatch, k: int):
        self.index, self.k, self.n_queries = index, k, len(queries)
        span_rows, self.span_query, span_item, self.keyword_rows, keyword_query = _resolve_spans(index, queries)
        self.span_starts = index.span_starts[span_rows]
        self.span_lengths = index.span_ends[span_rows] - self.span_starts
        self.block_sizes = _segmented_block_sizes(index, self.span_lengths, self.span_query, span_item, self.n_queries)
        every_query = np.arange(self.n_queries + 1)
        self.keyword_bounds = np.searchsorted(keyword_query, every_query)
        self.span_bounds = np.searchsorted(self.span_query, every_query)
        self.updates = np.bincount(
            self.span_query, weights=self.span_lengths.astype(np.float64), minlength=self.n_queries
        ).astype(np.int64)


class _Round:
    """One round's per-row state: statistics, count histograms and the candidates held for selection."""

    def __init__(self, parts: list[_Part], max_fused_cells: int):
        self.parts, self.max_fused_cells = parts, max_fused_cells
        sizes = [part.n_queries for part in parts]
        self.first_row = csr_offsets(sizes)
        for part, first in zip(parts, self.first_row.tolist()):
            part.first_row = first
        self.k = np.repeat(np.asarray([part.k for part in parts], dtype=np.int64), sizes)
        self.kk = np.minimum(self.k, np.repeat([part.index.n_objects for part in parts], sizes))
        self.updates = np.concatenate([np.empty(0, dtype=np.int64), *(part.updates for part in parts)])
        self.stride = max([1, *(part.index.n_objects for part in parts)])
        self.gate_passes = np.empty(self.k.size, dtype=np.float64)
        self.kth = np.empty(self.k.size, dtype=np.int64)
        nothing = np.empty(0, dtype=np.int64)
        # Per count-histogram slot that occurs: its row, count value and counters.
        self.hist = [(nothing, nothing, nothing)]
        # Candidates (row, id, count), a row's in one chunk, ids ascending
        # among its equal counts; ``held`` counts those no selection has cut yet.
        self.candidates, self.held = [(nothing, nothing, nothing)], 0

    def count_sparse(self, pool: list) -> None:
        """A pool of sparse ``(part, lo, hi)`` tiles: one ``np.unique``, then their rows' statistics."""
        streams, pool_rows = [], 0
        for part, lo, hi in pool:
            spans = slice(part.span_bounds[lo], part.span_bounds[hi])
            streams.append((part.index.list_array32, part.span_starts[spans], part.span_lengths[spans],
                            part.span_query[spans] - lo + pool_rows))
            pool_rows += hi - lo
        keys, vals = _positive_cells(streams, self.stride, pool_rows)
        rows = np.concatenate([np.arange(part.first_row + lo, part.first_row + hi) for part, lo, hi in pool])
        key_row = keys // self.stride
        # A count never exceeds the entries its row scanned.
        widths = self.updates[rows] + 1
        hist = np.bincount((np.cumsum(widths) - widths)[key_row] + vals, minlength=int(widths.sum()))
        # Theorem 3.1: only counts at or above the k-th largest can win.
        keep = vals >= self.rank(rows, hist, widths)[key_row]
        key_row = key_row[keep]
        self.hold(rows[key_row], keys[keep] - key_row * self.stride, vals[keep])

    def count_dense(self, part: _Part, lo: int, hi: int, entries: int, shared, tile: np.ndarray) -> None:
        """One dense tile of ``part`` (its queries ``lo:hi``), counted in the part's regime."""
        index, n_objects, refs = part.index, part.index.n_objects, part.keyword_bounds[lo : hi + 1]
        planes = None
        if shared is None and _bit_planes_pay(
            hi - lo, refs, n_objects, entries, self.max_fused_cells
        ) and index.keyword_bitmaps is not None:
            planes = _add_bitmaps(index.keyword_bitmaps, part.keyword_rows, refs)
            most = _largest_count(planes)  # >= 1: a dense tile has a posting
            planes = planes[: most.bit_length()]  # the ones above are zero
            hist = _plane_histograms(planes, most, self.max_fused_cells * 4).reshape(-1)
            widths = np.full(hi - lo, most + 1)
        elif shared is None:
            spans = slice(part.span_bounds[lo], part.span_bounds[hi])
            row_bounds = part.span_bounds[lo : hi + 1] - part.span_bounds[lo]
            widths, hist = _row_histograms(
                _count_rows(tile, index, part.span_starts[spans], part.span_lengths[spans], row_bounds)
            )
        else:
            _add_byte_rows(tile, *shared, refs)
            widths, hist = _row_histograms(tile)

        first = part.first_row + lo
        level = self.rank(np.arange(first, first + hi - lo), hist, widths)
        if planes is not None:
            keys, vals = _planes_at_least(planes, level, n_objects)
        else:
            keys = np.flatnonzero(tile >= level.astype(tile.dtype)[:, None])
            vals = tile.reshape(-1)[keys].astype(np.int64)  # off the counter width
        key_row, ids = np.divmod(keys, n_objects)
        self.hold(key_row + first, ids, vals)

    def rank(self, rows: np.ndarray, hist: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Record ``rows``' statistics from their count histograms; returns each row's candidate level."""
        nonzero, kth, passes_high, value, row_of = _row_statistics(hist, widths, self.kk[rows])
        self.gate_passes[rows] = passes_high + np.minimum(nonzero, self.k[rows]) * kth
        self.kth[rows] = kth
        occurs = hist > 0
        self.hist.append((rows[row_of[occurs]], value[occurs], hist[occurs]))
        return np.maximum(kth, 1)

    def hold(self, rows: np.ndarray, ids: np.ndarray, vals: np.ndarray) -> None:
        """Hold a counted chunk's candidates (whole rows) for the round's selection.

        Threshold ties can make candidates outnumber answers by far: once the
        uncut ones pass ``max_fused_cells`` they are cut to their rows' answers.
        """
        self.candidates.append((rows, ids, vals))
        self.held += ids.size
        if self.held > self.max_fused_cells:
            rows, ids, vals = (np.concatenate(field) for field in zip(*self.candidates))
            top, _ = _select_rows(rows, ids, vals, self.kk)
            self.candidates, self.held = [(rows[top], ids[top], vals[top])], 0

    def plans(self) -> list[BatchScanPlan]:
        """Select every row's top-k and split the round into its parts' plans."""
        rows, ids, vals = (np.concatenate(field) for field in zip(*self.candidates))
        top, sizes = _select_rows(rows, ids, vals, self.kk)
        offsets = csr_offsets(sizes)
        hist_rows, values, counters = (np.concatenate(field) for field in zip(*self.hist))
        slots = int(values.max(initial=0)) + 1
        slot_part = np.searchsorted(self.first_row, hist_rows, side="right") - 1
        count_hist = np.bincount(
            slot_part * slots + values, weights=counters, minlength=len(self.parts) * slots
        ).astype(np.int64).reshape(len(self.parts), slots)
        plans = []
        for p, part in enumerate(self.parts):
            a, b = self.first_row[p], self.first_row[p + 1]
            # A gather of the part's answer entries alone: a kept result view
            # must not pin the round's candidate arrays.
            picked = top[offsets[a] : offsets[b]]
            counted = np.flatnonzero(count_hist[p])
            plans.append(BatchScanPlan(
                n_queries=part.n_queries,
                block_sizes=part.block_sizes,
                updates=part.updates,
                gate_passes=self.gate_passes[a:b],
                count_hist=count_hist[p, : counted[-1] + 1 if counted.size else 0],
                results=TopKBatch(ids[picked], vals[picked], offsets[a : b + 1] - offsets[a], self.kth[a:b]),
            ))
        return plans


def _positive_cells(streams: list, stride: int, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse regime: a pool of tiles' positive cells without touching a tile.

    ``streams`` holds per tile ``(list_array32, span_starts, span_lengths,
    span_row)``, rows numbered through the pool. The pool's postings stream
    is much smaller than its tiles, so ``np.unique`` of the fused
    ``row * stride + object_id`` keys yields the positive cells directly.

    Returns:
        ``(keys, vals)``: flat cell keys in ascending order and their counts.
    """
    fused_dtype = np.int32 if n_rows * stride < 2**31 else np.int64
    fused = [
        list_array32[ragged_slices(starts, lengths)].astype(fused_dtype, copy=False)
        + np.repeat((rows * stride).astype(fused_dtype), lengths)
        for list_array32, starts, lengths, rows in streams
    ]
    return np.unique(fused[0] if len(fused) == 1 else np.concatenate(fused), return_counts=True)


def _count_rows(
    tile: np.ndarray,
    index: InvertedIndex,
    span_starts: np.ndarray,
    span_lengths: np.ndarray,
    row_bounds: np.ndarray,
):
    """Short-list dense regime: fill ``tile`` row by row, one ``bincount`` per row.

    A row's List-Array spans are concatenated (plain memcpy of a
    cache-sized stream) and counted straight into the tile; spans that
    follow each other in the List Array (a range item's keywords, a list's
    sublists) are read as one view. Yields each row as it is filled, so
    :func:`_row_histograms` reads it while it is hot.
    """
    list_array32 = index.list_array32
    n_objects = tile.shape[1]
    joined = np.empty(span_starts.size, dtype=bool)
    joined[0] = False  # a dense tile has a span
    np.equal(span_starts[1:], span_starts[:-1] + span_lengths[:-1], out=joined[1:])
    row_starts = row_bounds[:-1]
    joined[row_starts[row_starts < span_starts.size]] = False
    first = np.flatnonzero(~joined)
    lengths = np.add.reduceat(span_lengths, first)
    views = [list_array32[s : s + n] for s, n in zip(span_starts[first].tolist(), lengths.tolist())]
    bounds = np.searchsorted(first, row_bounds).tolist()
    for ti, (a, b) in enumerate(zip(bounds, bounds[1:])):
        row = np.bincount(np.concatenate(views[a:b] or [list_array32[:0]]), minlength=n_objects)
        tile[ti] = row
        yield row


#: Byte rows of one batch may hold this many bytes (one per object per distinct
#: keyword row, unpacked from bitmaps an eighth their size) — a memory bound,
#: not a cache one (a row is gathered whole, so a cold one streams: 10.8 MB of
#: rows still count 3.3x faster than per-row ``bincount``). 16 MB is what a
#: dense int64 count matrix weighs for one Fig. 9 batch (256 x 8 000).
MAX_BYTE_ROW_BYTES = 16 * 2**20


def _shared_byte_rows(
    index: InvertedIndex, keyword_rows: np.ndarray, keyword_bounds: np.ndarray, entries: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Long-list regime: each distinct referenced keyword list once, as a 0/1 byte row.

    One ``unpackbits`` of the index's cached keyword bitmaps; an index that
    keeps none scatters the lists' postings into zeroed rows instead.

    Returns:
        ``(byte_rows, ref_row)`` — one ``uint8`` row of ``n_objects`` per
        distinct keyword row and, per keyword reference, its byte row — or
        ``None`` when the part's dense tiles count per row instead (the rule
        and the bound are in the module docstring).
    """
    n_objects = index.n_objects
    if not 0 < keyword_rows.size * n_objects <= entries * 4 or np.diff(keyword_bounds).max() > np.iinfo(np.uint8).max:
        return None
    distinct, ref_row = np.unique(keyword_rows, return_inverse=True)
    if distinct.size * n_objects > MAX_BYTE_ROW_BYTES:
        return None
    if (bitmaps := index.keyword_bitmaps) is not None:
        words = bitmaps[distinct].astype("<u8", copy=False).view(np.uint8)  # object o at bit o % 8 of byte o // 8
        return np.unpackbits(words, axis=1, count=n_objects, bitorder="little"), ref_row
    offsets = index.list_offsets
    lengths = offsets[distinct + 1] - offsets[distinct]
    byte_rows = np.zeros((distinct.size, n_objects), dtype=np.uint8)
    # An object is on a posting list once, so a list's count row is 0/1.
    byte_rows[np.repeat(np.arange(distinct.size), lengths), index.list_array32[ragged_slices(offsets[distinct], lengths)]] = 1
    return byte_rows, ref_row


def _add_byte_rows(
    tile: np.ndarray, byte_rows: np.ndarray, ref_row: np.ndarray, ref_bounds: np.ndarray
) -> None:
    """Long-list regime: a tile's counts as sums of its rows' byte rows.

    Pass ``r`` adds every row's ``r``-th reference at once — one gather of
    byte rows, one add — over the rows that have an ``r``-th reference
    (``ref_bounds`` are the tile rows' bounds in the keyword references).
    """
    first, n_refs = ref_bounds[:-1], np.diff(ref_bounds)
    every_row = int(n_refs.min())
    tile[:] = 0
    for r in range(int(n_refs.max())):
        if r < every_row:
            tile += byte_rows[ref_row[first + r]]
        else:
            rows = np.flatnonzero(n_refs > r)
            tile[rows] += byte_rows[ref_row[first[rows] + r]]


#: A bit plane of a tile holds at least this many bytes, or the tile counts row
#: by row: a pass is a few numpy calls over one plane, and below this their
#: fixed cost is what gets measured (one 64-reference row over 4 000 objects:
#: 0.72 ms as planes, 0.17 ms by ``bincount``).
MIN_PLANE_BYTES = 32 * 1024


def _bit_planes_pay(n_rows: int, ref_bounds: np.ndarray, n_objects: int, entries: int, max_fused_cells: int) -> bool:
    """Whether a dense tile counts faster as bit planes than row by row.

    The rule reads the tile's sizes alone (``ref_bounds`` are its rows'
    bounds in the keyword references): its planes are at least
    ``MIN_PLANE_BYTES`` each; a row ripples at most ``n_refs *
    bit_length(n_refs)`` plane words, which must stay within three per
    postings entry the row's ``bincount`` would stream (full tiles over
    2 000–16 000 objects measured 1.1–4.0x faster up to there, 0.94–0.97x
    from 3.75 on); and the planes plus a pass's two scratch rows fit the
    tile's byte budget (``max_fused_cells`` int32).
    """
    plane_bytes = n_rows * -(-n_objects // 64) * 8
    if plane_bytes < MIN_PLANE_BYTES:
        return False
    n_refs = int(np.diff(ref_bounds).max())
    return (
        plane_bytes // 8 * n_refs * n_refs.bit_length() <= 3 * entries
        and (n_refs.bit_length() + 2) * plane_bytes <= max_fused_cells * 4
    )


def _add_bitmaps(bitmaps: np.ndarray, keyword_rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Bit-sliced regime: a tile's counts as bit planes, two references per pass.

    Plane ``p`` holds bit ``p`` of every counter, 64 objects a word. Pass
    ``r`` (even) gathers every row's ``r``-th and ``r + 1``-th referenced
    bitmaps (``bounds`` are the tile rows' bounds in ``keyword_rows``; the
    all-zero last bitmap once a row runs out) into plane 0 with one full
    adder and ripples the weight-2 carry through the planes a count of
    ``min(r + 2, R)`` reaches — a carry never leaves the top one. Plane 0
    rotates through the pass's three rows, so two scratch rows suffice.
    """
    n_refs = np.diff(bounds)
    n_counts = int(n_refs.max())
    refs = np.full((n_counts + n_counts % 2, n_refs.size), len(bitmaps) - 1, dtype=np.intp)
    rank = np.arange(bounds[-1] - bounds[0]) - np.repeat(bounds[:-1] - bounds[0], n_refs)
    refs[rank, np.repeat(np.arange(n_refs.size), n_refs)] = keyword_rows[bounds[0] : bounds[-1]]
    planes = np.zeros((n_counts.bit_length(), n_refs.size, bitmaps.shape[1]), dtype=np.uint64)
    low, a, b = planes[0], np.empty_like(planes[0]), np.empty_like(planes[0])
    for r in range(0, len(refs), 2):
        np.take(bitmaps, refs[r], axis=0, out=a, mode="clip")
        np.take(bitmaps, refs[r + 1], axis=0, out=b, mode="clip")
        # Full adder: b <- low ^ a ^ b (the new plane 0), a <- majority (the carry).
        np.bitwise_xor(a, low, out=a)
        np.bitwise_xor(low, b, out=low)
        np.bitwise_xor(b, a, out=b)
        np.bitwise_or(a, low, out=a)
        np.bitwise_xor(a, b, out=a)
        low, carry, spare = b, a, low
        top = min(r + 2, n_counts).bit_length() - 1
        for plane in planes[1:top]:
            np.bitwise_and(plane, carry, out=spare)
            np.bitwise_xor(plane, carry, out=plane)
            carry, spare = spare, carry
        if top:
            np.bitwise_or(planes[top], carry, out=planes[top])
        a, b = carry, spare
    planes[0] = low  # plane 0 may have ended in a scratch row
    return planes


def _largest_count(planes: np.ndarray) -> int:
    """The tile's largest count, read MSB-first off its planes (one ``&`` and ``.any()`` a plane)."""
    most, reach = 0, np.full_like(planes[0], ~np.uint64(0))
    for p in range(len(planes) - 1, -1, -1):
        if (hit := reach & planes[p]).any():
            most, reach = most | 1 << p, hit
    return most


def _plane_histograms(planes: np.ndarray, most: int, max_bytes: int) -> np.ndarray:
    """``(n_rows, most + 1)`` per-row count histograms of a bit-plane tile, slot 0 zeroed.

    ``most`` is the tile's largest count and ``planes`` its ``bit_length``
    planes. An MSB-first split: plane by plane, every count prefix's object
    mask is cut into its 0- and 1-extensions, dropping prefixes past
    ``most``; the leaves' popcounts are the histogram. Rows are split a few
    at a time, so the leaves stay within ``max_bytes``.
    """
    n_rows, words = planes.shape[1:]
    step = max(1, max_bytes // ((most + 1) * words * 8))
    hist = np.empty((most + 1, n_rows), dtype=np.int64)
    for lo in range(0, n_rows, step):
        masks = np.full((1, min(step, n_rows - lo), words), ~np.uint64(0))
        for p in range(len(planes) - 1, -1, -1):
            n_prefixes, plane = (most >> p) + 1, planes[p, lo : lo + step]
            split = np.empty((n_prefixes, *plane.shape), dtype=np.uint64)
            np.bitwise_and(masks[: (n_prefixes + 1) // 2], ~plane, out=split[0::2])
            np.bitwise_and(masks[: n_prefixes // 2], plane, out=split[1::2])
            masks = split
        hist[:, lo : lo + step] = np.bitwise_count(masks).sum(axis=-1, dtype=np.int64)
    hist[0] = 0  # untouched objects (and the last word's padding) are not positive counts
    return hist.T


def _planes_at_least(planes: np.ndarray, level: np.ndarray, n_objects: int) -> tuple[np.ndarray, np.ndarray]:
    """Bit-sliced regime: the cells whose count is at least their row's ``level``.

    An MSB-first comparison against each row's level bits; only the words
    with a hit are unpacked.

    Returns:
        ``(keys, vals)``: flat cell keys in ascending order and their counts.
    """
    above = np.zeros(planes.shape[1:], dtype=np.uint64)
    equal = np.full(planes.shape[1:], ~np.uint64(0))
    for p in range(len(planes) - 1, -1, -1):
        ones = np.where((level >> p) & 1 > 0, ~np.uint64(0), np.uint64(0))[:, None]
        above |= equal & planes[p] & ~ones
        equal &= ~(planes[p] ^ ones)
    hit = (above | equal).reshape(-1)
    cell = np.flatnonzero(hit)
    which, bit = np.nonzero((hit[cell, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
    cell, bit = cell[which], bit.astype(np.uint64)
    vals = sum(((plane.reshape(-1)[cell] >> bit) & np.uint64(1)).astype(np.int64) << p for p, plane in enumerate(planes))
    row, word = np.divmod(cell, planes.shape[2])
    return row * n_objects + word * 64 + bit.astype(np.int64), vals


def _row_histograms(rows) -> tuple[np.ndarray, np.ndarray]:
    """One count histogram per row of a dense tile (any counter width).

    Returns:
        ``(widths, hist)``: the rows' histograms concatenated, row ``r``
        owning ``widths[r]`` slots (see :func:`_row_statistics`).
    """
    hists = []
    for row in rows:
        hist = np.bincount(row)
        hist[0] = 0  # untouched objects are not positive counts
        hists.append(hist)
    return np.asarray([hist.size for hist in hists]), np.concatenate(hists)


def _row_statistics(
    hist: np.ndarray, widths: np.ndarray, kk: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every per-row statistic of a tile from its per-row count histogram.

    ``hist`` concatenates one histogram per row: row ``r`` owns
    ``widths[r]`` slots (more than its largest count) and slot ``v >= 1``
    holds the number of the row's objects whose count ended at ``v``; slot 0
    is 0. Its size is bounded by the tile's data, not by how large a count
    gets: at most the tile's postings stream plus one slot per row.

    Returns:
        ``(nonzero, kth, passes_high, value, row_of)``: per row its number
        of positive counts, its ``kk[row]``-th largest count (Theorem 3.1's
        ``AT - 1``; 0 when fewer than ``kk[row]`` are positive) and the Gate
        passes of the objects at or above it; per slot its count value and row.
    """
    ends = np.cumsum(widths)
    starts = ends - widths
    row_of = np.repeat(np.arange(widths.size), widths)
    value = np.arange(hist.size) - starts[row_of]
    running = np.cumsum(hist)
    row_end = running[ends - 1]
    nonzero = np.diff(row_end, prepend=0)
    # Objects of the slot's row with a count >= the slot's value: it never
    # grows along a row, so the slots that still reach kk are 1..kth.
    at_least = row_end[row_of] - running + hist
    kth = np.add.reduceat(((at_least >= kk[row_of]) & (value > 0)).astype(np.int64), starts)
    level = np.maximum(kth, 1)
    passes_high = np.add.reduceat(hist * np.maximum(value - level[row_of] + 1, 0), starts)
    return nonzero, kth, passes_high, value, row_of


def _select_rows(
    rows: np.ndarray, ids: np.ndarray, vals: np.ndarray, kk: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's top-k from its threshold-filtered candidates.

    ``rows`` / ``ids`` / ``vals`` hold, for every row in ``0..kk.size``,
    every cell with a count ``>= max(kth, 1)`` — exactly the candidate set
    the specification's ``topk_from_counts`` draws from — rows in any
    order, each row's cells together and ids ascending among its equal
    counts. One stable segmented sort by (row, count desc) keeps them so;
    fewer than ``kk`` cells sit above the threshold, so a row's first
    ``kk`` entries are those plus the threshold ties of lowest id.

    Returns:
        ``(top, sizes)``: the positions of every row's answers in rank
        order, rows ascending, and each row's answer count.
    """
    order = np.lexsort((-vals, rows))
    first = np.searchsorted(rows[order], np.arange(kk.size + 1))
    sizes = np.minimum(first[1:] - first[:-1], kk)
    return order[ragged_slices(first[:-1], sizes)], sizes
