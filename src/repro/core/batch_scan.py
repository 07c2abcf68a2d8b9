"""Fused whole-batch match counting (the engine's one scan path).

GENIE's match-count model lets thousands of queries share one scan
infrastructure; this module is the host-side realization of that idea. The
*whole batch* is processed as flat arrays:

1. every query item's keywords are resolved to CSR keyword rows with one
   fancy-indexed lookup (:meth:`InvertedIndex.keyword_rows`),
2. keyword rows expand to span rows and then to one flat object-id stream
   in ``(query, item, span)`` order — a single gather of all queries'
   postings,
3. match counts are computed tile-by-tile with a fused-key ``bincount``
   over ``query_row * n_objects + object_id``; tiles are sized so one
   tile's count rows stay cache-resident,
4. the batch's ``block_sizes`` fall out of segmented reductions over the
   same span stream, and the c-PQ cost statistics, positive-count
   histograms and (with ``select=True``) the top-k selection are all
   computed per tile while the rows are still hot in cache.

:class:`BatchScanPlan` carries what the engine and the launch builders of
:mod:`repro.core.scan_kernel` read: batch arrays, no per-query objects. On
the c-PQ path (``select=True``) tiles are counted into one reused buffer, so
no ``(n_queries, n_objects)`` array ever exists; the dense matrix is kept
only for GEN-SPQ (``select=False``), whose bucket selection reads full rows.

The readable per-query specification lives in :mod:`repro.core.reference`;
``reference.plan_batch`` assembles the same struct one query at a time and
``tests/core/test_batch_scan.py`` holds the two equal field by field, so the
simulated :class:`~repro.gpu.kernel.KernelLaunch` costs and every answer
(count-desc / id-asc tie-break included) are bit-for-bit the specification's.
Theorem 3.1 pins the threshold to the k-th count, so candidates are
extracted by threshold instead of a full ``argpartition``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inverted_index import InvertedIndex, ragged_slices
from repro.core.types import ID_DTYPE, Query, TopKResult

#: Cap on the fused bincount key domain (count-matrix cells per tile). Also
#: the pipeline's cache budget: 512k int64 cells = 4 MB, so a tile's count
#: rows stay resident while cost statistics and selection read them back.
DEFAULT_MAX_FUSED_CELLS = 512 * 1024

#: Average span length above which the postings stream is gathered by
#: concatenating List-Array views (pure memcpy) instead of materializing a
#: fancy-index array; short spans amortize better through the index array.
_CONCAT_MIN_AVG_SPAN = 32


@dataclass
class BatchScanPlan:
    """Work layout (and optional results) of a whole batch's scan.

    Attributes:
        n_queries: Queries in the batch.
        block_sizes: Postings entries scanned by each match-kernel block:
            every query's blocks concatenated in batch order (a query that
            scans nothing still contributes one ``0`` block).
        updates: ``(n_queries,)`` counter increments (= entries scanned).
        gate_passes: ``(n_queries,)`` estimated c-PQ Gate passes.
        hot_counts: The batch's positive match counts, flat and 32-bit, in
            (query, ascending-id) order.
        hot_bounds: ``(n_queries + 1,)`` per-query offsets into ``hot_counts``.
        results: Per-query top-k under ``select=True``, else ``None``.
        counts: Dense ``(n_queries, n_objects)`` match counts under
            ``select=False`` (GEN-SPQ), else ``None``.
    """

    n_queries: int
    block_sizes: np.ndarray
    updates: np.ndarray
    gate_passes: np.ndarray
    hot_counts: np.ndarray
    hot_bounds: np.ndarray
    results: list[TopKResult] | None = None
    counts: np.ndarray | None = None


def plan_batch_scan(
    index: InvertedIndex,
    queries: list[Query],
    k: int,
    max_fused_cells: int = DEFAULT_MAX_FUSED_CELLS,
    select: bool = False,
) -> BatchScanPlan:
    """Lay out block structure and compute final counts for a whole batch.

    Args:
        index: The fitted inverted index (CSR position map).
        queries: The batch.
        k: Result size (feeds the c-PQ cost derivation and selection).
        max_fused_cells: Upper bound on one tile's fused ``bincount``
            domain; also the tile size of the cache-resident pipeline.
        select: Compute each query's top-k while tiles are cache-hot (the
            c-PQ path) instead of keeping the dense count matrix.

    Returns:
        The batch plan, equal field by field to
        ``repro.core.reference.plan_batch(index, queries, k)``.
    """
    n_queries = len(queries)
    span_rows, span_query, span_item = _resolve_spans(index, queries)
    span_lengths = index.span_ends[span_rows] - index.span_starts[span_rows]
    block_sizes = _segmented_block_sizes(index, span_lengths, span_query, span_item, n_queries)
    return _tiled_sweep(
        index, span_rows, span_lengths, span_query, block_sizes, n_queries, int(k), max_fused_cells, select
    )


# ----------------------------------------------------------------------
# span resolution and block layout


def _resolve_spans(
    index: InvertedIndex, queries: list[Query]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every query item's keywords to one flat span stream.

    Returns:
        ``(span_rows, span_query, span_item)``: for each resolved span its
        row in the index's span table, owning query, and owning item (a
        batch-global item counter). The stream is ordered by query, then
        item, then the item's keyword order, then span order — the order
        :func:`repro.core.reference.plan_query_scan` visits spans.
    """
    keyword_chunks: list[np.ndarray] = []
    item_sizes: list[int] = []
    item_query: list[int] = []
    for qi, query in enumerate(queries):
        for item in query.items:
            keyword_chunks.append(item)
            item_sizes.append(item.size)
            item_query.append(qi)

    empty = np.empty(0, dtype=ID_DTYPE)
    if not keyword_chunks:
        return empty, empty, empty

    kw_flat = np.concatenate(keyword_chunks)
    kw_item = np.repeat(
        np.arange(len(item_sizes), dtype=ID_DTYPE), np.asarray(item_sizes, dtype=ID_DTYPE)
    )
    item_query_arr = np.asarray(item_query, dtype=ID_DTYPE)

    rows, found = index.keyword_rows(kw_flat)
    rows, kw_item = rows[found], kw_item[found]
    span_rows, n_spans = index.span_rows_for_keyword_rows(rows)
    span_item = np.repeat(kw_item, n_spans)
    span_query = item_query_arr[span_item] if span_item.size else empty
    return span_rows, span_query, span_item


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
# the tiled count / cost / selection sweep


def _gather_stream(index: InvertedIndex, span_rows: np.ndarray, span_lengths: np.ndarray) -> np.ndarray:
    """The batch's flat object-id stream (32-bit), in span order."""
    list_array32 = index.list_array32
    starts = index.span_starts[span_rows]
    total = int(span_lengths.sum())
    if span_rows.size and total >= _CONCAT_MIN_AVG_SPAN * span_rows.size:
        ends = starts + span_lengths
        return np.concatenate(
            [list_array32[s:e] for s, e in zip(starts.tolist(), ends.tolist())]
        )
    return list_array32[ragged_slices(starts, span_lengths)]


def _tiled_sweep(
    index: InvertedIndex,
    span_rows: np.ndarray,
    span_lengths: np.ndarray,
    span_query: np.ndarray,
    block_sizes: np.ndarray,
    n_queries: int,
    k: int,
    max_fused_cells: int,
    select: bool,
) -> BatchScanPlan:
    """Count, cost-derive and (optionally) select, one cache-sized tile at a time."""
    n_objects = index.n_objects
    stream = _gather_stream(index, span_rows, span_lengths)
    # Per-query entry ranges of the stream (ordered by batch position).
    updates = np.bincount(
        span_query, weights=span_lengths.astype(np.float64), minlength=n_queries
    ).astype(np.int64)
    entry_bounds = np.zeros(n_queries + 1, dtype=np.int64)
    np.cumsum(updates, out=entry_bounds[1:])

    kk = min(k, n_objects)
    gate_passes = np.empty(n_queries, dtype=np.float64)
    hot_bounds = np.zeros(n_queries + 1, dtype=np.int64)
    hot_tiles = [np.empty(0, dtype=np.int32)]  # so an empty batch still concatenates
    results: list[TopKResult] | None = [None] * n_queries if select else None  # type: ignore[list-item]

    span_base = span_query * n_objects
    rows_per_tile = max(1, int(max_fused_cells) // max(n_objects, 1))
    # GEN-SPQ keeps every row; the c-PQ path recounts into one tile buffer.
    counts = None if select else np.empty((n_queries, n_objects), dtype=np.int64)
    buffer = np.empty((min(rows_per_tile, n_queries), n_objects), dtype=np.int64) if select else None
    for lo in range(0, n_queries, rows_per_tile):
        hi = min(lo + rows_per_tile, n_queries)
        tile = buffer[: hi - lo] if select else counts[lo:hi]
        # One sparse extraction of the positive counts serves everything
        # downstream: AuditThresholds, nonzero totals, Gate-pass sums,
        # Hash-Table histograms for the launch cost, and top-k candidates.
        hot_q, hot_ids, hot_vals = _count_tile(
            tile, stream, entry_bounds, span_base, span_query, span_lengths, lo, hi, n_objects
        )
        nonzero_tile = np.diff(np.searchsorted(hot_q, np.arange(hi - lo + 1)))
        hot_bounds[lo + 1 : hi + 1] = nonzero_tile
        hot_tiles.append(hot_vals.astype(np.int32))  # kept for the launch: the device's counter width

        # AuditThreshold: the k-th largest count per row (Theorem 3.1),
        # via a per-row histogram of the (small, bounded) positive counts.
        at_tile = _kth_largest(hot_q, hot_vals, nonzero_tile, tile, kk) + 1

        lo_level = np.maximum(at_tile - 1, 1)
        passing = hot_vals >= lo_level[hot_q]
        passes_high = np.bincount(
            hot_q[passing],
            weights=(hot_vals[passing] - lo_level[hot_q[passing]] + 1).astype(np.float64),
            minlength=hi - lo,
        )
        passes_low = np.minimum(nonzero_tile, k) * np.maximum(at_tile - 1, 0)
        gate_passes[lo:hi] = passes_high + passes_low

        if select:
            thresholds = at_tile - 1
            cand = hot_vals >= np.maximum(thresholds, 1)[hot_q]
            cand_q, cand_ids, cand_vals = hot_q[cand], hot_ids[cand], hot_vals[cand]
            cand_bounds = np.searchsorted(cand_q, np.arange(hi - lo + 1))
            for ti in range(hi - lo):
                a, b = cand_bounds[ti], cand_bounds[ti + 1]
                results[lo + ti] = _select_row(  # type: ignore[index]
                    cand_ids[a:b], cand_vals[a:b], int(thresholds[ti]), kk
                )

    np.cumsum(hot_bounds, out=hot_bounds)
    return BatchScanPlan(
        n_queries=n_queries,
        block_sizes=block_sizes,
        updates=updates,
        gate_passes=gate_passes,
        hot_counts=np.concatenate(hot_tiles),
        hot_bounds=hot_bounds,
        results=results,
        counts=counts,
    )


def _count_tile(
    tile: np.ndarray,
    stream: np.ndarray,
    entry_bounds: np.ndarray,
    span_base: np.ndarray,
    span_query: np.ndarray,
    span_lengths: np.ndarray,
    lo: int,
    hi: int,
    n_objects: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill ``tile`` with rows ``lo:hi`` of the count matrix.

    Returns:
        ``(hot_q, hot_ids, hot_vals)``: the tile's positive counts in
        (row, ascending-id) order — the sparse view every downstream
        statistic is computed from.

    Three fused-key strategies, picked by the tile's stream density:

    * sparse (stream much smaller than the tile): ``np.unique`` of the
      fused keys yields the positive cells directly; the dense tile is a
      zero-fill plus a scatter, and no dense pass ever reads it back,
    * fused ``bincount`` over the fused keys (the default),
    * one plain ``bincount`` per row when the stream is so dense that
      building fused keys would cost more than the per-row calls.
    """
    a, b = int(entry_bounds[lo]), int(entry_bounds[hi])
    if a == b:
        tile[:] = 0
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if b - a > tile.size:
        for ti in range(hi - lo):
            tile[ti] = np.bincount(
                stream[entry_bounds[lo + ti] : entry_bounds[lo + ti + 1]], minlength=n_objects
            )
        hot_q, hot_ids = np.nonzero(tile > 0)
        return hot_q, hot_ids, tile[hot_q, hot_ids]

    sa, sb = np.searchsorted(span_query, [lo, hi])
    fused_dtype = np.int32 if (hi - lo) * n_objects < 2**31 else np.int64
    tile_base = (span_base[sa:sb] - lo * n_objects).astype(fused_dtype)
    fused = stream[a:b].astype(fused_dtype, copy=False) + np.repeat(tile_base, span_lengths[sa:sb])
    if (b - a) * 4 <= tile.size:
        keys, hot_vals = np.unique(fused, return_counts=True)
        keys = keys.astype(np.int64, copy=False)
        tile[:] = 0
        tile.reshape(-1)[keys] = hot_vals
        return keys // n_objects, keys % n_objects, hot_vals
    tile[:] = np.bincount(fused, minlength=tile.size).reshape(tile.shape)
    hot_q, hot_ids = np.nonzero(tile > 0)
    return hot_q, hot_ids, tile[hot_q, hot_ids]


#: Count bound above which the histogram k-th-largest falls back to a
#: dense row partition (counts are normally tiny: at most the query size).
_HIST_KTH_MAX_BOUND = 4096


def _kth_largest(
    hot_q: np.ndarray,
    hot_vals: np.ndarray,
    nonzero_tile: np.ndarray,
    tile: np.ndarray,
    kk: int,
) -> np.ndarray:
    """Per-row k-th largest count of a tile (0 when fewer than ``kk`` hot).

    Match counts are bounded by the query size, so a per-row histogram of
    the positive counts answers the selection with tiny arrays instead of
    partitioning dense rows.
    """
    n_rows = tile.shape[0]
    bound = int(hot_vals.max()) if hot_vals.size else 0
    if bound == 0:
        return np.zeros(n_rows, dtype=np.int64)
    if bound > _HIST_KTH_MAX_BOUND:
        n = tile.shape[1]
        return np.partition(tile, n - kk, axis=1)[:, n - kk]
    hist = np.bincount(
        hot_q * (bound + 1) + hot_vals, minlength=n_rows * (bound + 1)
    ).reshape(n_rows, bound + 1)
    # ge[r, c-1]: does row r have at least kk objects with count >= c?
    ge = np.cumsum(hist[:, ::-1], axis=1)[:, ::-1][:, 1:] >= kk
    kth = np.where(ge.any(axis=1), bound - np.argmax(ge[:, ::-1], axis=1), 0)
    # Rows whose positives cannot reach kk still select 0 via the zeros.
    return np.where(nonzero_tile >= kk, kth, 0)


def _select_row(
    cand_ids: np.ndarray, cand_counts: np.ndarray, threshold: int, take: int
) -> TopKResult:
    """Assemble one row's top-k from its threshold-filtered candidates.

    ``cand_ids`` holds (in ascending id order) every object with a count
    ``>= max(threshold, 1)``; exactly the candidate set
    :func:`repro.core.reference.topk_from_counts` draws from, since
    zero-count objects never surface and sub-threshold objects never win.
    """
    sure = cand_counts > threshold
    top_ids = cand_ids[sure]
    top_counts = cand_counts[sure]
    if threshold >= 1 and top_ids.size < take:
        ties = np.nonzero(cand_counts == threshold)[0][: take - top_ids.size]
        top_ids = np.concatenate([top_ids, cand_ids[ties]])
        top_counts = np.concatenate([top_counts, cand_counts[ties]])
    order = np.lexsort((top_ids, -top_counts))
    return TopKResult(ids=top_ids[order], counts=top_counts[order], threshold=threshold)
