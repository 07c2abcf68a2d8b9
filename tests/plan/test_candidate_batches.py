"""The vectorized candidate steps against the per-(source, query) loops they replaced.

``merge_shard_results``, ``_strike_tombstones``, ``_tput_topup_routes`` and
``IndexHandle._scatter`` used to walk a ``list[list[TopKResult | None]]`` in
python; they now work on one :class:`~repro.core.types.TopKBatch` per source.
The old loops are kept here, verbatim, as the reference: answers must be
array-equal and every simulated charge equal under ``==`` (the charges
accumulate per query in the order the loops did).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import IndexHandle
from repro.cluster import merge_shard_results
from repro.core.types import ID_DTYPE, TopKBatch, TopKResult
from repro.gpu.host import HostCpu
from repro.plan.executor import _strike_tombstones, _tput_topup_routes
from repro.stream import SegmentManifest

# ----------------------------------------------------------------------
# the reference: the parent's loops


def reference_merge(per_shard, n_queries, k, host, n_objects=None):
    kk = min(k, int(n_objects)) if n_objects is not None else k
    fan_in = max(1.0, np.log2(max(len(per_shard), 2)))
    results = []
    merge_ops = 0.0
    for qi in range(n_queries):
        found = [r for source in per_shard if (r := source[qi]) is not None and r.ids.size]
        ids = np.concatenate([r.ids for r in found]) if found else np.empty(0, dtype=ID_DTYPE)
        counts = np.concatenate([r.counts for r in found]) if found else np.empty(0, dtype=ID_DTYPE)
        order = np.lexsort((ids, -counts))[:k]
        top_counts = counts[order]
        threshold = int(top_counts[kk - 1]) if 0 < kk <= top_counts.size else 0
        results.append(TopKResult(ids=ids[order], counts=top_counts, threshold=threshold))
        merge_ops += ids.size * fan_in
    return results, host.charge_ops(merge_ops, stage="result_merge")


def reference_strike(base_candidates, tombstones, host):
    if tombstones.size == 0:
        return 0.0
    filter_ops = 0.0
    for results in base_candidates:
        for qi, result in enumerate(results):
            if result is None or result.ids.size == 0:
                continue
            filter_ops += result.ids.size * np.log2(max(tombstones.size, 2))
            pos = np.searchsorted(tombstones, result.ids)
            dead = tombstones[np.minimum(pos, tombstones.size - 1)] == result.ids
            if dead.any():
                results[qi] = TopKResult(ids=result.ids[~dead], counts=result.counts[~dead])
    return host.charge_ops(filter_ops, stage="tombstone_filter") if filter_ops else 0.0


def tombstoned(dead, n_objects=31):
    """A manifest over ``n_objects`` base ids with ``dead`` tombstoned: what the strike gathers from."""
    manifest = SegmentManifest(n_objects)
    manifest.add_tombstones(np.asarray(dead, dtype=ID_DTYPE))
    return manifest


def reference_topup_routes(candidates, n_queries, retrieval_k, first_round_k, host):
    topup = [[] for _ in candidates]
    fetched = 0
    for qi in range(n_queries):
        counts_parts = [
            r.counts for shard_results in candidates if (r := shard_results[qi]) is not None and r.counts.size
        ]
        pool = np.concatenate(counts_parts) if counts_parts else np.empty(0, dtype=ID_DTYPE)
        fetched += int(pool.size)
        if pool.size >= retrieval_k:
            cutoff = int(np.partition(pool, pool.size - retrieval_k)[pool.size - retrieval_k])
        else:
            cutoff = 0
        for shard, shard_results in enumerate(candidates):
            result = shard_results[qi]
            if result is None or result.ids.size < first_round_k:
                continue
            if int(result.counts[-1]) >= cutoff:
                topup[shard].append(qi)
    ops = fetched * max(1.0, np.log2(max(len(candidates), 2)))
    seconds = host.charge_ops(ops, stage="result_merge")
    return [np.asarray(positions, dtype=np.int64) for positions in topup], seconds


def reference_scatter(merged, active, total):
    if len(active) == total:
        return merged
    results = [
        TopKResult(ids=np.empty(0, dtype=ID_DTYPE), counts=np.empty(0, dtype=ID_DTYPE)) for _ in range(total)
    ]
    for i, result in zip(active, merged):
        results[i] = result
    return results


# ----------------------------------------------------------------------
# inputs: sources partition the objects; cells are unrouted (None), empty or ranked


@st.composite
def source_candidates(draw):
    """``(cells, n_queries)``: ``cells[source][query]`` a ``TopKResult`` or ``None``."""
    n_sources = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 5))
    n_objects = draw(st.integers(1, 24))
    owner = draw(st.lists(st.integers(0, n_sources - 1), min_size=n_objects, max_size=n_objects))
    cells = [[None] * n_queries for _ in range(n_sources)]
    for qi in range(n_queries):
        # Few distinct counts: ties across sources are the rule, not the exception.
        counts = draw(st.lists(st.integers(0, 3), min_size=n_objects, max_size=n_objects))
        width = draw(st.integers(1, 6))  # a source's own top-``width``
        for s in range(n_sources):
            if draw(st.integers(0, 5)) == 0:
                continue  # unrouted
            mine = [(obj, counts[obj]) for obj in range(n_objects) if owner[obj] == s and counts[obj] > 0]
            mine.sort(key=lambda pair: (-pair[1], pair[0]))
            mine = mine[:width]
            cells[s][qi] = TopKResult(ids=[obj for obj, _ in mine], counts=[count for _, count in mine])
    return cells, n_queries, n_objects


def as_batches(cells):
    empty = TopKResult(ids=[], counts=[])
    return [TopKBatch.from_results([empty if cell is None else cell for cell in source]) for source in cells]


def same_answers(batch, results):
    assert len(batch) == len(results)
    for got, want in zip(batch, results):
        assert np.array_equal(got.ids, want.ids) and np.array_equal(got.counts, want.counts)
        assert got.ids.dtype == got.counts.dtype == np.int64
        assert got.threshold == want.threshold


@settings(max_examples=200, deadline=None)
@given(source_candidates(), st.integers(1, 40), st.booleans())
def test_merge_equals_the_per_query_loop(drawn, k, capped):
    cells, n_queries, n_objects = drawn
    n_objects = n_objects if capped else None  # k > n_objects caps the threshold rank
    slow_host, fast_host = HostCpu(), HostCpu()
    want, want_seconds = reference_merge(cells, n_queries, k, slow_host, n_objects=n_objects)
    got, got_seconds = merge_shard_results(as_batches(cells), n_queries, k, fast_host, n_objects=n_objects)
    same_answers(got, want)
    assert got_seconds == want_seconds
    assert fast_host.timings.seconds == slow_host.timings.seconds


@settings(max_examples=200, deadline=None)
@given(source_candidates(), st.sets(st.integers(0, 30), max_size=31))
def test_strike_equals_the_per_cell_loop(drawn, dead):
    cells, _, _ = drawn
    tombstones = np.asarray(sorted(dead), dtype=ID_DTYPE)
    slow_host, fast_host = HostCpu(), HostCpu()
    batches = as_batches(cells)
    want_seconds = reference_strike(cells, tombstones, slow_host)  # edits ``cells`` in place
    struck, got_seconds = _strike_tombstones(batches, tombstoned(tombstones), fast_host)
    for batch, source in zip(struck, cells):
        for got, want in zip(batch, source):
            want = TopKResult(ids=[], counts=[]) if want is None else want
            assert np.array_equal(got.ids, want.ids) and np.array_equal(got.counts, want.counts)
    assert got_seconds == want_seconds
    assert fast_host.timings.seconds == slow_host.timings.seconds


def test_strike_of_every_candidate_leaves_empty_segments():
    batches = as_batches([[TopKResult(ids=[4, 2], counts=[3, 3]), None], [TopKResult(ids=[9], counts=[1])] * 2])
    struck, seconds = _strike_tombstones(batches, tombstoned([2, 4, 9]), HostCpu())
    assert [batch.sizes.tolist() for batch in struck] == [[0, 0], [0, 0]] and seconds > 0.0
    untouched, seconds = _strike_tombstones(batches, tombstoned([]), HostCpu())
    assert untouched is batches and seconds == 0.0


@settings(max_examples=200, deadline=None)
@given(source_candidates(), st.integers(1, 12), st.integers(1, 6))
def test_topup_routes_equal_the_per_query_loop(drawn, retrieval_k, first_round_k):
    cells, n_queries, _ = drawn
    slow_host, fast_host = HostCpu(), HostCpu()
    want, want_seconds = reference_topup_routes(cells, n_queries, retrieval_k, first_round_k, slow_host)
    got, got_seconds = _tput_topup_routes(as_batches(cells), n_queries, retrieval_k, first_round_k, fast_host)
    assert [route.tolist() for route in got] == [route.tolist() for route in want]
    assert all(route.dtype == np.int64 for route in got)
    assert got_seconds == want_seconds
    assert fast_host.timings.seconds == slow_host.timings.seconds


def test_zero_candidates_and_one_source():
    nothing = [[None, TopKResult(ids=[], counts=[])]]
    merged, seconds = merge_shard_results(as_batches(nothing), 2, 3, HostCpu())
    assert merged.sizes.tolist() == [0, 0] and merged.thresholds.tolist() == [0, 0] and seconds == 0.0
    routes, _ = _tput_topup_routes(as_batches(nothing), 2, 3, 1, HostCpu())
    assert [route.tolist() for route in routes] == [[]]
    one = [[TopKResult(ids=[5, 1], counts=[2, 2])]]
    merged, _ = merge_shard_results(as_batches(one), 1, 1, HostCpu(), n_objects=9)
    assert (merged[0].ids.tolist(), merged[0].counts.tolist(), merged[0].threshold) == ([1], [2], 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_scatter_equals_the_per_query_loop(is_active, rnd):
    active = [i for i, flag in enumerate(is_active) if flag]
    merged = [
        TopKResult(ids=[rnd.randint(0, 9)] * (i % 3), counts=[i + 1] * (i % 3), threshold=i) for i in range(len(active))
    ]
    want = reference_scatter(merged, active, len(is_active))
    same_answers(IndexHandle._scatter(TopKBatch.from_results(merged), active, len(is_active)), want)


def test_ids_too_wide_to_fuse_take_the_lexsort_and_merge_the_same():
    """Ids near 2**62 leave no room for (query, count) beside them in one 63-bit key."""
    huge = 2**62
    cells = [
        [TopKResult(ids=[huge + 4, 9], counts=[3, 2]), TopKResult(ids=[huge + 1], counts=[1])],
        [TopKResult(ids=[huge + 2, huge + 7], counts=[3, 3]), None],
    ]
    want, want_seconds = reference_merge(cells, 2, 3, HostCpu())
    got, got_seconds = merge_shard_results(as_batches(cells), 2, 3, HostCpu())
    same_answers(got, want)
    assert got[0].ids.tolist() == [huge + 2, huge + 4, huge + 7] and got_seconds == want_seconds
