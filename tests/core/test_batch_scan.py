"""Tests for the vectorized batch match pipeline.

The batch scanner must be *value-identical* to the per-query specification
in :mod:`repro.core.reference` (``plan_batch`` assembles the same struct one
query at a time), and equivalent to the exact Algorithm-1 reference up to the
reference's own tie identity at the k-th count (Theorem 3.1 pins counts and
threshold, not which tied id the Robin Hood table happens to retain).
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.gen_spq import make_gen_spq
from repro.core import batch_scan
from repro.core.batch_scan import plan_batch_scan
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.inverted_index import InvertedIndex, ragged_slices
from repro.core.load_balance import LoadBalanceConfig, split_span
from repro.core.match_count import match_counts_all
from repro.core import reference
from repro.core.scan_kernel import build_match_launch
from repro.core.types import Corpus, Query, QueryBatch, csr_offsets
from repro.gpu.device import Device
from repro.gpu.specs import TITAN_X

# ----------------------------------------------------------------------
# hypothesis strategies

corpora = st.lists(st.lists(st.integers(0, 15), max_size=6), min_size=1, max_size=25)
query_batches = st.lists(
    st.lists(  # one query = a list of items
        st.lists(st.integers(0, 25), max_size=4),  # items may be empty or miss the index
        max_size=4,  # queries may have no items at all
    ),
    min_size=1,
    max_size=6,
)
LB_CONFIGS = [None, LoadBalanceConfig(max_sublist_len=3), LoadBalanceConfig(max_sublist_len=5, max_lists_per_block=3)]
lb_configs = st.sampled_from(LB_CONFIGS)

# Keyword L sits in objects 0..L-1, so a query's postings stream is the sum of
# its keywords. Four queries around a hole make 5 rows x 16 objects = 80 cells:
# a tile is sparse up to a stream of 20 entries (stream * 4 == cells), and a
# dense batch is long-list when its references average a quarter of the
# objects (4 entries a span). Each case's regime without load balancing:
REGIME_QUERIES = {
    "sparse": ([[1]], [[2]], [[1]], [[1, 2]]),  # 7 entries
    "boundary": ([[16]], [[1]], [[2]], [[1]]),  # 20: the last sparse stream
    "one_past": ([[3], [3]], [[3], [3]], [[3], [3]], [[3]]),  # 21 over 7 spans: the first dense stream
    "short_lists": ([[3], [3, 2]], [[3, 3]], [[4], [3]], [[4, 3, 3, 2, 1]]),  # 40 over 14 spans
    "quarter": ([[4], [4]], [[4], [4]], [[4]], [[4]]),  # 24 over 6 spans: the first long-list batch
    "long_lists": ([[16], [16, 4]], [[16, 3]], [[16], [16]], [[16, 4, 3, 2, 1]]),  # 113 over 12 spans
}
REGIME_WITHOUT_LB = {
    "sparse": "sparse", "boundary": "sparse", "one_past": "short", "short_lists": "short",
    "quarter": "long", "long_lists": "long",
}
REGIME_CORPUS = Corpus([[kw for kw in (1, 2, 3, 4, 16) if obj < kw] for obj in range(16)])
HOLES = {"empty_query": [], "all_miss_query": [[99], [98, 97]]}


def make_batch(raw_queries):
    return QueryBatch.from_queries([Query(items=items) for items in raw_queries])


def record_regimes(monkeypatch):
    """The counting regime of every tile ``plan_batch_scan`` sweeps from here on, in order."""
    taken = []
    regimes = (("sparse", "_positive_cells"), ("short", "_count_rows"), ("long", "_add_byte_rows"), ("bits", "_add_bitmaps"))
    for regime, name in regimes:
        def counted(*args, _regime=regime, _count=getattr(batch_scan, name)):
            taken.append(_regime)
            return _count(*args)
        monkeypatch.setattr(batch_scan, name, counted)
    return taken


def assert_scan_matches_reference(index, queries, k, scan):
    """``scan`` equals the specification's plan, field by field."""
    ref = reference.plan_batch(index, queries, k)
    assert scan.n_queries == ref.n_queries == len(queries)
    assert np.array_equal(scan.block_sizes, ref.block_sizes)
    assert np.array_equal(scan.updates, ref.updates)
    assert np.array_equal(scan.gate_passes, ref.gate_passes)
    assert np.array_equal(scan.count_hist, ref.count_hist)
    for query, got in zip(queries, scan.results):
        counts = reference.match_counts(index, query)
        expected = reference.topk_from_counts(counts, k)
        assert np.array_equal(got.ids, expected.ids)
        assert np.array_equal(got.counts, expected.counts)
        assert got.threshold == expected.threshold
        if counts.size:
            assert got.threshold + 1 == reference.audit_threshold_from_counts(counts, k)


# ----------------------------------------------------------------------
# CSR layout


class TestCsrLayout:
    def test_span_csr_matches_split_span(self):
        corpus = Corpus([[1, 2, 3], [1, 2], [1], [1], [1], [1], [1]])
        for max_len in (1, 2, 3, 4096):
            index = InvertedIndex.build(corpus, LoadBalanceConfig(max_sublist_len=max_len))
            offsets, starts, ends = index.kw_span_offsets, index.span_starts, index.span_ends
            lists = index.list_offsets
            cursor = 0
            for i in range(index.keyword_array.size):
                expected = split_span(int(lists[i]), int(lists[i + 1]), max_len)
                got = list(zip(starts[offsets[i] : offsets[i + 1]], ends[offsets[i] : offsets[i + 1]]))
                assert [(int(s), int(e)) for s, e in got] == expected
                cursor += len(expected)
            assert cursor == int(offsets[-1])

    def test_keyword_rows_dense_and_sparse_lookup(self):
        # Compact universe -> dense table; huge keywords -> binary search.
        for keywords in ([1, 2, 5], [1, 2, 10**9]):
            index = InvertedIndex.build(Corpus([keywords]))
            probe = np.asarray([0, 1, 2, 5, 10**9, 7])
            rows, found = index.keyword_rows(probe)
            for kw, row, ok in zip(probe, rows, found):
                if int(kw) in keywords:
                    assert ok
                    assert int(index.keyword_array[row]) == int(kw)
                else:
                    assert not ok

    def test_keyword_rows_empty_index(self):
        index = InvertedIndex.build(Corpus([[]]))
        rows, found = index.keyword_rows(np.asarray([0, 3]))
        assert not found.any()
        assert rows.size == 2

    def test_ragged_slices(self):
        out = ragged_slices(np.asarray([5, 0, 9]), np.asarray([2, 0, 3]))
        assert out.tolist() == [5, 6, 9, 10, 11]
        assert ragged_slices(np.asarray([]), np.asarray([])).size == 0

    def test_compat_dict_api_matches_csr(self):
        corpus = Corpus([[1, 7], [1], [1, 9]])
        index = InvertedIndex.build(corpus, load_balance=LoadBalanceConfig(max_sublist_len=2))
        for kw in (1, 7, 9, 1234):
            spans = index.spans_for_keyword(kw)
            rows, found = index.keyword_rows(np.asarray([kw]))
            if not found[0]:
                assert spans == []
                continue
            span_rows, _ = index.span_rows_for_keyword_rows(rows)
            assert spans == [
                (int(s), int(e))
                for s, e in zip(index.span_starts[span_rows], index.span_ends[span_rows])
            ]
            assert np.array_equal(index.gather(spans), index.gather_span_rows(span_rows))


# ----------------------------------------------------------------------
# batch plan == the per-query specification's plan


class TestPlanEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(corpora, query_batches, st.integers(1, 5), lb_configs)
    def test_plans_match_per_query_planner(self, raw_objects, raw_queries, k, lb):
        index = InvertedIndex.build(Corpus(raw_objects), load_balance=lb)
        queries = make_batch(raw_queries)
        assert_scan_matches_reference(index, queries, k, plan_batch_scan(index, queries, k))

    @settings(max_examples=25, deadline=None)
    @given(corpora, query_batches, st.integers(1, 4))
    def test_match_launch_statistics_identical(self, raw_objects, raw_queries, k):
        index = InvertedIndex.build(Corpus(raw_objects))
        queries = make_batch(raw_queries)
        scan = plan_batch_scan(index, queries, k)
        ref = reference.plan_batch(index, queries, k)
        a = build_match_launch(scan, TITAN_X, 256)
        b = build_match_launch(ref, TITAN_X, 256)
        assert np.array_equal(a.block_items, b.block_items)
        for field in (
            "bytes_read",
            "bytes_written",
            "uncoalesced_bytes",
            "atomic_ops",
            "atomic_conflicts",
            "divergent_warps",
        ):
            assert getattr(a, field) == getattr(b, field)

    @pytest.mark.parametrize("max_fused_cells", [1, 7, 64, 10**9])
    def test_tiling_is_invisible(self, max_fused_cells):
        rng = np.random.default_rng(3)
        index = InvertedIndex.build(
            Corpus([rng.integers(0, 30, size=8) for _ in range(50)])
        )
        queries = QueryBatch.from_queries(
            [Query.from_keywords(rng.integers(0, 40, size=6)) for _ in range(9)]
        )
        scan = plan_batch_scan(index, queries, 3, max_fused_cells=max_fused_cells)
        assert_scan_matches_reference(index, queries, 3, scan)

    @pytest.mark.parametrize("objects", [[], [[]], [[1, 2], [3]]])
    def test_nothing_to_scan(self, objects):
        # No objects, no keywords, or no keyword hit: one 0 block per query.
        index = InvertedIndex.build(Corpus(objects))
        queries = make_batch([[[7], [8, 9]], []])
        scan = plan_batch_scan(index, queries, 3)
        assert scan.block_sizes.tolist() == [0, 0]
        assert scan.count_hist.size == 0 and not scan.updates.any()
        assert_scan_matches_reference(index, queries, 3, scan)

    def test_dense_stream_uses_per_row_counting(self):
        # Everyone matches everything: stream >> matrix cells exercises the
        # per-row bincount branch.
        corpus = Corpus([[1, 2, 3]] * 10)
        index = InvertedIndex.build(corpus)
        queries = make_batch([[[1], [2], [3]]] * 4)
        scan = plan_batch_scan(index, queries, 2, max_fused_cells=20)
        assert scan.count_hist.tolist() == [0, 0, 0, 40]
        for qi in range(4):
            assert scan.results[qi].counts.tolist() == [3, 3]
            assert scan.results[qi].ids.tolist() == [0, 1]
        assert_scan_matches_reference(index, queries, 2, scan)

    @pytest.mark.parametrize("plane_floor", [None, 0], ids=["plane_floor", "no_plane_floor"])
    @pytest.mark.parametrize("lb", LB_CONFIGS, ids=["no_lb", "sublists_3", "sublists_5_by_3"])
    @pytest.mark.parametrize("max_fused_cells", [1, 7, 64, 10**9])
    @pytest.mark.parametrize("k", [1, 3], ids=["k1", "k3"])
    @pytest.mark.parametrize("hole", list(HOLES))
    @pytest.mark.parametrize("density", list(REGIME_QUERIES))
    def test_counting_regimes(self, monkeypatch, density, hole, k, max_fused_cells, lb, plane_floor):
        if plane_floor is not None:  # so 16-object tiles may count as bit planes
            monkeypatch.setattr(batch_scan, "MIN_PLANE_BYTES", plane_floor)
        index = InvertedIndex.build(REGIME_CORPUS, load_balance=lb)
        before, after = REGIME_QUERIES[density][:2], REGIME_QUERIES[density][2:]
        raw = [*before, HOLES[hole], *after]
        queries = make_batch(raw)
        taken = record_regimes(monkeypatch)
        scan = plan_batch_scan(index, queries, k, max_fused_cells=max_fused_cells)
        assert_scan_matches_reference(index, queries, k, scan)
        # The rule, from the specification's numbers: a tile is sparse up to a
        # quarter of its cells; dense tiles add byte rows when the batch's
        # keyword lists (not their sublists) average a quarter of the objects,
        # else count row by row — or as bit planes (one 8-byte word a row) when a plane
        # reaches MIN_PLANE_BYTES, a row ripples at most three words per entry
        # and the planes plus two scratch rows fit the tile's bytes.
        refs = [sum(len(set(item) & set(index.keywords)) for item in query) for query in raw]
        long_lists = int(scan.updates.sum()) * 4 >= sum(refs) * 16 and max(refs) <= 255
        rows_per_tile = max(1, max_fused_cells // 16)

        def regime(lo, hi):
            entries, plane, most = int(scan.updates[lo:hi].sum()), (hi - lo) * 8, max(refs[lo:hi])
            if entries * 4 <= (hi - lo) * 16:
                return "sparse"
            bits = plane >= batch_scan.MIN_PLANE_BYTES and (hi - lo) * most * most.bit_length() <= 3 * entries
            if not long_lists and bits and (most.bit_length() + 2) * plane <= max_fused_cells * 4:
                return "bits"
            return "long" if long_lists else "short"

        assert taken == [regime(lo, min(lo + rows_per_tile, 5)) for lo in range(0, 5, rows_per_tile)]
        if max_fused_cells == 10**9 and lb is None:  # one tile, so the batch's density is the tile's
            # Unfloored, "one_past" ripples 5 rows x 2 refs x 2 planes = 20 words
            # for 21 entries and "short_lists" 5 x 4 x 3 = 60 for 28.
            expected = REGIME_WITHOUT_LB[density]
            assert taken == ["bits" if expected == "short" and plane_floor == 0 else expected]

    @pytest.mark.parametrize("lb", LB_CONFIGS, ids=["no_lb", "sublists_3", "sublists_5_by_3"])
    @pytest.mark.parametrize("hole", list(HOLES))
    @pytest.mark.parametrize("density", list(REGIME_QUERIES))
    def test_gen_spq_answers_each_regime_case_like_the_scan(self, density, hole, lb):
        # The GEN-SPQ baseline counts with the specification into a Count
        # Table and selects by SPQ: on every regime's batch it returns the
        # scan's answers and launches the scan's match blocks.
        index = InvertedIndex.build(REGIME_CORPUS, load_balance=lb)
        before, after = REGIME_QUERIES[density][:2], REGIME_QUERIES[density][2:]
        queries = make_batch([*before, HOLES[hole], *after])
        scan = plan_batch_scan(index, queries, 3)
        engine = make_gen_spq(config=GenieConfig(k=3, load_balance=lb)).fit(REGIME_CORPUS)
        answers = engine.query(list(queries))
        assert [r.as_pairs() for r in answers] == [r.as_pairs() for r in scan.results]
        match, *selects = engine.device.kernel_log
        launch = build_match_launch(scan, engine.device.spec, engine.config.threads_per_block)
        assert match.name == "genie_match_counttable"
        assert (match.blocks, match.bytes_read) == (len(launch.block_items), launch.bytes_read)
        assert [stats.name for stats in selects] == ["spq_select"] * len(queries)

    @pytest.mark.parametrize("refs, regime", [(255, "long"), (256, "short")])
    def test_a_count_past_a_byte_falls_back(self, monkeypatch, refs, regime):
        # Every object holds keyword 1: a row of 256 references ends at 256.
        index = InvertedIndex.build(Corpus([[1, 2 + obj % 2] for obj in range(8)]))
        queries = make_batch([[[2]], [[1]] * refs, [], [[3], [1]]])
        taken = record_regimes(monkeypatch)
        scan = plan_batch_scan(index, queries, 3)
        assert taken == [regime] and scan.count_hist.size == refs + 1
        assert_scan_matches_reference(index, queries, 3, scan)

    def test_byte_rows_stay_within_their_budget(self, monkeypatch):
        # 86 functions x 3 buckets of a third of 2 048 objects: every list is
        # long, and the budget holds exactly 256 of the 258 as byte rows.
        n, functions = 2048, 86
        monkeypatch.setattr(batch_scan, "MAX_BYTE_ROW_BYTES", 256 * n)
        rng = np.random.default_rng(4)
        buckets = np.stack([rng.permutation(n) % 3 for _ in range(functions)], axis=1)
        index = InvertedIndex.build(Corpus(buckets + np.arange(functions) * 3))
        built, taken = record_byte_rows(monkeypatch), record_regimes(monkeypatch)
        for n_lists, within in ((256, True), (257, False)):
            queries = QueryBatch(np.arange(n_lists), None, np.minimum(np.arange(6) * 64, n_lists))
            scan = plan_batch_scan(index, queries, 2)
            assert_scan_matches_reference(index, queries, 2, scan)
            assert taken.pop() == ("long" if within else "short") and not taken
            if within:
                byte_rows, _ = built[-1]
                assert byte_rows.nbytes == batch_scan.MAX_BYTE_ROW_BYTES
            else:
                assert built[-1] is None

    @pytest.mark.parametrize("untouched", [1, 32_000], ids=["dense", "sparse"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_counts_far_above_the_object_count(self, k, untouched):
        # One item of 5 000 keywords against objects holding all, half and
        # none of them: the histogram is sized by the data, not the count.
        keywords = list(range(5000))
        index = InvertedIndex.build(Corpus([keywords, keywords[::2]] + [[5000]] * untouched))
        queries = make_batch([[keywords]])
        scan = plan_batch_scan(index, queries, k)
        assert scan.count_hist.size == 5001
        assert np.flatnonzero(scan.count_hist).tolist() == [2500, 5000]
        assert_scan_matches_reference(index, queries, k, scan)


def membership_rows(index, keyword_rows):
    """One 0/1 row per keyword row: its whole list, set one posting at a time."""
    rows = np.zeros((len(keyword_rows), index.n_objects), dtype=np.uint8)
    for i, row in enumerate(keyword_rows):
        rows[i, index.postings_for_keyword(int(index.keyword_array[row]))] = 1
    return rows


def record_byte_rows(monkeypatch):
    """What ``_shared_byte_rows`` returns to every scan from here on."""
    built = []
    shared_byte_rows = batch_scan._shared_byte_rows
    monkeypatch.setattr(batch_scan, "_shared_byte_rows", lambda *args: built.append(shared_byte_rows(*args)) or built[-1])
    return built


def tweets_case(n=4000, n_keywords=2136, seed=0):
    """A document-shaped index too sparse for bitmaps, and 64 rows naming its few heavy keywords."""
    rng = np.random.default_rng(seed)
    heavy = rng.random((n, 8)) < 0.5  # keywords 0-7, each on about half the objects
    index = InvertedIndex.build(Corpus([
        np.concatenate([np.flatnonzero(common), rng.choice(np.arange(8, n_keywords), size=4, replace=False)])
        for common in heavy
    ]))
    rows = [[[kw] for kw in rng.choice(8, size=6, replace=False)] + [[kw] for kw in rng.integers(8, n_keywords, size=2)] for _ in range(64)]
    return index, make_batch(rows)


class TestLongListRegime:
    """Dense tiles as sums of shared byte rows equal the specification's plan."""

    @pytest.mark.parametrize("lb", LB_CONFIGS, ids=["no_lb", "sublists_3", "sublists_5_by_3"])
    def test_byte_rows_are_the_unpacked_bitmaps(self, monkeypatch, lb):
        # 64 rows x 16 references over 2 000 objects, lists ~ n / 3 (split into
        # hundreds of spans under load balancing): one byte row per distinct
        # keyword row, its whole list, and the postings are never gathered.
        rng = np.random.default_rng(5)
        index = InvertedIndex.build(Corpus(rng.integers(0, 3, size=(2000, 16)) + np.arange(16) * 3), load_balance=lb)
        queries = QueryBatch((rng.integers(0, 3, size=(64, 16)) + np.arange(16) * 3).reshape(-1), None, np.arange(65) * 16)
        assert index.keyword_bitmaps is not None
        built, taken = record_byte_rows(monkeypatch), record_regimes(monkeypatch)
        monkeypatch.setattr(InvertedIndex, "list_array32", property(lambda self: pytest.fail("gathered the postings")))
        scan = plan_batch_scan(index, queries, 10)
        assert taken == ["long"]
        byte_rows, ref_row = built[-1]
        rows, _ = index.keyword_rows(queries.keywords)
        assert len(byte_rows) == np.unique(rows).size
        assert np.array_equal(byte_rows[ref_row], membership_rows(index, rows))
        monkeypatch.undo()
        assert_scan_matches_reference(index, queries, 10, scan)

    def test_an_index_without_bitmaps_scatters_its_lists(self, monkeypatch):
        # 2 136 keywords over 4 000 objects, eight of them on half the objects:
        # bitmaps would outweigh the postings, yet the rows name heavy lists.
        index, queries = tweets_case()
        assert index.keyword_bitmaps is None
        built, taken = record_byte_rows(monkeypatch), record_regimes(monkeypatch)
        scan = plan_batch_scan(index, queries, 10)
        assert taken == ["long"]
        byte_rows, ref_row = built[-1]
        rows, found = index.keyword_rows(queries.keywords)
        assert np.array_equal(byte_rows[ref_row], membership_rows(index, rows[found]))
        assert_scan_matches_reference(index, queries, 10, scan)

    @pytest.mark.parametrize("lb", LB_CONFIGS, ids=["no_lb", "sublists_3", "sublists_5_by_3"])
    @pytest.mark.parametrize("max_fused_cells", [1, 7, 64, 10**9])
    def test_heavy_buckets_match_the_specification(self, monkeypatch, max_fused_cells, lb):
        taken = record_regimes(monkeypatch)
        long_tiles = split_batches = 0
        for seed in range(25):
            rng = np.random.default_rng([seed, max_fused_cells])
            # A span is at most a sublist long, and long lists average a quarter of the objects.
            n = int(rng.integers(4, lb.max_sublist_len * 3 if lb else 60))
            functions = int(rng.integers(2, 6))
            # Per function, bucket 0 holds at least half the objects; keyword = 4 * function + bucket.
            heavy = np.stack([rng.permutation(n) < rng.integers(-(-n // 2), n + 1) for _ in range(functions)], axis=1)
            buckets = np.where(heavy, 0, rng.integers(1, 4, size=(n, functions)))
            index = InvertedIndex.build(Corpus(buckets + np.arange(functions) * 4), load_balance=lb)

            def row():
                items = [
                    (4 * rng.integers(0, functions, size=size) + (rng.random(size) < 0.2) * rng.integers(1, 4, size=size)).tolist()
                    for size in rng.integers(1, 3, size=rng.integers(1, 7))
                ]
                return items + items[:1] * int(rng.integers(0, 3))  # the same spans again through another item

            raw = [row(), [], row(), [[99], []]] + [row() if rng.random() < 0.7 else [] for _ in range(rng.integers(0, 6))]
            queries = make_batch(raw)
            k = int(rng.choice([1, 3, n + 5]))
            for operand in ("bitmaps", "lists"):
                if operand == "lists":  # byte rows scattered from the postings, as without bitmaps
                    index.__dict__["keyword_bitmaps"] = None
                taken.clear()
                scan = plan_batch_scan(index, queries, k, max_fused_cells=max_fused_cells)
                assert_scan_matches_reference(index, queries, k, scan)
                assert "short" not in taken or "long" not in taken  # one dense regime per batch
                long_tiles += taken.count("long")
            rows, found = index.keyword_rows(queries.keywords)
            split_batches += "long" in taken and bool((index.span_rows_for_keyword_rows(rows[found])[1] > 1).any())
        assert long_tiles >= 2 * 13
        assert split_batches >= (15 if lb else 0)  # byte rows of whole lists that the spans split


def record_planes(monkeypatch):
    """The bit planes of every tile ``plan_batch_scan`` counts as planes from here on."""
    planes = []
    add_bitmaps = batch_scan._add_bitmaps
    monkeypatch.setattr(batch_scan, "_add_bitmaps", lambda *args: planes.append(add_bitmaps(*args)) or planes[-1])
    return planes


def lsh_case(n, functions, buckets, rows, seed=0):
    """An E2LSH-shaped index and batch: one keyword per hash function, uniform buckets."""
    rng = np.random.default_rng(seed)
    first = np.arange(functions) * buckets
    index = InvertedIndex.build(Corpus(rng.integers(0, buckets, size=(n, functions)) + first))
    keywords = rng.integers(0, buckets, size=(rows, functions)) + first
    return index, QueryBatch(keywords.reshape(-1), None, np.arange(rows + 1) * functions)


class TestBitSlicedRegime:
    """Dense c-PQ tiles as bit planes of per-keyword bitmaps equal the specification's plan."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 150),
        st.lists(st.sampled_from([0, 1, 2, 3, 5, 63, 64, 65, 128]), min_size=1, max_size=5),
        st.integers(1, 160),
        lb_configs,
        st.sampled_from([1, 300, 10**9]),
        st.integers(0, 2**16),
    )
    def test_matches_the_specification(self, n, refs, k, lb, max_fused_cells, seed):
        # Six keywords, each on about a third of the objects; a row names its
        # keywords with repeats, one item each, so 64 references hit every
        # keyword in several items. k may pass n; n need not be a multiple of 64.
        rng = np.random.default_rng(seed)
        index = InvertedIndex.build(Corpus([np.flatnonzero(rng.random(6) < 0.35) for _ in range(n)]), load_balance=lb)
        assume(index.keyword_bitmaps is not None)
        keywords = np.concatenate([rng.choice(index.keyword_array, size=r) for r in refs])
        queries = QueryBatch(keywords, None, csr_offsets(refs))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(batch_scan, "_bit_planes_pay", lambda *args: True)
            patch.setattr(batch_scan, "_shared_byte_rows", lambda *args: None)
            taken = record_regimes(patch)
            scan = plan_batch_scan(index, queries, k, max_fused_cells=max_fused_cells)
        assert set(taken) <= {"sparse", "bits"}
        assert_scan_matches_reference(index, queries, k, scan)

    @pytest.mark.parametrize("refs, n_planes", [(63, 6), (64, 7), (65, 7)])
    def test_the_plane_count_follows_the_references(self, monkeypatch, refs, n_planes):
        # Keyword 0 on every fifth object, keyword 1 on every tenth (lists under
        # a quarter of the objects): rows 0 and 1 end at `refs` on their
        # keyword's objects, row 2 is empty.
        monkeypatch.setattr(batch_scan, "MIN_PLANE_BYTES", 0)
        index = InvertedIndex.build(Corpus([[kw for kw, step in ((0, 5), (1, 10)) if obj % step == 0] for obj in range(100)]))
        queries = QueryBatch([0] * refs + [1] * refs, None, [0, refs, 2 * refs, 2 * refs])
        planes = record_planes(monkeypatch)
        scan = plan_batch_scan(index, queries, 3)
        assert [len(p) for p in planes] == [n_planes]
        assert np.flatnonzero(scan.count_hist).tolist() == [refs]
        assert_scan_matches_reference(index, queries, 3, scan)

    def test_the_histogram_stops_at_the_largest_count(self, monkeypatch):
        # Keyword 0 on every fifth object, keyword 1 on the objects after them:
        # both rows make 64 references (7 planes), but no object is on both
        # lists, so the tile's largest count is 40 (6 planes, 41 slots a row).
        monkeypatch.setattr(batch_scan, "MIN_PLANE_BYTES", 0)
        index = InvertedIndex.build(Corpus([[kw for kw in (0, 1) if obj % 5 == kw] for obj in range(100)]))
        queries = QueryBatch([0] * 40 + [1] * 24 + [1] * 30 + [0] * 34, None, [0, 64, 128])
        planes, widths, compared = record_planes(monkeypatch), [], []
        row_statistics, planes_at_least = batch_scan._row_statistics, batch_scan._planes_at_least
        monkeypatch.setattr(batch_scan, "_row_statistics", lambda hist, w, kk: widths.append(w.tolist()) or row_statistics(hist, w, kk))
        monkeypatch.setattr(batch_scan, "_planes_at_least", lambda p, *args: compared.append(len(p)) or planes_at_least(p, *args))
        scan = plan_batch_scan(index, queries, 3)
        assert [len(p) for p in planes] == [7]
        assert widths == [[41, 41]]
        assert compared == [6]
        assert np.flatnonzero(scan.count_hist).tolist() == [24, 30, 34, 40]
        assert_scan_matches_reference(index, queries, 3, scan)

    # The rule, by input shape on both of its sides (the scan is what a
    # workload of that shape would send; no workload is named).

    def test_a_large_batch_of_long_e2lsh_lists_takes_bit_planes(self, monkeypatch):
        # 256 queries x 64 references over 8 000 objects, lists ~ n / 9: every
        # tile of 65 rows ripples 125 x 64 x 7 words a row for ~57 k entries.
        index, queries = lsh_case(8000, 64, 9, 256)
        taken = record_regimes(monkeypatch)
        scan = plan_batch_scan(index, queries, 10)
        assert taken == ["bits"] * 4
        assert_scan_matches_reference(index, queries, 10, scan)

    def test_short_lists_in_a_large_tile_count_row_by_row(self, monkeypatch):
        # 65 rows x 128 references over lists ~ n / 30: 125 x 128 x 8 ripple
        # words a row for ~34 k entries, 3.75 an entry.
        index, queries = lsh_case(8000, 128, 30, 65)
        assert index.keyword_bitmaps is not None
        taken = record_regimes(monkeypatch)
        plan_batch_scan(index, queries, 10)
        assert taken == ["short"]

    @pytest.mark.parametrize("rows", [1, 8, 32])
    @pytest.mark.parametrize("items", ["one_keyword", "ranges"])
    def test_small_batches_count_row_by_row(self, monkeypatch, rows, items):
        # Over 4 000 objects a plane of 32 rows is 16 KB, under MIN_PLANE_BYTES.
        if items == "one_keyword":  # 32 hash functions, lists ~ n / 18
            index, queries = lsh_case(4000, 32, 18, rows)
        else:  # 14 attributes of 10 values, each item a range of 3 to 5 of them
            rng = np.random.default_rng(1)
            first = np.arange(14) * 10
            index = InvertedIndex.build(Corpus(rng.integers(0, 10, size=(4000, 14)) + first))
            queries = QueryBatch.from_queries([
                Query(items=[np.arange(lo, lo + rng.integers(3, 6)) + base for lo, base in zip(rng.integers(0, 6, size=14), first)])
                for _ in range(rows)
            ])
        assert index.keyword_bitmaps is not None
        taken = record_regimes(monkeypatch)
        plan_batch_scan(index, queries, 10)
        assert taken == ["short"]

    def test_a_long_list_tile_keeps_its_byte_rows(self, monkeypatch):
        # 64 rows x 16 references over 2 000 objects, lists ~ n / 3.
        index, queries = lsh_case(2000, 16, 3, 64)
        taken = record_regimes(monkeypatch)
        plan_batch_scan(index, queries, 10)
        assert taken == ["long"]

    # Memory.

    def test_bit_planes_stay_within_the_tile_budget(self, monkeypatch):
        index, queries = lsh_case(8000, 64, 9, 256)
        planes = record_planes(monkeypatch)
        plan_batch_scan(index, queries, 10)
        assert len(planes) == 4
        for tile in planes:  # the planes plus a pass's two scratch rows
            assert (len(tile) + 2) * tile[0].nbytes <= batch_scan.DEFAULT_MAX_FUSED_CELLS * 4

    def test_a_scan_leaves_no_cycle_holding_its_planes(self):
        index, queries = lsh_case(8000, 64, 9, 70)
        plan_batch_scan(index, queries, 10)  # the index's lazy arrays, built outside
        gc.collect()
        gc.disable()
        try:
            plan_batch_scan(index, queries, 10)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestEveryConstructor:
    """Block layout depends on in-item keyword order under load balancing:
    every way of building a batch must scan like the ``Query`` list it equals."""

    RAW = [
        [[9, 1, 9, 4], [2]],          # unsorted, duplicated keywords in a ragged item
        [],                           # zero-item query
        [[], [15, 3, 0]],             # empty item
        [[7], [7], [1]],              # repeats across items
        [[30, 31]],                   # misses the index entirely
        [[5, 4, 3, 2, 1, 0]],
    ]

    @staticmethod
    def _flat(raw):
        items = [item for query in raw for item in query]
        return (
            [kw for item in items for kw in item],
            np.cumsum([0] + [len(item) for item in items]),
            np.cumsum([0] + [len(query) for query in raw]),
        )

    def _builders(self):
        raw = self.RAW
        singles = [[[kw] for item in query for kw in item] for query in raw]
        whole = make_batch(raw)
        order = [4, 0, 5, 2, 1, 3]
        return {
            "from_queries": (raw, lambda: make_batch(raw)),
            "flat_arrays": (raw, lambda: QueryBatch(*self._flat(raw))),
            "one_item_per_keyword": (
                singles,
                lambda: QueryBatch(self._flat(raw)[0], None, np.cumsum([0] + [len(q) for q in singles])),
            ),
            "concat": (raw, lambda: QueryBatch.concat([make_batch([query]) for query in raw])),
            "take_range": (raw[1:5], lambda: whole.take(np.arange(1, 5))),
            "take_permutation": ([raw[i] for i in order], lambda: whole.take(order)),
        }

    @pytest.mark.parametrize("lb", LB_CONFIGS, ids=["no_lb", "sublists_3", "sublists_5_by_3"])
    @pytest.mark.parametrize(
        "name",
        ["from_queries", "flat_arrays", "one_item_per_keyword", "concat", "take_range", "take_permutation"],
    )
    def test_scans_like_the_query_list(self, name, lb):
        rng = np.random.default_rng(2)
        index = InvertedIndex.build(
            Corpus([rng.integers(0, 16, size=5) for _ in range(40)]), load_balance=lb
        )
        raw, build = self._builders()[name]
        batch = build()
        queries = [Query(items=items) for items in raw]
        assert [[item.tolist() for item in q.items] for q in batch] == [
            [item.tolist() for item in q.items] for q in queries
        ]
        assert_scan_matches_reference(index, queries, 3, plan_batch_scan(index, batch, 3))


class TestPeakMemory:
    """The scan never holds an ``(n_queries, n_objects)`` array."""

    N_QUERIES, N_OBJECTS, K = 4096, 2000, 5

    def _workload(self):
        rng = np.random.default_rng(11)
        index = InvertedIndex.build(
            Corpus([rng.integers(0, 500, size=4) for _ in range(self.N_OBJECTS)])
        )
        keywords = rng.integers(0, 500, size=(self.N_QUERIES, 3))
        return index, QueryBatch(keywords.reshape(-1), None, np.arange(self.N_QUERIES + 1) * 3)

    def test_select_path_peaks_below_half_the_dense_matrix(self):
        index, queries = self._workload()
        index.list_array32  # the lazy 32-bit view belongs to the index, not the batch
        tracemalloc.start()
        try:
            scan = plan_batch_scan(index, queries, self.K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scan.results) == self.N_QUERIES
        assert peak < self.N_QUERIES * self.N_OBJECTS * 8 // 2

    def test_dense_regime_never_holds_the_batch_stream(self):
        # 256 queries x 32 hash functions over 8 buckets, 4 000 objects: every
        # span is ~500 entries long and the batch's postings stream (16.4 MB as
        # int32) is 4x the count matrix. Rows are gathered one at a time.
        rng = np.random.default_rng(5)
        first_bucket = np.arange(32) * 8
        index = InvertedIndex.build(
            Corpus(list(first_bucket + rng.integers(0, 8, size=(4000, 32))))
        )
        queries = QueryBatch.from_queries(
            [Query.from_keywords(row) for row in first_bucket + rng.integers(0, 8, size=(256, 32))]
        )
        index.list_array32
        tracemalloc.start()
        try:
            scan = plan_batch_scan(index, queries, self.K)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(scan.updates.sum()) * 4 > 16_000_000
        assert peak < int(scan.updates.sum()) * 4
        # A result a caller keeps (a cache, a future) pins nothing tile-wide: a
        # view holds the batch's own answer entries, never a tile's candidates.
        assert scan.results.ids.base is None and scan.results.counts.base is None
        assert scan.results.ids.size <= len(queries) * self.K
        assert all(r.ids.base is scan.results.ids for r in scan.results)


# ----------------------------------------------------------------------
# engine: vectorized batch path vs the Algorithm-1 reference


def _engine(raw_objects, k, lb):
    corpus = Corpus(raw_objects)
    return corpus, GenieEngine(config=GenieConfig(k=k, load_balance=lb)).fit(corpus)


class TestEngineEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(corpora, query_batches, st.integers(1, 5), lb_configs)
    def test_results_match_reference_cpq(self, raw_objects, raw_queries, k, lb):
        """The batch path reproduces the reference's counts and threshold.

        Ids above the threshold must agree exactly; at the threshold the
        reference's Robin Hood table may retain different tied ids, so ties
        are checked for validity (correct count) rather than identity.
        Thresholds are compared only when the corpus holds at least ``k``
        objects: below that the vectorized path reports ``MC_min(k, n)``
        while the reference Gate keeps the paper's ``MC_k = 0`` (both
        pre-date this pipeline and agree on the returned objects).
        """
        corpus, engine = _engine(raw_objects, k, lb)
        queries = make_batch(raw_queries)
        count_bound = max(1, int(queries.keywords_per_query.max()))
        results_fast = engine.query(queries)
        results_slow = [
            reference.reference_query(engine.index, q, k, count_bound) for q in queries
        ]
        for query, a, b in zip(queries, results_fast, results_slow):
            assert sorted(a.counts.tolist(), reverse=True) == sorted(
                b.counts.tolist(), reverse=True
            )
            if len(corpus) >= k:
                assert a.threshold == b.threshold
                sure_a = a.ids[a.counts > a.threshold]
                sure_b = b.ids[b.counts > b.threshold]
                assert np.array_equal(sure_a, sure_b)
            # Every reported entry (ties included) carries its true count.
            true_counts = match_counts_all(query, corpus)
            for result in (a, b):
                for obj, count in result.as_pairs():
                    assert int(true_counts[obj]) == count

    @settings(max_examples=20, deadline=None)
    @given(corpora, query_batches, st.integers(1, 4))
    def test_match_kernel_cost_identical_to_reference_run(self, raw_objects, raw_queries, k):
        """The engine charges exactly the match kernel the specification lays out."""
        _, engine = _engine(raw_objects, k, None)
        queries = make_batch(raw_queries)
        engine.query(queries)
        stats_fast = [s for s in engine.device.kernel_log if s.name == "genie_match"]
        assert len(stats_fast) == 1

        ref_device = Device()
        ref_launch = build_match_launch(
            reference.plan_batch(engine.index, queries, k),
            ref_device.spec,
            engine.config.threads_per_block,
        )
        ref_device.launch(ref_launch, stage="match")
        a, b = stats_fast[0], ref_device.kernel_log[-1]
        for field in (
            "blocks",
            "ops",
            "bytes_read",
            "bytes_written",
            "uncoalesced_bytes",
            "atomic_ops",
            "atomic_conflicts",
            "divergent_warps",
            "elapsed_seconds",
        ):
            assert getattr(a, field) == getattr(b, field)
