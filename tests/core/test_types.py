"""Tests for the core data model (Corpus, Query, QueryBatch, TopKBatch, TopKResult)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.cluster.plan import ShardPlan
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch, TopKResult, as_keyword_array
from repro.errors import QueryError
from repro.stream import StreamConfig

# One raw query = a list of items; items may be empty, unsorted and repeat keywords.
raw_queries = st.lists(
    st.lists(st.lists(st.integers(0, 40), max_size=5), max_size=4), min_size=0, max_size=7
)


# Raw objects: ragged, possibly empty, unsorted, with repeats; a few huge keywords.
raw_objects = st.lists(
    st.lists(st.one_of(st.integers(0, 40), st.sampled_from([2**40, 2**63 - 1])), max_size=6),
    max_size=9,
)


def per_object_unique(objects) -> list:
    """The parent's canonicalization, written out: one ``np.unique`` per object."""
    return [np.unique(as_keyword_array(obj)).tolist() for obj in objects]


def rows(corpus) -> list:
    return [row.tolist() for row in corpus.keyword_arrays]


def as_lists(queries) -> list:
    """``[[item keywords, ...], ...]`` of a batch or of a list of queries."""
    return [[item.tolist() for item in query.items] for query in queries]


class TestKeywordArray:
    def test_accepts_lists_and_arrays(self):
        assert as_keyword_array([1, 2, 3]).tolist() == [1, 2, 3]
        assert as_keyword_array(np.array([4, 5])).tolist() == [4, 5]

    def test_rejects_negative(self):
        with pytest.raises(QueryError):
            as_keyword_array([1, -2])

    def test_empty(self):
        assert as_keyword_array([]).size == 0

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -np.inf])
    def test_rejects_non_integral_floats(self, bad):
        # A cast would silently turn 1.5 into keyword 1 — another element.
        for raw in ([bad], np.array([2.0, bad])):
            with pytest.raises(QueryError, match="must be integers"):
                as_keyword_array(raw)
        with pytest.raises(QueryError):
            Corpus([[1, 2], [bad]])
        with pytest.raises(QueryError):
            Query(items=[[bad]])
        with pytest.raises(QueryError):
            Query.from_keywords([bad])

    def test_integer_valued_floats_and_int_dtypes_accepted(self):
        assert as_keyword_array([2.0]).tolist() == [2]
        assert as_keyword_array(np.array([2.0, 3.0], dtype=np.float32)).tolist() == [2, 3]
        assert as_keyword_array(np.array([4, 5], dtype=np.uint8)).dtype == np.int64
        assert Corpus([[2.0]])[0].tolist() == Corpus([[2]])[0].tolist()
        assert Query(items=[[2.0]]).items[0].tolist() == [2]

    def test_int64_input_is_not_copied(self):
        arr = np.array([3, 1, 2], dtype=np.int64)
        assert np.shares_memory(as_keyword_array(arr), arr)

    @pytest.mark.parametrize(
        "bad, named",
        [("12", "'1'"), (["12"], "'12'"), ([b"7"], "b'7'"), ([1 + 2j], "(1+2j)"), ([None], "None"),
         (np.asarray(["2020-01-01"], dtype="datetime64[D]"), "2020")],
        ids=["string", "list_of_strings", "bytes", "complex", "none", "dates"],
    )
    def test_rejects_what_numpy_would_cast(self, bad, named):
        # ``"12"`` used to be iterated into the keywords 1 and 2.
        for build in (lambda: as_keyword_array(bad), lambda: Corpus([bad]), lambda: Query(items=[bad])):
            with pytest.raises(QueryError, match="must be integers") as error:
                build()
            assert named in str(error.value)

    @pytest.mark.parametrize("bad", [7, 7.0, None], ids=["int", "float", "none"])
    def test_rejects_non_iterable_objects(self, bad):
        for build in (lambda: as_keyword_array(bad), lambda: Corpus([[1], bad]), lambda: Query(items=[bad])):
            with pytest.raises(QueryError, match=f"iterable of integers; got {bad!r}"):
                build()
        with pytest.raises(QueryError, match="iterable of integers"):
            Corpus([[1, 2], [[3], [4, 5]]])  # ragged nesting inside one object

    def test_every_integer_like_input_still_passes(self):
        top = 2**63 - 1
        assert as_keyword_array([True, False]).tolist() == [1, 0]
        assert as_keyword_array([top]).tolist() == [top]
        assert as_keyword_array(np.asarray([top], dtype=np.uint64)).tolist() == [top]
        for dtype in (np.int8, np.int16, np.int32, np.uint16, np.uint32, np.float32, np.float64):
            assert as_keyword_array(np.asarray([3, 4], dtype=dtype)).tolist() == [3, 4]
        assert rows(Corpus([[5, 2.0], (4,), range(2), np.asarray([9], dtype=np.uint8)])) == [[2, 5], [4], [0, 1], [9]]


class TestCorpus:
    def test_dedupes_and_sorts_object_keywords(self):
        corpus = Corpus([[3, 1, 3, 2]])
        assert corpus[0].tolist() == [1, 2, 3]

    def test_max_keyword(self):
        corpus = Corpus([[1, 5], [2]])
        assert corpus.max_keyword == 5

    def test_empty_corpus(self):
        corpus = Corpus([])
        assert len(corpus) == 0
        assert corpus.max_keyword == -1
        assert corpus.total_entries == 0

    def test_empty_object_allowed(self):
        corpus = Corpus([[], [1]])
        assert corpus[0].size == 0

    def test_sizes_cached_at_construction(self):
        corpus = Corpus([[1, 2, 2, 3], [4], []])
        assert corpus.total_entries == 4  # dedup applies before counting
        assert corpus.max_object_size() == 3
        assert Corpus([]).max_object_size() == 0

    def test_total_entries_after_dedupe(self):
        corpus = Corpus([[1, 1, 2], [3]])
        assert corpus.total_entries == 3

    def test_iteration(self):
        corpus = Corpus([[1], [2]])
        assert [arr.tolist() for arr in corpus] == [[1], [2]]

    @settings(max_examples=120, deadline=None)
    @given(raw_objects)
    def test_equals_one_unique_per_object(self, objects):
        expected = per_object_unique(objects)
        for corpus in (Corpus(objects), Corpus([np.asarray(obj, dtype=np.int64) for obj in objects])):
            assert rows(corpus) == expected
            assert [corpus[i].tolist() for i in range(len(corpus))] == expected
            assert len(corpus) == len(objects)
            assert corpus.offsets.tolist() == np.cumsum([0] + [len(row) for row in expected]).tolist()
            assert corpus.keywords.dtype == np.int64 and corpus.keywords.size == corpus.total_entries
            assert corpus.max_keyword == max((kw for row in expected for kw in row), default=-1)
            assert corpus.max_object_size() == max((len(row) for row in expected), default=0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=3, max_size=3), max_size=6), st.booleans())
    def test_a_matrix_is_its_rows(self, matrix, ascending):
        matrix = np.asarray(matrix, dtype=np.int64).reshape(-1, 3)
        if ascending:  # the LSH / relational shape: every row already canonical
            matrix = matrix + np.arange(3) * 10
        assert rows(Corpus(matrix)) == per_object_unique(matrix)
        assert rows(Corpus(matrix)) == rows(Corpus(list(matrix)))
        assert len(Corpus(np.empty((0, 3), dtype=np.int64))) == 0
        assert rows(Corpus(np.empty((2, 0), dtype=np.int64))) == [[], []]

    def test_huge_keyword_domain_takes_the_lexsort_fallback(self, monkeypatch):
        top = 2**63 - 1
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        assert rows(Corpus([[5, 1, 5], [3, 2]])) == [[1, 5], [2, 3]] and not calls  # fused keys fit
        assert rows(Corpus([[top, 0, top], [4, top, 4, 1]])) == [[0, top], [1, 4, top]] and calls
        assert rows(Corpus([[top, 0, top]])) == [[0, top]] and len(calls) == 1  # one segment: 0 + 63 bits

    def test_mixed_dtypes_do_not_round_through_float64(self):
        big = 2**53 + 1  # float64 cannot hold it; numpy would promote int64 beside float64
        assert rows(Corpus([[big], [2.0, 1.0], []])) == [[big], [1, 2], []]
        with pytest.raises(QueryError, match="got 1.5"):
            Corpus([[big], [1.5]])

    @settings(max_examples=80, deadline=None)
    @given(raw_objects, st.randoms(use_true_random=False))
    def test_take_and_concat_laws(self, objects, rnd):
        corpus = Corpus(objects)
        order = list(range(len(corpus)))
        rnd.shuffle(order)
        cuts = sorted(rnd.randint(0, len(order)) for _ in range(2))
        partition = [order[: cuts[0]], order[cuts[0] : cuts[1]], order[cuts[1] :]]
        glued = Corpus.concat([corpus.take(part) for part in partition])
        assert rows(glued) == [rows(corpus)[i] for i in order]
        back = glued.take(np.argsort(order))  # undo the permutation
        assert np.array_equal(back.keywords, corpus.keywords)
        assert np.array_equal(back.offsets, corpus.offsets)
        repeated = corpus.take(order + order)  # ids may repeat
        assert rows(repeated) == [rows(corpus)[i] for i in order + order]

    def test_take_shares_a_range_and_copies_a_permutation(self):
        corpus = Corpus([[i, i + 1] for i in range(6)] + [[]])
        middle = corpus.take(np.arange(2, 5))
        assert rows(middle) == rows(corpus)[2:5] and middle.offsets[0] == 0
        assert np.shares_memory(middle.keywords, corpus.keywords)
        shuffled = corpus.take([4, 2, 3])
        assert rows(shuffled) == [rows(corpus)[i] for i in (4, 2, 3)]
        assert not np.shares_memory(shuffled.keywords, corpus.keywords)
        assert len(corpus.take([])) == 0 and corpus.take([]).total_entries == 0
        assert rows(corpus.take([6])) == [[]]
        assert len(Corpus.concat([])) == 0 and rows(Corpus.concat([corpus])) == rows(corpus)

    def test_caller_arrays_are_never_aliased_and_views_are_read_only(self):
        ascending = np.asarray([[1, 2], [3, 4]], dtype=np.int64)  # canonical already: nothing moves
        ragged = [np.asarray([1, 2], dtype=np.int64), np.asarray([3, 4], dtype=np.int64)]
        for raw, corpus in ((ascending, Corpus(ascending)), (ragged[0], Corpus(ragged)), (ragged[0], Corpus(ragged[:1]))):
            assert not np.shares_memory(corpus.keywords, raw)
            raw[0] = 99
            assert rows(corpus)[0] == [1, 2]
        corpus = Corpus(ascending[:, :1])
        for view in (corpus[0], corpus.keyword_arrays[1], next(iter(corpus)), corpus.take([0, 1])[1], corpus.keywords):
            assert np.shares_memory(view, corpus.keywords)
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 7
        assert corpus.keyword_arrays is corpus.keyword_arrays  # built once, on first use
        with pytest.raises(IndexError):
            corpus[2]
        assert corpus[-1].tolist() == rows(corpus)[-1]

    def test_distinct_keywords_are_sorted_and_unique(self):
        corpus = Corpus([[4, 1], [1, 1, 9], [], [4, 1]])
        assert corpus.distinct_keywords.tolist() == [1, 4, 9] and corpus.distinct_keywords.dtype == np.int64
        assert corpus.distinct_keywords is corpus.distinct_keywords  # computed once
        assert Corpus([[]]).distinct_keywords.size == 0

    def test_by_global_id_later_sources_win_and_unnamed_ids_stay_empty(self):
        base, delta = Corpus([[1], [2], [3]]), Corpus([[7, 8]])
        merged = Corpus.by_global_id(
            [(base, np.asarray([0, 1, 2])), (None, np.asarray([1, 2])), (delta, np.asarray([2]))], 5
        )
        assert rows(merged) == [[1], [], [7, 8], [], []]
        assert rows(Corpus.by_global_id([], 2)) == [[], []] and len(Corpus.by_global_id([], 0)) == 0

    @settings(max_examples=40, deadline=None)
    @given(raw_objects, st.sampled_from(["range", "hash"]), st.integers(1, 5), st.integers(0, 3))
    def test_shard_plan_reassembles_row_for_row(self, objects, strategy, n_shards, seed):
        corpus = Corpus(objects)
        plan = ShardPlan.build(corpus, n_shards, strategy, seed)
        rebuilt = plan.reassemble()
        assert np.array_equal(rebuilt.keywords, corpus.keywords)
        assert np.array_equal(rebuilt.offsets, corpus.offsets)
        for shard in plan.shards:
            assert rows(shard.corpus) == [rows(corpus)[g] for g in shard.global_ids.tolist()]


    @pytest.mark.parametrize(
        "layout",
        [dict(shards=3, shard_strategy="range"), dict(shards=3, shard_strategy="hash", shard_seed=5),
         dict(part_size=4), dict()],
        ids=["range", "hash", "part_size", "one_part"],
    )
    def test_full_corpus_is_the_logical_corpus_row_for_row(self, layout):
        """What compaction indexes — ``plan.reassemble`` under the manifest's tombstones and
        delta run, which replaced ``StreamState.full_corpus`` — for every handle kind."""
        rng = np.random.default_rng(11)
        objects = [rng.integers(0, 30, size=rng.integers(0, 6)).tolist() for _ in range(14)]
        session = GenieSession()
        handle = session.create_index(
            objects, model="raw", name="x", stream_config=StreamConfig(auto_compact=False), **layout
        )
        shadow = dict(enumerate(objects))
        handle.delete([2, 9])  # tombstones
        shadow[2] = shadow[9] = []
        handle.update(5, [7, 7, 1])  # an updated base object: tombstone + delta under the same id
        shadow[5] = [7, 7, 1]
        inserted = handle.insert([[40, 3], [], [41], [42, 1], [43]]).tolist()
        shadow.update(zip(inserted, [[40, 3], [], [41], [42, 1], [43]]))
        handle.delete([inserted[0], inserted[3]])  # deleted delta inserts: dead slots
        shadow[inserted[0]] = shadow[inserted[3]] = []
        handle.update(inserted[2], [44, 2])  # a delta object edited in place
        shadow[inserted[2]] = [44, 2]
        expected = per_object_unique(shadow[gid] for gid in range(len(shadow)))

        def full_corpus():
            manifest = handle.manifest
            overlay = [(None, manifest.tombstones), (manifest.delta.corpus, manifest.delta.global_ids)]
            return handle.plan.reassemble(overlay, manifest.next_gid)

        assert rows(full_corpus()) == expected
        handle.search([[7, 1, 44]], k=3)  # catches the delta run's index up: same rows again
        assert rows(full_corpus()) == expected
        assert handle.compact()
        assert rows(handle.plan.reassemble()) == rows(full_corpus()) == expected
        assert [row for part in handle._parts for row in rows(part.corpus)] == [
            expected[g] for part in handle._parts for g in part.global_ids
        ]
        assert [pair[0] for pair in handle.search([[44, 2]], k=1).results[0].as_pairs()] == [inserted[2]]
        session.close()

    @pytest.mark.parametrize("strategy", ["range", "hash"])
    def test_every_object_is_canonicalized_once(self, strategy, monkeypatch):
        """Rows are sorted where they enter and moved after that: counted, not estimated."""
        canonicalized = []
        init = Corpus.__init__

        def counting_init(self, objects):
            init(self, objects)
            canonicalized.append(len(self))

        monkeypatch.setattr(Corpus, "__init__", counting_init)
        rng = np.random.default_rng(3)
        objects = [rng.integers(0, 50, size=6).tolist() for _ in range(200)]
        session = GenieSession()
        handle = session.create_index(
            objects, model="raw", name="x", shards=4, shard_strategy=strategy,
            stream_config=StreamConfig(auto_compact=False),
        )
        assert sum(canonicalized) == len(objects)  # the parent: twice, encode then shard re-wrap

        del canonicalized[:]
        assert handle.rebalance([4.0, 1.0, 1.0, 1.0]) == (strategy == "range")
        assert canonicalized == []  # a recut only moves rows
        for step in range(10):
            handle.insert([rng.integers(0, 50, size=6).tolist() for _ in range(8)])
            handle.search([[1, 2, 3]], k=3)
        handle.update(3, [1, 2])
        handle.delete([0, 1, 205])
        handle.search([[1, 2, 3]], k=3)
        handle.explain([[1, 2, 3]], k=3)
        assert sum(canonicalized) == 10 * 8 + 1  # O(inserted), not O(run) per search

        del canonicalized[:]
        assert handle.compact()
        assert canonicalized == []  # so does compaction (the parent: every slot, twice)
        session.close()


class TestQuery:
    def test_from_keywords_one_item_each(self):
        query = Query.from_keywords([7, 8, 9])
        assert query.num_items == 3
        assert all(item.size == 1 for item in query.items)

    def test_all_keywords_concatenates(self):
        query = Query(items=[[1, 2], [3]])
        assert query.all_keywords().tolist() == [1, 2, 3]

    def test_count_bound_single_keyword_items(self):
        # One keyword per item (LSH shape): bound = number of items.
        batch = QueryBatch.from_queries([Query.from_keywords([1, 2, 3, 4])])
        assert batch.keywords_per_query.tolist() == [4]

    def test_count_bound_range_items(self):
        # Multi-keyword items (relational shape): bound = total keywords.
        batch = QueryBatch.from_queries([Query(items=[[1, 2, 3], [4, 5]])])
        assert batch.keywords_per_query.tolist() == [5]

    def test_empty_query(self):
        query = Query(items=[])
        assert query.num_items == 0
        assert query.all_keywords().size == 0
        batch = QueryBatch.from_queries([query])
        assert batch.keywords_per_query.tolist() == batch.items_per_query.tolist() == [0]

    def test_num_keywords_counts_repeats_across_items(self):
        batch = QueryBatch.from_queries([Query(items=[[1, 2], [2], []])])
        assert batch.keywords_per_query.tolist() == [3]
        assert batch.items_per_query.tolist() == [3]

    def test_single_keyword_fast_path_still_validates(self):
        with pytest.raises(QueryError):
            Query(items=[np.asarray([-3], dtype=np.int64)])

    def test_items_never_alias_caller_arrays(self):
        raw = np.asarray([5], dtype=np.int64)
        query = Query(items=[raw])
        raw[0] = -1
        assert query.items[0].tolist() == [5]

    def test_items_are_canonical_sets(self):
        query = Query(items=[[5, 5, 1]])
        assert query.items[0].tolist() == [1, 5]
        assert QueryBatch.from_queries([query]).keywords_per_query.tolist() == [2]


class TestQueryBatch:
    @settings(max_examples=60, deadline=None)
    @given(raw_queries)
    def test_round_trip_item_for_item(self, raw):
        queries = [Query(items=items) for items in raw]
        batch = QueryBatch.from_queries(queries)
        assert len(batch) == len(queries)
        assert as_lists(batch) == as_lists(queries)
        assert as_lists([batch[i] for i in range(len(batch))]) == as_lists(queries)
        assert batch.items_per_query.tolist() == [q.num_items for q in queries]
        assert batch.keywords_per_query.tolist() == [q.all_keywords().size for q in queries]
        assert QueryBatch.from_queries(batch) is batch  # the doors convert once

    @settings(max_examples=60, deadline=None)
    @given(raw_queries)
    def test_constructor_canonicalizes_like_query(self, raw):
        # Flat arrays in, unsorted and with duplicates: same sets as Query builds.
        items = [item for query in raw for item in query]
        batch = QueryBatch(
            [kw for item in items for kw in item],
            np.cumsum([0] + [len(item) for item in items]),
            np.cumsum([0] + [len(query) for query in raw]),
        )
        assert as_lists(batch) == as_lists(Query(items=query) for query in raw)

    @settings(max_examples=60, deadline=None)
    @given(raw_queries, st.randoms(use_true_random=False))
    def test_take_and_concat_laws(self, raw, rnd):
        batch = QueryBatch.from_queries([Query(items=items) for items in raw])
        order = list(range(len(batch)))
        rnd.shuffle(order)
        cuts = sorted(rnd.randint(0, len(order)) for _ in range(2))
        partition = [order[: cuts[0]], order[cuts[0] : cuts[1]], order[cuts[1] :]]
        glued = QueryBatch.concat([batch.take(part) for part in partition])
        assert as_lists(glued) == [as_lists(batch)[i] for i in order]
        back = glued.take(np.argsort(order))  # undo the permutation
        assert as_lists(back) == as_lists(batch)
        for name in ("keywords", "item_offsets", "query_offsets"):
            assert np.array_equal(getattr(back, name), getattr(batch, name))

    def test_take_shares_a_range_and_copies_a_permutation(self):
        batch = QueryBatch.from_queries([Query(items=[[i, i + 1], [i]]) for i in range(6)])
        middle = batch.take(np.arange(2, 5))
        assert as_lists(middle) == as_lists(batch)[2:5]
        assert np.shares_memory(middle.keywords, batch.keywords)
        assert middle.item_offsets[0] == middle.query_offsets[0] == 0
        shuffled = batch.take([4, 2, 3])
        assert as_lists(shuffled) == [as_lists(batch)[i] for i in (4, 2, 3)]
        assert not np.shares_memory(shuffled.keywords, batch.keywords)
        assert len(batch.take([])) == 0 and batch.take([]).keywords.size == 0

    def test_concat_of_nothing_and_of_one(self):
        assert len(QueryBatch.concat([])) == 0
        batch = QueryBatch([1, 2], None, [0, 2])
        assert QueryBatch.concat([batch]) is batch

    def test_single_keyword_shape(self):
        matrix = np.asarray([[7, 3, 7], [1, 1, 2]])
        batch = QueryBatch(matrix.reshape(-1), None, np.arange(3) * 3)
        # Repeats across items stay (each hash function is its own item).
        assert as_lists(batch) == [[[7], [3], [7]], [[1], [1], [2]]]
        assert batch.keyword_item.tolist() == [0, 1, 2, 3, 4, 5]
        assert batch.item_query.tolist() == batch.keyword_query.tolist() == [0, 0, 0, 1, 1, 1]

    def test_zero_item_queries_and_empty_items(self):
        batch = QueryBatch.from_queries(
            [Query(items=[]), Query(items=[[], [4, 2, 2]]), Query(items=[]), Query(items=[[9]])]
        )
        assert as_lists(batch) == [[], [[], [2, 4]], [], [[9]]]
        assert batch.items_per_query.tolist() == [0, 2, 0, 1]
        assert batch.keywords_per_query.tolist() == [0, 2, 0, 1]
        assert batch.keyword_item.tolist() == [1, 1, 2]
        assert batch.keyword_query.tolist() == [1, 1, 3]
        assert batch[0].num_items == 0 and batch[-1].items[0].tolist() == [9]
        with pytest.raises(IndexError):
            batch[4]

    def test_duplicate_and_unsorted_keywords_inside_ragged_items(self):
        batch = QueryBatch([5, 1, 5, 3, 3, 2, 8, 8], [0, 3, 3, 6, 8], [0, 2, 4])
        assert as_lists(batch) == [[[1, 5], []], [[2, 3], [8]]]
        assert batch.item_offsets.tolist() == [0, 2, 2, 4, 5]

    @pytest.mark.parametrize(
        "bad, named",
        [(1.5, "1.5"), (np.nan, "nan"), (-3, "-3"), (2.0**63, "9.223372036854776e+18"),
         (2**70, str(2**70))],
        ids=["fractional", "nan", "negative", "float_2_63", "python_int"],
    )
    def test_bad_keywords_are_named(self, bad, named):
        for build in (
            lambda: QueryBatch([1, bad], None, [0, 2]),
            lambda: QueryBatch([1, bad, 2], [0, 2, 3], [0, 2]),
            lambda: Query(items=[[1, bad]]),
            lambda: Query.from_keywords([1, bad]),
        ):
            with pytest.raises(QueryError) as error:
                build()
            assert named in str(error.value)

    def test_keyword_domain_ends_below_2_63(self):
        top = 2**63 - 1
        assert QueryBatch([top, 0], [0, 2], [0, 1]).keywords.tolist() == [0, top]
        with pytest.raises(QueryError, match="below 2\\*\\*63; got 9223372036854775808"):
            QueryBatch(np.asarray([1, 2**63], dtype=np.uint64), None, [0, 2])

    @pytest.mark.parametrize(
        "item_offsets, query_offsets",
        [([0, 1], [0, 1]), ([1, 2], [0, 1]), ([0, 2], [0, 2]), ([0, 2, 1, 2], [0, 3]), ([0, 2], [])],
    )
    def test_offsets_must_cover_what_they_index(self, item_offsets, query_offsets):
        with pytest.raises(QueryError, match="offsets must rise from 0"):
            QueryBatch([4, 5], item_offsets, query_offsets)

    def test_caller_arrays_are_never_aliased(self):
        keywords = np.asarray([3, 4, 5], dtype=np.int64)
        items, queries = np.asarray([0, 1, 2, 3]), np.asarray([0, 3])
        for batch in (QueryBatch(keywords, items, queries), QueryBatch(keywords, None, queries)):
            keywords[0], items[1], queries[1] = 99, 0, 2
            assert as_lists(batch) == [[[3], [4], [5]]]
            keywords[0], items[1], queries[1] = 3, 1, 3

    def test_views_are_zero_copy_and_read_only(self):
        batch = QueryBatch([3, 4, 5], [0, 2, 3], [0, 2])
        item = batch[0].items[0]
        assert np.shares_memory(item, batch.keywords)
        with pytest.raises(ValueError, match="read-only"):
            item[0] = 7

    def test_key_bytes_separates_item_boundaries(self):
        shapes = ([[1, 2], [3]], [[1], [2, 3]], [[1], [2], [3]], [[1, 2, 3]], [[1, 2], [3], []])
        batch = QueryBatch.from_queries([Query(items=items) for items in shapes])
        keys = [batch.take([i]).key_bytes() for i in range(len(batch))]
        assert len(set(keys)) == len(shapes)
        # Equal queries share a key wherever they sit in whichever batch.
        again = QueryBatch.from_queries([Query(items=[[7]]), Query(items=[[3], [2, 1]])])
        assert again.take([1]).key_bytes() != keys[0]
        assert QueryBatch.from_queries([Query(items=[[9]]), Query(items=[[2, 1], [3]])]).take([1]).key_bytes() == keys[0]
        assert QueryBatch.from_queries([Query(items=[[2, 1], [3]])]).key_bytes() == keys[0]
        # A batch's key also separates its query boundaries.
        two = QueryBatch.from_queries([Query(items=[[1]]), Query(items=[[2]])])
        assert two.key_bytes() != QueryBatch.from_queries([Query(items=[[1], [2]])]).key_bytes()

    def test_from_queries_rejects_non_queries(self):
        with pytest.raises(QueryError, match="Query objects"):
            QueryBatch.from_queries([[1, 2]])


class TestTopKResult:
    def test_pairs(self):
        result = TopKResult(ids=[5, 3], counts=[9, 7])
        assert result.as_pairs() == [(5, 9), (3, 7)]
        assert len(result) == 2

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            TopKResult(ids=[1, 2], counts=[1])


# One raw answer = ranked (id, count) pairs plus a threshold; some answers are empty.
raw_answers = st.lists(
    st.tuples(st.lists(st.tuples(st.integers(0, 99), st.integers(1, 9)), max_size=5), st.integers(0, 9)),
    max_size=7,
)


def as_results(raw) -> list:
    return [
        TopKResult(ids=[i for i, _ in pairs], counts=[c for _, c in pairs], threshold=threshold)
        for pairs, threshold in raw
    ]


def as_triples(results) -> list:
    """``[(ids, counts, threshold), ...]`` of a batch or of a list of results."""
    return [(r.ids.tolist(), r.counts.tolist(), r.threshold) for r in results]


class TestTopKBatch:
    @settings(max_examples=60, deadline=None)
    @given(raw_answers)
    def test_round_trip_result_for_result(self, raw):
        results = as_results(raw)
        batch = TopKBatch.from_results(results)
        assert len(batch) == len(results)
        assert as_triples(list(batch)) == as_triples(results)
        assert as_triples(TopKBatch.from_results(list(batch))) == as_triples(results)
        assert batch.sizes.tolist() == [len(r) for r in results]
        assert batch.ids.size == batch.counts.size == batch.offsets[-1] == sum(len(r) for r in results)

    @settings(max_examples=60, deadline=None)
    @given(raw_answers, st.randoms(use_true_random=False))
    def test_take_and_concat_laws(self, raw, rnd):
        batch = TopKBatch.from_results(as_results(raw))
        order = list(range(len(batch)))
        rnd.shuffle(order)
        cuts = sorted(rnd.randint(0, len(order)) for _ in range(2))
        partition = [order[: cuts[0]], order[cuts[0] : cuts[1]], order[cuts[1] :]]
        glued = TopKBatch.concat([batch.take(part) for part in partition])
        assert as_triples(glued) == [as_triples(batch)[i] for i in order]
        back = glued.take(np.argsort(order))  # undo the permutation
        for name in ("ids", "counts", "offsets", "thresholds"):
            assert np.array_equal(getattr(back, name), getattr(batch, name))
            assert getattr(back, name).dtype == np.int64

    def test_take_shares_a_range_and_copies_a_permutation(self):
        batch = TopKBatch.from_results([TopKResult(ids=[i, i + 10], counts=[2, 1], threshold=i) for i in range(6)])
        middle = batch.take(np.arange(2, 5))
        assert as_triples(middle) == as_triples(batch)[2:5]
        assert np.shares_memory(middle.ids, batch.ids) and np.shares_memory(middle.counts, batch.counts)
        assert middle.offsets[0] == 0
        shuffled = batch.take([4, 2, 3])
        assert as_triples(shuffled) == [as_triples(batch)[i] for i in (4, 2, 3)]
        assert not np.shares_memory(shuffled.ids, batch.ids)
        assert len(batch.take([])) == 0 and batch.take([]).ids.size == 0

    def test_concat_of_nothing_and_of_one(self):
        assert len(TopKBatch.concat([])) == 0
        batch = TopKBatch.empty(2)
        assert TopKBatch.concat([batch]) is batch
        assert as_triples(batch) == [([], [], 0), ([], [], 0)]

    def test_indexes_iterates_and_lens_like_the_list_it_replaces(self):
        results = as_results([([(4, 3), (1, 3)], 3), ([], 0), ([(7, 1)], 1)])
        batch = TopKBatch.from_results(results)
        assert len(batch) == 3 and len(list(batch)) == 3
        assert as_triples([batch[0], batch[-1]]) == as_triples([results[0], results[-1]])
        assert all(isinstance(result, TopKResult) and isinstance(result.threshold, int) for result in batch)
        assert batch[0].as_pairs() == [(4, 3), (1, 3)]
        with pytest.raises(IndexError):
            batch[3]

    def test_views_are_zero_copy_read_only_int64(self):
        batch = TopKBatch.from_results(as_results([([(4, 3), (1, 3)], 3), ([(7, 1)], 1)]))
        view = batch[0]
        assert np.shares_memory(view.ids, batch.ids) and np.shares_memory(view.counts, batch.counts)
        assert view.ids.dtype == view.counts.dtype == np.int64
        for array in (view.ids, view.counts, batch.ids, batch.counts):
            with pytest.raises(ValueError):
                array[0] = 0
        narrow = TopKBatch(np.asarray([3], dtype=np.int32), np.asarray([2], dtype=np.int32),
                           np.asarray([0, 1]), np.asarray([2]))
        assert narrow.ids.dtype == narrow.counts.dtype == narrow[0].ids.dtype == np.int64

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            TopKBatch(np.asarray([1, 2]), np.asarray([1]), np.asarray([0, 2]), np.asarray([0]))
        with pytest.raises(ValueError):
            TopKBatch(np.asarray([1]), np.asarray([1]), np.asarray([0, 1]), np.asarray([0, 0]))

    @settings(max_examples=60, deadline=None)
    @given(raw_answers, raw_answers, st.randoms(use_true_random=False))
    def test_replace_puts_answers_at_their_rows(self, raw, other, rnd):
        batch, results = TopKBatch.from_results(as_results(raw)), as_results(raw)
        rows = sorted(rnd.sample(range(len(results)), min(len(results), len(other))))
        fresh = as_results(other)[: len(rows)]
        for row, result in zip(rows, fresh):
            results[row] = result
        assert as_triples(batch.replace(rows, TopKBatch.from_results(fresh))) == as_triples(results)
        assert as_triples(batch) == as_triples(as_results(raw))  # a new batch, not an edit

    def test_a_gather_renames_and_compress_filters_in_place_of_a_loop(self):
        batch = TopKBatch.from_results(as_results([([(0, 3), (2, 2)], 2), ([], 0), ([(1, 5)], 5)]))
        renamed = TopKBatch(np.asarray([40, 10, 30])[batch.ids], batch.counts, batch.offsets, batch.thresholds)
        assert as_triples(renamed) == [([40, 30], [3, 2], 2), ([], [], 0), ([10], [5], 5)]
        kept = renamed.compress(renamed.ids != 40)
        assert as_triples(kept) == [([30], [2], 2), ([], [], 0), ([10], [5], 5)]
        assert as_triples(kept.compress(np.zeros(2, dtype=bool))) == [([], [], 2), ([], [], 0), ([], [], 5)]

    @settings(max_examples=80, deadline=None)
    @given(raw_answers, st.sampled_from(["none", "all", "some"]), st.randoms(use_true_random=False))
    def test_compress_keeps_each_query_its_flagged_entries(self, raw, kept, rnd):
        # Empty segments, nothing kept and everything kept, against the per-query filter.
        batch = TopKBatch.from_results(as_results(raw))
        keep = np.asarray([kept == "all" or (kept == "some" and rnd.random() < 0.5) for _ in batch.ids], dtype=bool)
        flags = np.split(keep, batch.offsets[1:-1])
        expected = [(ids[flag].tolist(), counts[flag].tolist(), threshold) for (ids, counts, threshold), flag in zip(
            ((r.ids, r.counts, r.threshold) for r in batch), flags)]
        compressed = batch.compress(keep)
        assert as_triples(compressed) == expected
        assert compressed.offsets.dtype == np.int64 and compressed.offsets[-1] == keep.sum()

    def test_a_dirty_sharded_search_builds_one_result_object_per_query(self, monkeypatch):
        """Candidates cross scan, remap, strike and merge as arrays: counted, not estimated."""
        built = []
        post_init = TopKResult.__post_init__

        def counting_post_init(self):
            post_init(self)
            built.append(len(self))

        rng = np.random.default_rng(3)
        objects = [rng.integers(0, 50, size=6).tolist() for _ in range(200)]
        session = GenieSession()
        handle = session.create_index(
            objects, model="raw", name="x", shards=4, shard_strategy="range",
            stream_config=StreamConfig(auto_compact=False),
        )
        handle.insert([rng.integers(0, 50, size=6).tolist() for _ in range(20)])
        handle.delete([0, 60, 120, 180, 201])
        handle.update(3, [1, 2])
        queries = [rng.integers(0, 50, size=4).tolist() for _ in range(9)]
        monkeypatch.setattr(TopKResult, "__post_init__", counting_post_init)
        result = handle.search(queries, k=5)
        assert len(built) == len(queries)  # the parent: one per (source, query) and step, ~17x
        assert built == [len(answer) for answer in result.results]
        assert "DeltaScan" in result.plan.render() and len(result.shard_profiles) == 4
        del built[:]
        handle.search(queries, k=5, plan="two-round")  # clean indexes only; dirty falls back to one round
        assert len(built) == len(queries)
        session.close()
