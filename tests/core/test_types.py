"""Tests for the core data model (Corpus, Query, QueryBatch, TopKResult)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Corpus, Query, QueryBatch, TopKResult, as_keyword_array
from repro.errors import QueryError

# One raw query = a list of items; items may be empty, unsorted and repeat keywords.
raw_queries = st.lists(
    st.lists(st.lists(st.integers(0, 40), max_size=5), max_size=4), min_size=0, max_size=7
)


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
        keys = [batch.key_bytes(i) for i in range(len(batch))]
        assert len(set(keys)) == len(shapes)
        # Equal queries share a key wherever they sit in whichever batch.
        again = QueryBatch.from_queries([Query(items=[[7]]), Query(items=[[3], [2, 1]])])
        assert again.key_bytes(1) != keys[0]
        assert QueryBatch.from_queries([Query(items=[[9]]), Query(items=[[2, 1], [3]])]).key_bytes(1) == keys[0]

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
