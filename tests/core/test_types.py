"""Tests for the core data model (Corpus, Query, TopKResult)."""

import numpy as np
import pytest

from repro.core.types import Corpus, Query, TopKResult, as_keyword_array
from repro.errors import QueryError


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
        query = Query.from_keywords([1, 2, 3, 4])
        assert query.count_bound() == 4

    def test_count_bound_range_items(self):
        # Multi-keyword items (relational shape): bound = total keywords.
        query = Query(items=[[1, 2, 3], [4, 5]])
        assert query.count_bound() == 5

    def test_empty_query(self):
        query = Query(items=[])
        assert query.num_items == 0
        assert query.all_keywords().size == 0
        assert query.num_keywords == 0
        assert query.count_bound() == 0

    def test_num_keywords_counts_repeats_across_items(self):
        query = Query(items=[[1, 2], [2], []])
        assert query.num_keywords == 3

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
        # count_bound is cached and stable across calls.
        assert query.count_bound() == query.count_bound() == 2


class TestTopKResult:
    def test_pairs(self):
        result = TopKResult(ids=[5, 3], counts=[9, 7])
        assert result.as_pairs() == [(5, 9), (3, 7)]
        assert len(result) == 2

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            TopKResult(ids=[1, 2], counts=[1])
