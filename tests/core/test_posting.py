"""Tests for postings-list construction, read off the built index's arrays."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedIndex, sort_postings
from repro.core.types import Corpus


def list_for(index: InvertedIndex, row: int) -> np.ndarray:
    """Keyword row ``row``'s postings list, straight from the flat arrays."""
    return index.list_array[index.list_offsets[row] : index.list_offsets[row + 1]]


class TestBuildPostings:
    def test_simple(self):
        index = InvertedIndex.build(Corpus([[1, 2], [2, 3]]))
        assert index.keyword_array.tolist() == [1, 2, 3]
        assert list_for(index, 0).tolist() == [0]
        assert list_for(index, 1).tolist() == [0, 1]
        assert list_for(index, 2).tolist() == [1]

    def test_lists_sorted_by_object_id(self):
        index = InvertedIndex.build(Corpus([[5], [5], [5]]))
        assert list_for(index, 0).tolist() == [0, 1, 2]

    def test_empty_corpus(self):
        index = InvertedIndex.build(Corpus([]))
        assert index.keyword_array.size == 0
        assert index.list_offsets.tolist() == [0]
        assert index.total_entries == 0

    def test_corpus_with_empty_objects(self):
        index = InvertedIndex.build(Corpus([[], [7], []]))
        assert index.keyword_array.tolist() == [7]
        assert list_for(index, 0).tolist() == [1]

    def test_total_entries(self):
        corpus = Corpus([[1, 2, 3], [1]])
        assert InvertedIndex.build(corpus).total_entries == 4

    def test_build_ops_positive(self):
        assert InvertedIndex.build(Corpus([[1]])).build_ops > 0

    def test_the_index_holds_the_sorted_arrays_themselves(self):
        corpus = Corpus([[3, 1], [1], [2, 3]])
        keywords, offsets, list_array, ops = sort_postings(corpus)
        index = InvertedIndex.build(corpus)
        assert np.array_equal(index.keyword_array, keywords)
        assert np.array_equal(index.list_offsets, offsets)
        assert np.array_equal(index.list_array, list_array)
        assert index.build_ops == ops

    @given(
        st.lists(
            st.lists(st.integers(0, 30), max_size=8),
            min_size=1,
            max_size=20,
        )
    )
    def test_postings_invert_the_corpus(self, raw_objects):
        corpus = Corpus(raw_objects)
        index = InvertedIndex.build(corpus)
        # Every (object, keyword) pair appears in exactly that keyword's list.
        for obj_id, keywords in enumerate(corpus):
            for kw in keywords:
                row = int(np.searchsorted(index.keyword_array, kw))
                assert index.keyword_array[row] == kw
                assert obj_id in list_for(index, row)
        # And total size matches.
        assert index.total_entries == corpus.total_entries
