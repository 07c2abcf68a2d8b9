"""Tests for the inverted index (List Array + Position Map)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import Corpus


def _index(objects, lb=None):
    return InvertedIndex.build(Corpus(objects), load_balance=lb)


class TestBasicLookups:
    def test_spans_and_gather(self):
        index = _index([[1, 2], [2, 3]])
        assert index.postings_for_keyword(2).tolist() == [0, 1]
        assert index.postings_for_keyword(99).size == 0

    def test_spans_for_keywords_concatenates(self):
        index = _index([[1], [2]])
        spans = index.spans_for_keywords(np.array([1, 2]))
        assert index.gather(spans).tolist() == [0, 1]

    def test_gather_empty(self):
        index = _index([[1]])
        assert index.gather([]).size == 0

    def test_n_objects(self):
        assert _index([[1], [], [2]]).n_objects == 3

    def test_validate_passes_on_fresh_index(self):
        _index([[1, 2, 3], [2, 4]]).validate()


class TestPositionMapImmutability:
    def test_mutating_returned_spans_cannot_corrupt_lookups(self):
        index = _index([[1, 2], [2, 3], [2]])
        truth = index.spans_for_keyword(2)
        stolen = index.spans_for_keyword(2)
        stolen.clear()
        stolen.append((999, 1000))
        assert index.spans_for_keyword(2) == truth
        assert index.postings_for_keyword(2).tolist() == [0, 1, 2]

    def test_mutating_spans_for_keywords_result_is_harmless(self):
        index = _index([[1], [2], [1, 2]])
        spans = index.spans_for_keywords(np.array([1, 2]))
        truth = list(spans)
        spans.reverse()
        spans.append((5, 6))
        assert index.spans_for_keywords(np.array([1, 2])) == truth

    def test_spans_agree_with_csr_truth_after_mutation_attempts(self):
        index = _index([[k] for k in [7] * 10 + [8] * 3], lb=LoadBalanceConfig(max_sublist_len=4))
        index.spans_for_keyword(7).append((0, 0))  # discarded copy
        rows, found = index.keyword_rows(np.array([7]))
        assert found.all()
        span_rows, _ = index.span_rows_for_keyword_rows(rows)
        csr_spans = [
            (int(index.span_starts[r]), int(index.span_ends[r])) for r in span_rows
        ]
        assert index.spans_for_keyword(7) == csr_spans


class TestLoadBalance:
    def test_long_list_is_split(self):
        objects = [[7] for _ in range(100)]
        plain = _index(objects)
        split = _index(objects, lb=LoadBalanceConfig(max_sublist_len=16))
        assert plain.num_lists == 1
        assert split.num_lists == 7  # ceil(100 / 16)
        assert split.max_list_len <= 16

    def test_split_index_returns_same_postings(self):
        objects = [[7] for _ in range(50)] + [[8, 7]]
        plain = _index(objects)
        split = _index(objects, lb=LoadBalanceConfig(max_sublist_len=8))
        assert np.array_equal(plain.postings_for_keyword(7), split.postings_for_keyword(7))
        split.validate()

    def test_short_lists_untouched(self):
        index = _index([[1], [2]], lb=LoadBalanceConfig(max_sublist_len=4096))
        assert index.num_lists == 2


class TestSizes:
    def test_device_bytes_is_list_array(self):
        index = _index([[1, 2], [3]])
        assert index.device_bytes() == index.list_array.nbytes

    def test_host_bytes_grows_with_splitting(self):
        objects = [[7] for _ in range(100)]
        plain = _index(objects)
        split = _index(objects, lb=LoadBalanceConfig(max_sublist_len=10))
        assert split.host_bytes() > plain.host_bytes()


@settings(max_examples=30)
@given(
    st.lists(st.lists(st.integers(0, 20), max_size=6), min_size=1, max_size=30),
    st.integers(1, 8),
)
def test_split_and_plain_agree_on_every_keyword(raw_objects, max_len):
    corpus = Corpus(raw_objects)
    plain = InvertedIndex.build(corpus)
    split = InvertedIndex.build(corpus, load_balance=LoadBalanceConfig(max_sublist_len=max_len))
    split.validate()
    for kw in range(21):
        assert np.array_equal(plain.postings_for_keyword(kw), split.postings_for_keyword(kw))
