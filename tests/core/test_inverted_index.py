"""Tests for the inverted index (List Array + Position Map)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import Corpus
from repro.errors import MalformedIndexError


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


class TestKeywordBitmaps:
    """The bit-sliced scan's operands: one packed bitmap per keyword row, host only."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 300), st.integers(1, 80), st.integers(0, 3), st.integers(0, 2**16))
    def test_bitmaps_are_the_lists_and_never_outweigh_them(self, n, universe, per_object, seed):
        rng = np.random.default_rng(seed)
        corpus = Corpus(rng.integers(0, universe, size=(n, per_object)))
        index = InvertedIndex.build(corpus)
        bitmaps = index.keyword_bitmaps
        rows, entries = index.keyword_array.size, index.total_entries
        if entries * 32 < n * rows:  # lists average under n / 32
            assert bitmaps is None
        if bitmaps is None:
            return
        assert bitmaps.nbytes <= index.list_array32.nbytes
        bits = (bitmaps[:, np.arange(n) // 64] >> (np.arange(n) % 64).astype(np.uint64)) & np.uint64(1)
        for row, keyword in enumerate(index.keywords):
            assert np.array_equal(np.flatnonzero(bits[row]), index.postings_for_keyword(keyword))
        assert not bitmaps[-1].any() and bitmaps.shape == (rows + 1, -(-n // 64))
        # Per keyword row, not per span: load balancing leaves them alone.
        split = InvertedIndex.build(corpus, LoadBalanceConfig(max_sublist_len=3))
        assert np.array_equal(split.keyword_bitmaps, bitmaps)

    def test_no_bitmaps_below_a_mean_list_of_n_over_32(self):
        # 640 objects over 21 keywords: lists of 30 and 31 against n / 32 = 20,
        # then 33 keywords, lists of 19 and 20 (mean 19.4).
        assert InvertedIndex.build(Corpus([[obj % 21] for obj in range(640)])).keyword_bitmaps is not None
        assert InvertedIndex.build(Corpus([[obj % 33] for obj in range(640)])).keyword_bitmaps is None
        assert InvertedIndex.build(Corpus([[], []])).keyword_bitmaps is None


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


# ----------------------------------------------------------------------
# spliced: the index kept current by one drop-and-merge pass, never re-sorted

INDEX_ARRAYS = ("list_array", "keyword_array", "kw_span_offsets", "span_starts", "span_ends")

#: Around the dense-lookup cutoff of a handful of small keywords (8 x n + 1024), far past it, and the top of int64.
BIG_KEYWORDS = [1030, 1070, 1100, 5000, 2**40, 2**63 - 2, 2**63 - 1]

NOTHING = np.empty(0, dtype=np.int64)


def assert_same_index(got, expected):
    """Array for array (dtype included) what ``InvertedIndex.build`` made — ``build_ops`` aside."""
    for name in INDEX_ARRAYS:
        ours, theirs = getattr(got, name), getattr(expected, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (name, ours, theirs)
    assert got.n_objects == expected.n_objects and got.load_balance == expected.load_balance
    assert (got._kw_lookup is None) == (expected._kw_lookup is None)
    if got._kw_lookup is not None:
        assert np.array_equal(got._kw_lookup, expected._kw_lookup)
    assert np.array_equal(got.list_array32, expected.list_array32)
    got.validate()


def two_pass_price(index, dropped, incoming, result):
    """What a drop pass then a merge pass charged: ``0.0``, plus a linear pass over ``index``
    when anything is dropped, plus the build of ``incoming`` and a linear pass over ``result``
    when anything is added — added in that order, so the float is the same to the last bit."""
    ops = 0.0
    if len(dropped):
        ops += 4.0 * max(1, index.total_entries)
    if incoming:
        ops += _index(incoming).build_ops + 4.0 * result.total_entries
    return ops


@st.composite
def index_cases(draw, max_objects=10):
    """``(objects, load_balance)``: keywords all small (dense lookup) or mixed with huge ones (binary search)."""
    small = st.integers(0, 12)
    keyword = draw(st.sampled_from([small, st.one_of(small, st.sampled_from(BIG_KEYWORDS))]))
    objects = draw(st.lists(st.lists(keyword, max_size=5), max_size=max_objects))
    balance = draw(st.one_of(st.none(), st.integers(1, 4).map(lambda n: LoadBalanceConfig(max_sublist_len=n))))
    return objects, balance


@settings(max_examples=250, deadline=None)
@given(index_cases(max_objects=12), index_cases(max_objects=6), st.data())
def test_spliced_equals_a_build_of_the_resulting_corpus(mine, theirs, data):
    (own, balance), (incoming, _) = mine, theirs
    dropped = sorted(data.draw(st.sets(st.integers(0, max(len(own) - 1, 0)), max_size=len(own)), label="dropped"))
    kept = [obj for i, obj in enumerate(own) if i not in dropped]
    total = len(kept) + len(incoming)
    if data.draw(st.booleans(), label="appended"):
        positions = list(range(len(kept), total))
    else:
        positions = sorted(data.draw(st.permutations(range(total)), label="slots")[: len(incoming)])
    resulting, rest = [None] * total, iter(kept)
    for position, obj in zip(positions, incoming):
        resulting[position] = obj
    resulting = [obj if obj is not None else next(rest) for obj in resulting]
    index = _index(own, balance)
    spliced = index.spliced(np.asarray(dropped, dtype=np.int64), Corpus(incoming), np.asarray(positions))
    assert_same_index(spliced, _index(resulting, balance))
    assert spliced.build_ops == two_pass_price(index, dropped, incoming, spliced)


@settings(max_examples=100, deadline=None)
@given(index_cases(max_objects=14))
def test_corpus_reads_the_indexed_rows_back(case):
    objects, balance = case
    corpus = Corpus(objects)
    back = InvertedIndex.build(corpus, balance).corpus()
    assert np.array_equal(back.keywords, corpus.keywords) and np.array_equal(back.offsets, corpus.offsets)
    assert not back.keywords.flags.writeable


class TestSpliced:
    def test_empty_operands(self):
        empty, some = _index([]), _index([[3, 1], [], [1]])
        assert_same_index(empty.spliced(NOTHING, Corpus([]), NOTHING), empty)
        assert_same_index(some.spliced(NOTHING, Corpus([]), NOTHING), some)
        assert_same_index(empty.spliced(NOTHING, Corpus([[3, 1], [], [1]]), np.arange(3)), some)
        assert_same_index(some.spliced(np.arange(3), Corpus([]), NOTHING), empty)
        assert_same_index(some.spliced(np.arange(3), Corpus([[3, 1], [], [1]]), np.arange(3)), some)
        assert_same_index(_index([[], []]).spliced(NOTHING, Corpus([[]]), [1]), _index([[], [], []]))  # no keywords

    def test_mid_run_positions_renumber_the_old_objects(self):
        spliced = _index([[1], [1, 2], [2]]).spliced(NOTHING, Corpus([[2, 9], [1]]), [0, 3])
        assert_same_index(spliced, _index([[2, 9], [1], [1, 2], [1], [2]]))
        assert spliced.postings_for_keyword(1).tolist() == [1, 2, 3]

    def test_a_replaced_object_is_dropped_and_merged_back_in_its_slot(self):
        spliced = _index([[1], [1, 2], [2]]).spliced([1], Corpus([[9]]), [1])
        assert_same_index(spliced, _index([[1], [9], [2]]))

    def test_emptied_keywords_leave_the_table(self):
        index = _index([[1, 5], [5], [7]]).spliced([0, 2], Corpus([]), NOTHING)
        assert index.keyword_array.tolist() == [5] and index.n_objects == 1

    def test_crossing_the_dense_lookup_cutoff_both_ways(self):
        dense = _index([[0, 1, 2], [3, 4, 5]])
        assert dense._kw_lookup is not None
        sparse = dense.spliced(NOTHING, Corpus([[1100]]), [2])
        assert sparse._kw_lookup is None and sparse.keyword_rows(np.asarray([1100, 1099]))[1].tolist() == [True, False]
        assert_same_index(sparse, _index([[0, 1, 2], [3, 4, 5], [1100]]))
        back = sparse.spliced([2], Corpus([]), NOTHING)
        assert back._kw_lookup is not None
        assert_same_index(back, dense)
        assert dense.spliced(NOTHING, Corpus([[1070]]), [2])._kw_lookup is not None  # just inside: 1071 <= 8 * 7 + 1024

    def test_largest_keyword(self):
        big = 2**63 - 1
        spliced = _index([[big, 0], [5]]).spliced(NOTHING, Corpus([[big], [big - 1]]), [1, 3])
        assert_same_index(spliced, _index([[big, 0], [big], [5], [big - 1]]))
        assert spliced.postings_for_keyword(big).tolist() == [0, 1]
        assert_same_index(spliced.spliced([0, 1], Corpus([]), NOTHING), _index([[5], [big - 1]]))

    def test_positions_must_name_one_distinct_slot_per_object(self):
        index, other = _index([[1], [2]]), Corpus([[3], [4]])
        for positions in ([0], [1, 1], [2, 1], [0, 1, 2]):
            with pytest.raises(MalformedIndexError, match="positions must ascend"):
                index.spliced(NOTHING, other, positions)

    def test_a_splice_is_priced_below_the_build_it_replaces(self):
        """Linear in both runs plus the incoming rows' own sort — no ``n log n`` over the old run."""
        rng = np.random.default_rng(0)
        for old, new in [(4, 1), (8, 2), (40, 10), (400, 100), (2000, 40), (2000, 500)]:
            mine = rng.integers(0, 50, size=(old, 1))  # one posting per object: sizes are exact
            theirs = rng.integers(0, 50, size=(new, 1))
            spliced = _index(mine).spliced(NOTHING, Corpus(theirs), np.arange(old, old + new))
            built = InvertedIndex.build(Corpus(np.concatenate([mine, theirs])))
            assert_same_index(spliced, built)
            assert spliced.build_ops < built.build_ops, (old, new)
        assert _index(mine).spliced([0], Corpus([]), NOTHING).build_ops < _index(mine).build_ops
