"""Tests for ordered n-gram decomposition (Example 5.1, Lemma 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.match_count import match_count
from repro.core.types import Query
from repro.sa.ngram import NgramVocabulary, common_gram_count, count_filter_bound, ordered_ngrams

_text = st.text(alphabet="ab", max_size=20)


class TestOrderedNgrams:
    def test_paper_example_5_1(self):
        assert ordered_ngrams("aabaab", 3) == [
            ("aab", 0),
            ("aba", 0),
            ("baa", 0),
            ("aab", 1),
        ]

    def test_short_sequence_empty(self):
        assert ordered_ngrams("ab", 3) == []

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ordered_ngrams("abc", 0)

    def test_count(self):
        assert len(ordered_ngrams("abcdef", 2)) == 5


class TestCommonGramCount:
    def test_min_semantics(self):
        # "aa" appears twice in "aaa" and once in "aab": min = 1... plus "ab".
        assert common_gram_count("aaa", "aab", 2) == 1
        assert common_gram_count("aaaa", "aaa", 2) == 2

    def test_disjoint(self):
        assert common_gram_count("aaa", "bbb", 2) == 0


class TestVocabulary:
    def test_encode_grow_and_freeze(self):
        vocab = NgramVocabulary(3)
        grown = vocab.encode("abcabc", grow=True)
        assert grown.size == 4
        frozen = vocab.encode("abcxyz", grow=False)
        assert frozen.size == 1  # only "abc" occurrence 0 is known

    def test_ids_stable(self):
        vocab = NgramVocabulary(2)
        first = vocab.encode("abab", grow=True)
        second = vocab.encode("abab", grow=False)
        assert first.tolist() == second.tolist()

    def test_lookup_is_the_frozen_encode_as_a_list(self):
        vocab = NgramVocabulary(2)
        vocab.encode("abab", grow=True)
        assert vocab.lookup("abxab") == vocab.encode("abxab", grow=False).tolist() == [0, 2]
        assert vocab.lookup("babab") == [1, 0, 2]  # ("ba", 1) is unseen
        assert vocab.lookup("zzzz") == [] and len(vocab) == 3  # lookup never grows


@settings(max_examples=60)
@given(_text, _text)
def test_lemma_5_1_match_count_is_min_gram_count(s, q):
    """The GENIE match count over ordered n-grams equals sum_g min(c_s, c_q)."""
    n = 2
    vocab = NgramVocabulary(n)
    obj = vocab.encode(s, grow=True)
    query_kw = vocab.encode(q, grow=False)
    query = Query.from_keywords(query_kw)
    expected = common_gram_count(s, q, n)
    # Unseen grams in q contribute nothing; encode(grow=False) drops them,
    # which matches min(c_s, c_q) = 0 for grams absent from s... except
    # grams present in s but at occurrence indexes beyond q's. The ordered
    # encoding guarantees exactly min() matches.
    assert match_count(query, obj) == expected


@settings(max_examples=60)
@given(_text, _text, st.integers(0, 6))
def test_theorem_5_1_count_filter_bound(s, q, tau_extra):
    """Theorem 5.1: ed(S,Q) = tau implies MC >= max(|S|,|Q|) - n + 1 - tau*n."""
    from repro.sa.edit_distance import edit_distance

    n = 2
    tau = edit_distance(s, q)
    bound = count_filter_bound(len(q), len(s), tau, n)
    assert common_gram_count(s, q, n) >= bound
