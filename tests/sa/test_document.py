"""Tests for short-document search (binary vector-space inner product)."""

import pytest

from repro.api import GenieSession
from repro.errors import QueryError
from repro.sa.document import DEFAULT_STOPWORDS, WordVocabulary, tokenize

DOCS = [
    "the quick brown fox jumps",
    "a lazy dog sleeps all day",
    "quick dog runs in the park",
    "brown bears eat honey",
]


class TestTokenize:
    def test_lowercases_and_strips_stopwords(self):
        assert tokenize("The Quick FOX") == ["quick", "fox"]

    def test_punctuation_split(self):
        assert tokenize("dogs, cats; birds!") == ["dogs", "cats", "birds"]

    def test_custom_stopwords(self):
        assert tokenize("the dog", stopwords=frozenset()) == ["the", "dog"]

    def test_default_stopwords_exclude_articles(self):
        assert "the" in DEFAULT_STOPWORDS


class TestWordVocabulary:
    def test_dedupe_preserving_first_occurrence(self):
        vocab = WordVocabulary()
        ids = vocab.encode(["b", "a", "b"], grow=True)
        assert ids.tolist() == [0, 1]

    def test_frozen_drops_unknown(self):
        vocab = WordVocabulary()
        vocab.encode(["a"], grow=True)
        assert vocab.encode(["a", "z"], grow=False).tolist() == [0]

    def test_lookup_is_the_frozen_encode_as_a_list(self):
        vocab = WordVocabulary()
        vocab.encode(["b", "a", "c"], grow=True)
        tokens = ["c", "z", "b", "c", "a"]
        assert vocab.lookup(tokens) == vocab.encode(tokens, grow=False).tolist() == [2, 0, 1]
        assert len(vocab) == 3


def _index():
    return GenieSession().create_index(DOCS, model="document")


def _inner_product(a: str, b: str) -> int:
    """Reference binary vector-space inner product of two texts."""
    return len(set(tokenize(a)) & set(tokenize(b)))


class TestDocumentIndex:
    def test_count_equals_inner_product(self):
        query = "quick brown dog"
        result = _index().search([query], k=4)[0]
        for doc_id, count in result.as_pairs():
            assert count == _inner_product(query, DOCS[doc_id])

    def test_most_overlapping_doc_first(self):
        result = _index().search(["lazy dog sleeps"], k=1)[0]
        assert int(result.ids[0]) == 1

    def test_batch(self):
        results = _index().search(["quick fox", "honey bears"], k=2).results
        assert int(results[0].ids[0]) == 0
        assert int(results[1].ids[0]) == 3

    def test_unknown_words_raise(self):
        with pytest.raises(QueryError):
            _index().search(["zzz qqq"], k=1)

    @pytest.mark.parametrize("bad, kind", [(None, "NoneType"), (42, "int"), (b"quick fox", "bytes")])
    def test_a_query_that_is_not_a_str_names_its_position(self, bad, kind):
        with pytest.raises(QueryError, match=f"query 1: a document query is a str; got {kind}"):
            _index().search(["quick fox", bad], k=1)

    def test_query_before_fit(self):
        with pytest.raises(QueryError):
            GenieSession().declare_index("document").search(["dog"], k=1)
