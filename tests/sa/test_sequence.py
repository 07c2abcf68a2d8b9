"""Tests for GENIE sequence search with Algorithm-2 verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.errors import QueryError
from repro.sa.edit_distance import edit_distance
from repro.sa.sequence import search_until_certified

TITLES = [
    "approximate string matching",
    "exact string matching",
    "graph pattern mining",
    "locality sensitive hashing",
    "parallel query processing",
    "similarity search on gpu",
    "inverted index compression",
    "sequence alignment methods",
]


def _index(sequences, n=3):
    return GenieSession().create_index(sequences, model="sequence", n=n)


def _search(index, query, **opts):
    """One query's verified ``SequenceSearchResult`` payload."""
    return index.search([query], **opts).payload[0]


class TestBasicSearch:
    def test_exact_query_finds_itself(self):
        index = _index(TITLES)
        result = _search(index, TITLES[3], k=1, n_candidates=4)
        assert result.best.sequence_id == 3
        assert result.best.distance == 0

    def test_corrupted_query_recovers_original(self):
        index = _index(TITLES)
        result = _search(index, "aproximate string matchng", k=1, n_candidates=4)
        assert result.best.sequence_id == 0

    def test_topk_ordering(self):
        index = _index(TITLES)
        result = _search(index, "exact string matching", k=3, n_candidates=8)
        distances = [m.distance for m in result.matches]
        assert distances == sorted(distances)
        assert result.matches[0].sequence_id == 1

    def test_unknown_grams_empty_result(self):
        index = _index(TITLES)
        result = _search(index, "zzzzzzzz", k=1, n_candidates=4)
        assert result.best is None

    def test_errors(self):
        index = GenieSession().declare_index("sequence", n=3)
        with pytest.raises(QueryError):
            _search(index, "abc", k=1)
        index.fit(TITLES)
        with pytest.raises(QueryError):
            _search(index, "abc", k=2, n_candidates=1)


class TestCertificate:
    def test_certified_result_is_truly_optimal(self):
        index = _index(TITLES)
        query = "locality sensitve hashing"
        result = _search(index, query, k=1, n_candidates=len(TITLES))
        best_true = min(edit_distance(query, t) for t in TITLES)
        assert result.certified
        assert result.best.distance == best_true

    def test_search_until_certified(self):
        index = _index(TITLES)
        result = search_until_certified(index, "graph patern mining", k=1)
        assert result.certified
        assert result.best.sequence_id == 2


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_certified_searches_match_brute_force(data):
    """Theorem 5.2: whenever the certificate holds, the result is exact."""
    rng_seed = data.draw(st.integers(0, 10_000))
    rng = np.random.default_rng(rng_seed)
    alphabet = "abc"
    titles = [
        "".join(alphabet[int(c)] for c in rng.integers(0, 3, size=rng.integers(6, 14)))
        for _ in range(12)
    ]
    index = _index(titles, n=2)
    query = titles[int(rng.integers(0, len(titles)))]
    # Corrupt two characters.
    chars = list(query)
    for _ in range(2):
        chars[int(rng.integers(0, len(chars)))] = alphabet[int(rng.integers(0, 3))]
    query = "".join(chars)

    result = _search(index, query, k=1, n_candidates=12)
    if result.certified and result.best is not None:
        best_true = min(edit_distance(query, t) for t in titles)
        assert result.best.distance == best_true


class TestVerificationCost:
    def test_host_charged_for_verification(self):
        index = _index(TITLES)
        _search(index, TITLES[0], k=1, n_candidates=4)
        assert index.session.host.timings.get("verify") > 0

    def test_filter_limits_verifications(self):
        index = _index(TITLES)
        result = _search(index, TITLES[0], k=1, n_candidates=len(TITLES))
        # The exact match (distance 0) makes the Theorem-5.1 threshold huge,
        # so verification stops well before the whole shortlist.
        assert result.candidates_verified < len(TITLES)
