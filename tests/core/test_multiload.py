"""Tests for the multi-loading strategy (``part_size=`` / ``swap_parts=True``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.types import Corpus, Query
from repro.errors import ConfigError, QueryError


def _answer(result):
    return result.ids.tolist(), result.counts.tolist(), result.threshold


def _multiload(corpus, part_size, config=None):
    """The paper's protocol: parts swap through one device, one at a time."""
    return GenieSession(config=config).create_index(
        corpus, model="raw", part_size=part_size, swap_parts=True
    )


class TestMultiLoad:
    def test_partitioning(self):
        corpus = Corpus([[i % 5] for i in range(10)])
        assert _multiload(corpus, 3).num_parts == 4

    def test_results_match_single_index(self):
        corpus = Corpus([[i % 6, 6 + (i % 4)] for i in range(30)])
        queries = [Query.from_keywords([0, 6]), Query.from_keywords([3, 8])]
        single = GenieEngine(config=GenieConfig(k=5)).fit(corpus)
        multi = _multiload(corpus, 7, GenieConfig(k=5))
        for s, m in zip(single.query(queries), multi.search(queries).results):
            assert _answer(s) == _answer(m)

    def test_global_ids_restored(self):
        # Object 25 (in the second part) must be reported with its global id.
        corpus = Corpus([[0]] * 20 + [[1]] * 10)
        multi = _multiload(corpus, 20, GenieConfig(k=1))
        result = multi.search([Query.from_keywords([1])])[0]
        assert 20 <= int(result.ids[0]) < 30

    def test_profile_includes_transfer_and_merge(self):
        corpus = Corpus([[i % 3] for i in range(12)])
        multi = _multiload(corpus, 4, GenieConfig(k=2))
        profile = multi.search([Query.from_keywords([0])]).profile
        assert profile.get("index_transfer") > 0
        assert profile.get("result_merge") > 0
        assert multi.resident_parts == 0  # every part was swapped back out

    def test_errors(self):
        with pytest.raises(ConfigError):
            _multiload(Corpus([[0]]), 0)
        with pytest.raises(QueryError):
            GenieSession().declare_index("raw", part_size=1, swap_parts=True).search(
                [Query.from_keywords([0])]
            )
        multi = _multiload(Corpus([[0]]), 1)
        with pytest.raises(QueryError):
            multi.search([])

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=4), min_size=2, max_size=25),
        st.lists(st.integers(0, 9), min_size=1, max_size=5),
        st.integers(1, 8),
        st.integers(1, 4),
    )
    def test_equivalence_random(self, raw_objects, keywords, part_size, k):
        corpus = Corpus(raw_objects)
        query = Query.from_keywords(keywords)
        single = GenieEngine(config=GenieConfig(k=k)).fit(corpus)
        multi = _multiload(corpus, part_size, GenieConfig(k=k))
        assert _answer(single.query([query])[0]) == _answer(multi.search([query])[0])
