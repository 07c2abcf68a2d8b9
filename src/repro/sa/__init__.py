"""Shotgun-and-Assembly encoders: sequences, documents, relational tables.

The n-gram / word / ``(attribute, value)`` shredding primitives and result
dataclasses that the session's ``"sequence"``, ``"document"`` and
``"relational"`` match models are built from. Typical use::

    from repro import GenieSession

    index = GenieSession().create_index(titles, model="sequence", n=3)
    result = index.search(["approximate string matcing"], k=1, n_candidates=32).payload[0]
    print(result.best, result.certified)
"""

from repro.sa.document import DEFAULT_STOPWORDS, WordVocabulary, tokenize
from repro.sa.edit_distance import edit_distance, edit_distance_ops
from repro.sa.ngram import NgramVocabulary, common_gram_count, count_filter_bound, ordered_ngrams
from repro.sa.relational import PAPER_NUM_BINS, AttributeSpec, Discretizer
from repro.sa.sequence import (
    PAPER_K_CANDIDATES,
    SequenceMatch,
    SequenceSearchResult,
    search_until_certified,
)

__all__ = [
    "ordered_ngrams",
    "common_gram_count",
    "count_filter_bound",
    "NgramVocabulary",
    "edit_distance",
    "edit_distance_ops",
    "SequenceMatch",
    "SequenceSearchResult",
    "search_until_certified",
    "PAPER_K_CANDIDATES",
    "WordVocabulary",
    "tokenize",
    "DEFAULT_STOPWORDS",
    "AttributeSpec",
    "Discretizer",
    "PAPER_NUM_BINS",
]
