"""Synthetic stand-ins for the paper's datasets (see README.md, "Repo map")."""

from repro.datasets.documents import make_document_queries, make_tweets_like, make_vocabulary
from repro.datasets.registry import REGISTRY, DatasetInfo, dataset_names, load
from repro.datasets.relational import (
    ADULT_SCHEMA,
    adult_schema,
    make_adult_like,
    make_exact_match_queries,
    make_range_queries,
)
from repro.datasets.sequences import make_dblp_like, make_query_set, modify_sequence
from repro.datasets.synthetic import PointDataset, make_ocr_like, make_sift_like, true_knn

__all__ = [
    "PointDataset",
    "make_sift_like",
    "make_ocr_like",
    "true_knn",
    "make_dblp_like",
    "modify_sequence",
    "make_query_set",
    "make_tweets_like",
    "make_vocabulary",
    "make_document_queries",
    "make_adult_like",
    "adult_schema",
    "ADULT_SCHEMA",
    "make_exact_match_queries",
    "make_range_queries",
    "REGISTRY",
    "DatasetInfo",
    "dataset_names",
    "load",
]
