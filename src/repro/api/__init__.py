"""Unified GENIE session API: one search surface for every modality.

This package is the public entry point of the reproduction, built on
three concepts:

* :class:`~repro.api.models.MatchModel` — how raw data becomes keywords
  (one adapter per modality, extensible via
  :func:`~repro.api.models.register_model`),
* :class:`~repro.api.session.GenieSession` — the shared device/host with a
  device-memory budget and multi-index residency (attach / LRU-evict),
* :class:`~repro.api.handle.IndexHandle` — one named index with the
  uniform ``search(raw_queries, k=..., batch_size=...)`` surface returning
  a :class:`~repro.api.handle.SearchResult`. There is one handle type:
  ``create_index(..., shards=N[, replicas=R])`` gives it a
  :class:`~repro.cluster.plan.Placement` (``handle.placement``, ``None``
  when unsharded) that partitioning, residency, dispatch and healing read.

Paper-section map:

========  ==================================================================
Section   Entry point
========  ==================================================================
II-A      The match-count model: ``MatchModel.encode_corpus`` /
          ``encode_queries`` produce the keyword sets GENIE counts over;
          ``model="raw"`` exposes it directly.
III-D     Multiple loading: ``create_index(..., part_size=...)`` partitions
          a corpus; the session swaps parts through device memory and
          merges per-part top-k exactly (``swap_parts=True`` reproduces the
          paper's protocol, the default keeps parts resident under the
          session's ``memory_budget`` with LRU eviction).
IV        Tau-ANN on LSH signatures: ``model="ann-e2lsh"`` / ``"ann-rbh"``
          / ``"ann-minhash"`` / ``"ann-simhash"`` (payload carries the
          ``c/m`` similarity estimates of Eqn. 7).
V-A       Sequence search: ``model="sequence"`` (shortlist + Algorithm-2
          edit-distance verification, Theorem-5.2 certificates in the
          payload); ``model="ngram"`` for raw common-gram counting.
V-B       Short documents: ``model="document"``.
V-C       Relational tables: ``model="relational"`` with an
          ``AttributeSpec`` schema.
Table IV  Device-memory accounting: the session's ``memory_budget`` bounds
          index residency; per-batch query state is still charged by the
          engine.
========  ==================================================================

Quickstart::

    from repro.api import GenieSession

    session = GenieSession(memory_budget=256 << 20)
    tweets = session.create_index(texts, model="document", name="tweets")
    result = tweets.search(["gpu similarity search"], k=10)
    result[0].as_pairs()        # [(doc_id, shared words), ...]
    result.profile.query_total()  # simulated seconds, per stage inside

Every search compiles to an explicit plan (:mod:`repro.plan`):
``handle.explain(raw_queries, k=...)`` renders it without executing, and
``search(..., route=..., plan=...)`` forces a routing/merge strategy with
bit-identical results.
"""

from repro.api.models import (
    MODEL_REGISTRY,
    AnnModel,
    BaseMatchModel,
    DocumentModel,
    MatchModel,
    NgramModel,
    RawModel,
    RelationalModel,
    SequenceModel,
    available_models,
    register_model,
    resolve_model,
)
from repro.api.handle import IndexHandle, SearchResult
from repro.api.residency import ResidencyEvent, ResidencyLog
from repro.api.session import GenieSession

__all__ = [
    "GenieSession",
    "IndexHandle",
    "SearchResult",
    "ResidencyEvent",
    "ResidencyLog",
    "MatchModel",
    "BaseMatchModel",
    "RawModel",
    "RelationalModel",
    "DocumentModel",
    "SequenceModel",
    "NgramModel",
    "AnnModel",
    "register_model",
    "resolve_model",
    "available_models",
    "MODEL_REGISTRY",
]
