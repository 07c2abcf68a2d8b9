"""GENIE reproduction: generic inverted-index similarity search on a simulated GPU.

Reproduces "A Generic Inverted Index Framework for Similarity Search on the
GPU" (ICDE 2018). Subpackages:

* :mod:`repro.api` — the unified session layer (match models, multi-index
  device residency, one search surface per modality),
* :mod:`repro.serve` — online serving (micro-batching, admission control,
  caching, metrics) over a session,
* :mod:`repro.cluster` — sharded execution across N simulated devices
  (range/hash partitioning, concurrent shard scans, exact merge),
* :mod:`repro.plan` — the query planner every search lowers through
  (explainable plan IR, shard pruning, two-round TPUT merge, elision),
* :mod:`repro.obs` — observability (deterministic request traces on the
  virtual clock, typed metric primitives),
* :mod:`repro.gpu` — the simulated GPU/CPU substrate,
* :mod:`repro.core` — match-count model, inverted index, c-PQ, engine,
* :mod:`repro.lsh` — LSH families, re-hashing, the points-to-keywords
  transform and the tau-ANN theory (searched via ``model="ann-*"``),
* :mod:`repro.sa` — shotgun-and-assembly encoders (n-grams, words,
  relational attributes) behind the sequence/document/relational models,
* :mod:`repro.baselines` — the paper's competitor systems,
* :mod:`repro.datasets` — synthetic stand-ins for the paper's datasets,
* :mod:`repro.experiments` — the figure/table reproduction harness.
"""

__version__ = "1.2.0"

import logging as _logging

# Library logging convention: everything logs under the "repro" root
# logger, silent by default. Applications opt in with e.g.
# ``logging.getLogger("repro").setLevel(logging.DEBUG)`` plus a handler.
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.api import GenieSession, IndexHandle, MatchModel, SearchResult
from repro.core import Corpus, GenieConfig, GenieEngine, Query, TopKResult
from repro.gpu import Device, HostCpu

__all__ = [
    "Corpus",
    "Query",
    "TopKResult",
    "GenieEngine",
    "GenieConfig",
    "GenieSession",
    "IndexHandle",
    "SearchResult",
    "MatchModel",
    "Device",
    "HostCpu",
    "__version__",
]
