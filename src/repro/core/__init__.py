"""GENIE core: the match-count model, inverted index, batch scan and engine.

Typical use::

    from repro.core import Corpus, GenieConfig, GenieEngine, Query

    engine = GenieEngine(config=GenieConfig(k=10)).fit(Corpus(objects))
    results = engine.query([Query.from_keywords(sig) for sig in signatures])

The engine prices the c-PQ structures (Bitmap Counter, Gate, Robin Hood
Hash Table) analytically and never builds them. The structures themselves,
the per-query specification the scan is tested against and the Count Table
they replace live outside the package, in the repository's
``paper/reference``. The brute-force oracle,
:mod:`repro.core.match_count`, is deliberately not imported here.
"""

from repro.core.batch_scan import BatchScanPlan, plan_batch_scan
from repro.core.engine import (
    GenieConfig,
    GenieEngine,
    bits_for_bound,
    hash_table_capacity,
    per_query_device_bytes,
)
from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch, TopKResult

__all__ = [
    "Corpus",
    "Query",
    "QueryBatch",
    "TopKBatch",
    "TopKResult",
    "GenieEngine",
    "GenieConfig",
    "InvertedIndex",
    "LoadBalanceConfig",
    "plan_batch_scan",
    "BatchScanPlan",
    "bits_for_bound",
    "hash_table_capacity",
    "per_query_device_bytes",
]
