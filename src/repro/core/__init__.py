"""GENIE core: the match-count model, inverted index, c-PQ and engine.

Typical use::

    from repro.core import Corpus, GenieConfig, GenieEngine, Query

    engine = GenieEngine(config=GenieConfig(k=10)).fit(Corpus(objects))
    results = engine.query([Query.from_keywords(sig) for sig in signatures])

The per-query specification the scan is tested against (``topk_from_counts``,
``plan_query_scan``, the Algorithm-1 ``reference_query``, ...) is
:mod:`repro.core.reference`; it is deliberately not imported here.
"""

from repro.core.batch_scan import BatchScanPlan, plan_batch_scan
from repro.core.bitmap_counter import BitmapCounter, bits_for_bound
from repro.core.count_table import count_table_batch_bytes
from repro.core.cpq import CountPriorityQueue, hash_table_capacity
from repro.core.engine import GenieConfig, GenieEngine, per_query_device_bytes
from repro.core.hash_table import RobinHoodHashTable
from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.match_count import brute_force_topk, match_count, match_counts_all
from repro.core.spq_select import spq_topk
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch, TopKResult
from repro.core.zipper import Gate

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
    "CountPriorityQueue",
    "BitmapCounter",
    "Gate",
    "RobinHoodHashTable",
    "match_count",
    "match_counts_all",
    "brute_force_topk",
    "plan_batch_scan",
    "BatchScanPlan",
    "spq_topk",
    "bits_for_bound",
    "hash_table_capacity",
    "count_table_batch_bytes",
    "per_query_device_bytes",
]
