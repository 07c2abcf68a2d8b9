"""Explainable query planning: one compiled plan behind every search.

``repro.plan`` puts every way a search is issued —
:meth:`IndexHandle.search <repro.api.handle.IndexHandle.search>` on a
serial or a sharded (:class:`~repro.cluster.plan.Placement`) index, and
:class:`~repro.serve.server.GenieServer` batch dispatch — behind one
logical/physical plan IR::

    Encode → Scan | ShardScan(shards…) → Merge(one-round | two-round-tput)
           → Finalize

and a rule-based planner with three result-preserving rules:

* **skip elision** — unanswerable (skip-empty) queries drop out of the
  scan node (the serve cache elides answered queries one level up, at
  admission),
* **shard pruning** — ``"range"``-partitioned indexes route the query
  batch only to the shards whose keyword bounds can contain candidates,
  instead of broadcasting to all N,
* **two-round TPUT merge** — fetch ``ceil(2k/N)`` per shard first, top
  up only where a shard's round-one threshold proves it necessary
  (opt-in via ``plan="two-round"``; ``plan="auto"`` is one-round).

Every plan is explainable and forceable::

    print(handle.explain(raw_queries, k=10).render())
    handle.search(raw_queries, k=10, route="broadcast")   # force a strategy
    handle.search(raw_queries, k=10, plan="two-round")    # force TPUT merge

Results are **bit-identical** across every strategy (ids, counts, tie
order, thresholds — property-tested in ``tests/plan/``); the plan only
changes how much simulated time the answer costs.

Nothing is priced: the route and the merge are the rules above. The
session's plan cache (a :class:`~repro.plan.cache.LruCache`, the same LRU
the server keeps its results in) memoizes broadcast plans of clean sharded
indexes so repeated batch shapes skip planning.
"""

from repro.plan.cache import LruCache
from repro.plan.executor import execute_plan
from repro.plan.nodes import (
    EncodeNode,
    FinalizeNode,
    MergeNode,
    PlanNode,
    RoutingSummary,
    ScanNode,
    ShardScanNode,
)
from repro.plan.planner import (
    PLAN_CHOICES,
    ROUTE_CHOICES,
    CompiledPlan,
    compile_search,
    eligibility_needed,
    first_round_k_for,
    route_queries,
    validate_plan_args,
)

__all__ = [
    "PlanNode",
    "EncodeNode",
    "ScanNode",
    "ShardScanNode",
    "MergeNode",
    "FinalizeNode",
    "RoutingSummary",
    "CompiledPlan",
    "compile_search",
    "execute_plan",
    "route_queries",
    "eligibility_needed",
    "first_round_k_for",
    "validate_plan_args",
    "ROUTE_CHOICES",
    "PLAN_CHOICES",
    "LruCache",
]
