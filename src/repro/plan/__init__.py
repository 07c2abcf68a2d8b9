"""Explainable query planning: one compiled plan behind every search.

``repro.plan`` puts every way a search is issued —
:meth:`IndexHandle.search <repro.api.session.IndexHandle.search>` on a
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
  (opt-in via ``plan="two-round"``, or chosen by price — see below).

Every plan is explainable and forceable::

    print(handle.explain(raw_queries, k=10).render())
    handle.search(raw_queries, k=10, route="broadcast")   # force a strategy
    handle.search(raw_queries, k=10, plan="two-round")    # force TPUT merge

Results are **bit-identical** across every strategy (ids, counts, tie
order, thresholds — property-tested in ``tests/plan/``); the plan only
changes how much simulated time the answer costs.

The route is always a rule. The merge is priced once
:meth:`GenieSession.calibrate_cost_model
<repro.api.session.GenieSession.calibrate_cost_model>` has fitted the
:class:`~repro.plan.cost.CostModel`'s match and top-up coefficients:
``plan="auto"`` then picks the cheaper of one-round and two-round per
batch — transfers, select and merge priced by the simulator itself
(:meth:`Device.price <repro.gpu.device.Device.price>`), only the match
stage by the fit (``cost≈`` lines appear in ``explain()``) — and the
session's :class:`~repro.plan.cache.PlanCache` memoizes broadcast plans
of clean sharded indexes so repeated batch shapes skip planning — and
its ``plan_route`` host charge — entirely.
"""

from repro.plan.cache import PlanCache
from repro.plan.cost import (
    COEFFICIENT_NAMES,
    PREDICTED_STAGES,
    CostModel,
    PlanPrice,
    calibrate_coefficients,
    calibrate_session,
    concentration,
    postings_for_keywords,
    serial_share,
    shard_block_matrix,
    shard_postings_matrix,
)
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
    "CostModel",
    "PlanPrice",
    "PlanCache",
    "calibrate_coefficients",
    "calibrate_session",
    "concentration",
    "postings_for_keywords",
    "serial_share",
    "shard_block_matrix",
    "shard_postings_matrix",
    "COEFFICIENT_NAMES",
    "PREDICTED_STAGES",
]
