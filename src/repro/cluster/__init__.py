"""Sharded multi-device execution: partition the corpus, scan in parallel.

``repro.cluster`` is the scale-*out* axis of the reproduction. PR 1 made
one device fast (the vectorized batch pipeline), ``repro.serve`` made it
serve a stream; this package partitions a corpus across **N simulated
devices** and answers every query with an exact global top-k:

* :class:`~repro.cluster.plan.ShardPlan` — the one partition every
  fitted index holds (``handle.plan``): object-range or seeded hash
  slices, each a :class:`~repro.cluster.plan.ShardSlice` with its rows,
  its local↔global id map and its inverted index; an unpartitioned index
  is one slice, multi-loading parts are range slices sharing a device,
* :class:`~repro.cluster.plan.Placement` — the value behind
  ``GenieSession.create_index(..., shards=N[, replicas=R])``: shards,
  replicas, partition strategy/seed and the current shard → pool-device
  layout. The session's one :class:`~repro.api.handle.IndexHandle`
  holds it as ``handle.placement`` and partitions, places, dispatches
  and heals from it (per-shard residency accounting, per-shard profile
  slices on every result),
* :func:`~repro.cluster.executor.merge_shard_results` /
  :func:`~repro.cluster.executor.critical_path_profile` — the one exact
  top-k merge and the slowest-source latency fold of the plan executor's
  one loop (:mod:`repro.plan.executor`). Shards are one kind of scan
  source in that loop; multi-loading parts and delta segments are the
  others, and all of them end in this merge.

Results are **bit-identical** to a single unsharded index (ids, counts,
tie order, thresholds): shards partition the objects, so match counts are
complete within each shard and the candidate merge is exact — Section
III-D's multi-loading argument, applied in space instead of time, which
is why both run the same code. Simulated latency is the *critical path*
(slowest shard + host merge), which is what makes sharding a throughput
multiplier.

Quickstart::

    from repro.api import GenieSession

    session = GenieSession()
    docs = session.create_index(texts, model="document", name="tweets",
                                shards=4, shard_strategy="hash")
    result = docs.search(["gpu similarity search"], k=10)
    result.profile.query_total()     # critical path: slowest shard + merge
    [p.query_total() for p in result.shard_profiles]  # per-shard slices
"""

from repro.cluster.executor import critical_path_profile, merge_shard_results
from repro.cluster.plan import PARTITION_STRATEGIES, Placement, ShardPlan, ShardSlice, SliceCopy

__all__ = [
    "ShardPlan",
    "ShardSlice",
    "SliceCopy",
    "PARTITION_STRATEGIES",
    "Placement",
    "merge_shard_results",
    "critical_path_profile",
]
