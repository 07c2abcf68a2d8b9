"""Sharded merge helpers: exact global top-k, critical-path latency.

Sharding is the space-multiplexed dual of Section III-D's multi-loading:
where multi-loading swaps index parts through *one* device in turn (time
on the critical path adds up part by part), sharding gives every part
its *own* simulated device and runs the batch against all shards
concurrently. The plan executor (:mod:`repro.plan.executor`) runs the
per-shard scans; this module holds the two pieces that make the answer
and its latency:

* :func:`merge_shard_results` — the host merges the shards' candidates
  per query with the deterministic count-desc / id-asc lexsort already
  used by the multi-loading merge. Shards partition the objects, so
  every count is complete within its shard and the merged top-k is
  **bit-identical** to a single unsharded index (ids, counts, and tie
  order).
* :func:`critical_path_profile` — a batch's profile is the *slowest
  shard's* stage profile plus the host-side ``result_merge``, not the
  sum over shards. Per-shard profiles are kept so callers (the serve
  layer's imbalance counters, the shard-scaling benchmark) can see how
  evenly the work spread.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import ID_DTYPE, TopKResult
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings


def merge_shard_results(
    per_shard: list[list[TopKResult]],
    global_id_maps: list[np.ndarray],
    n_queries: int,
    k: int,
    host: HostCpu,
    n_objects: int | None = None,
) -> tuple[list[TopKResult], float]:
    """Merge per-shard top-k candidates into the exact global top-k.

    Args:
        per_shard: One result list (aligned with the query batch) per
            shard that was scanned.
        global_id_maps: Per shard, the local → global object id map its
            results must be remapped through (aligned with ``per_shard``).
        n_queries: Batch size (needed when every shard is empty).
        k: Results to keep per query.
        host: Host CPU charged for the merge (``result_merge`` stage).
        n_objects: Global corpus size; caps the threshold rank at
            ``min(k, n_objects)`` exactly as the unsharded selection does
            when ``k`` exceeds the corpus. ``k`` when omitted.

    Returns:
        ``(results, merge_seconds)``: the merged results (count-desc /
        global-id-asc order, thresholds re-pinned to the global k-th
        count per Theorem 3.1) and the host seconds the merge cost.

    This deliberately parallels the multi-loading merge in the plan
    executor's serial path (:mod:`repro.plan.executor`) rather than
    sharing code with it: the legacy merge keeps its seed-pinned
    semantics (no threshold on merged results, a full re-sort cost
    model), while shards remap through gather maps, re-pin thresholds,
    and charge a heap merge. A tie-order change must be applied to both.
    """
    kk = min(k, int(n_objects)) if n_objects is not None else k
    results: list[TopKResult] = []
    merge_ops = 0.0
    for qi in range(n_queries):
        ids_parts = []
        count_parts = []
        for shard_results, global_ids in zip(per_shard, global_id_maps):
            r = shard_results[qi]
            if r.ids.size:
                ids_parts.append(global_ids[r.ids])
                count_parts.append(r.counts)
        ids = np.concatenate(ids_parts) if ids_parts else np.empty(0, dtype=ID_DTYPE)
        counts = np.concatenate(count_parts) if count_parts else np.empty(0, dtype=ID_DTYPE)
        order = np.lexsort((ids, -counts))[:k]
        top_counts = counts[order]
        # Any object in the global top-k beats its shard-mates under the
        # same order, so it survived its shard's selection: the kk-th
        # merged count is the global kk-th count (Theorem 3.1's AT - 1).
        threshold = int(top_counts[kk - 1]) if 0 < kk <= top_counts.size else 0
        results.append(TopKResult(ids=ids[order], counts=top_counts, threshold=threshold))
        # Charged as an S-way heap merge of the shards' already-sorted
        # candidate lists: O(C log S), not a full O(C log C) re-sort (the
        # lexsort below is an implementation convenience, not the model).
        merge_ops += ids.size * max(1.0, np.log2(max(len(per_shard), 2)))
    merge_seconds = host.charge_ops(merge_ops, stage="result_merge")
    return results, merge_seconds


def critical_path_profile(shard_profiles: list[StageTimings]) -> StageTimings:
    """The slowest shard's profile — the latency of a concurrent scan.

    Shards run on independent device timelines, so a batch completes when
    the slowest shard does; the critical path is one shard's whole stage
    profile, not a stage-wise sum or max over shards. Ties break to the
    earliest shard position (deterministic).
    """
    slowest: StageTimings | None = None
    for profile in shard_profiles:
        if slowest is None or profile.query_total() > slowest.query_total():
            slowest = profile
    return slowest.copy() if slowest is not None else StageTimings()
