"""The one top-k merge and the critical-path fold of the one execution loop.

The plan executor (:mod:`repro.plan.executor`) scans a list of *sources*
— multi-loading parts swapped through one device (Section III-D), shard
slices on their own pool devices (its space-multiplexed dual), delta
segments of a mutated index — and hands every source's candidates, ids
already global, to the two pieces here that make the answer and its
latency:

* :func:`merge_shard_results` — the host merges the sources' candidates
  per query by count-desc / id-asc. Sources partition the objects, so
  every count is complete within its source and the merged top-k is
  **bit-identical** to a single unpartitioned index (ids, counts, tie
  order and Theorem 3.1 threshold). It is the only top-k merge in
  :mod:`repro.plan` and :mod:`repro.cluster`, and it has one price: an
  S-way heap merge of the already-sorted candidate lists.
* :func:`critical_path_profile` — sources on independent devices run
  concurrently, so their share of a batch's profile is the *slowest
  source's* stage profile, not the sum. Per-shard profiles are kept so
  callers (the serve layer's imbalance counters, the shard-scaling
  benchmark) can see how evenly the work spread.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import ID_DTYPE, TopKResult
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings


def merge_shard_results(
    per_shard: list[list[TopKResult | None]],
    n_queries: int,
    k: int,
    host: HostCpu,
    n_objects: int | None = None,
) -> tuple[list[TopKResult], float]:
    """Merge per-source top-k candidates into the exact global top-k.

    Args:
        per_shard: One candidate list (aligned with the query batch, ids
            global) per source; ``None`` where a source was not scanned
            for a query.
        n_queries: Batch size (needed when every source is empty).
        k: Results to keep per query.
        host: Host CPU charged for the merge (``result_merge`` stage).
        n_objects: Global corpus size; caps the threshold rank at
            ``min(k, n_objects)`` exactly as the unpartitioned selection
            does when ``k`` exceeds the corpus. ``k`` when omitted.

    Returns:
        ``(results, merge_seconds)``: the merged results (count-desc /
        global-id-asc order, thresholds re-pinned to the global k-th
        count per Theorem 3.1) and the host seconds the merge cost.
    """
    kk = min(k, int(n_objects)) if n_objects is not None else k
    fan_in = max(1.0, np.log2(max(len(per_shard), 2)))
    results: list[TopKResult] = []
    merge_ops = 0.0
    for qi in range(n_queries):
        found = [
            r for source in per_shard
            if (r := source[qi]) is not None and r.ids.size
        ]
        ids = np.concatenate([r.ids for r in found]) if found else np.empty(0, dtype=ID_DTYPE)
        counts = (
            np.concatenate([r.counts for r in found]) if found else np.empty(0, dtype=ID_DTYPE)
        )
        order = np.lexsort((ids, -counts))[:k]
        top_counts = counts[order]
        # Any object in the global top-k beats its source-mates under the
        # same order, so it survived its source's selection: the kk-th
        # merged count is the global kk-th count (Theorem 3.1's AT - 1).
        threshold = int(top_counts[kk - 1]) if 0 < kk <= top_counts.size else 0
        results.append(TopKResult(ids=ids[order], counts=top_counts, threshold=threshold))
        # Charged as an S-way heap merge of the sources' already-sorted
        # candidate lists: O(C log S), not a full O(C log C) re-sort (the
        # lexsort above is an implementation convenience, not the model).
        merge_ops += ids.size * fan_in
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
