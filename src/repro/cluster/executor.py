"""The one top-k merge and the critical-path fold of the one execution loop.

The plan executor (:mod:`repro.plan.executor`) scans a list of *sources*
— multi-loading parts swapped through one device (Section III-D), shard
slices on their own pool devices (its space-multiplexed dual), delta
segments of a mutated index — and hands every source's candidates, ids
already global, to the two pieces here that make the answer and its
latency:

* :func:`merge_shard_results` — the host merges the sources' candidates
  per query by count-desc / id-asc. A source hands over one query-aligned
  :class:`~repro.core.types.TopKBatch` (an empty segment where it was not
  scanned for a query); :func:`pool_candidates` regroups all of them per
  query with one segmented sort. Sources partition the objects, so
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

from repro.core.types import ID_DTYPE, TopKBatch, csr_offsets, ragged_slices
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings


def pool_candidates(per_source: list[TopKBatch], n_queries: int) -> TopKBatch:
    """Every query's candidates from all sources as one ranked pool.

    One segmented sort over the concatenated sources: query ``q`` of the
    returned batch holds what every source found for ``q``, count-desc /
    id-asc (equal entries keep source order). Thresholds are not pooled.
    """
    stacked = TopKBatch.concat(per_source)
    ids, counts = stacked.ids, stacked.counts
    query = np.tile(np.arange(n_queries, dtype=ID_DTYPE), len(per_source)).repeat(stacked.sizes)
    top, id_bits = int(counts.max(initial=0)), int(ids.max(initial=0)).bit_length()
    if (n_queries - 1).bit_length() + top.bit_length() + id_bits <= 63:
        # Fused (query, count-desc, id) keys: each source's segments are
        # sorted runs of them, so one stable sort *is* the S-way merge.
        order = np.argsort((((query << top.bit_length()) | (top - counts)) << id_bits) | ids, kind="stable")
    else:
        order = np.lexsort((ids, -counts, query))
    offsets = csr_offsets(stacked.sizes.reshape(len(per_source), n_queries).sum(axis=0))
    return TopKBatch(ids[order], counts[order], offsets, np.zeros(n_queries, dtype=ID_DTYPE))


def merge_shard_results(
    per_shard: list[TopKBatch],
    n_queries: int,
    k: int,
    host: HostCpu,
    n_objects: int | None = None,
) -> tuple[TopKBatch, float]:
    """Merge per-source top-k candidates into the exact global top-k.

    Args:
        per_shard: One candidate batch (aligned with the query batch, ids
            global) per source; an empty segment where a source was not
            scanned for a query.
        n_queries: Batch size.
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
    pool = pool_candidates(per_shard, n_queries)
    pooled = pool.sizes
    sizes = np.minimum(pooled, k)
    top = ragged_slices(pool.offsets[:-1], sizes)
    # Any object in the global top-k beats its source-mates under the
    # same order, so it survived its source's selection: the kk-th
    # merged count is the global kk-th count (Theorem 3.1's AT - 1).
    thresholds = np.zeros(n_queries, dtype=ID_DTYPE)
    if kk > 0:
        ranked = pooled >= kk
        thresholds[ranked] = pool.counts[pool.offsets[:-1][ranked] + (kk - 1)]
    merged = TopKBatch(pool.ids[top], pool.counts[top], csr_offsets(sizes), thresholds)
    # Charged as an S-way heap merge of the sources' already-sorted
    # candidate lists: O(C log S), not a full O(C log C) re-sort (the
    # lexsort is an implementation convenience, not the model) — one
    # term per query, accumulated in query order.
    merge_ops = float(np.cumsum(pooled * fan_in)[-1]) if n_queries else 0.0
    return merged, host.charge_ops(merge_ops, stage="result_merge")


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
