"""The compiled-plan cache: repeated query *shapes* skip planning.

Steady-state serving traffic repeats shapes, not just exact queries: a
different age-band value produces a different result (the query-result
cache misses) but often the *same plan* — same directives, same ``k``,
same per-query shard eligibility. Compiling that plan again re-runs the
routing membership test and (when calibrated) the merge-pricing feature
pass, host work charged to ``plan_route`` on every batch. This cache
memoizes the finished :class:`~repro.plan.planner.CompiledPlan` so a
warm lane pays **zero** compile or ``plan_route`` cost per batch.

Correctness rests on the key being everything the planner's output is a
function of:

* the index name and its ``fit_epoch`` (a refit changes the shard
  keyword tables), the session's cost epoch (recalibration changes the
  pricing), shard count and partition strategy (a re-declared index
  must miss), ``k`` / ``retrieval_k`` / sorted model options, and the
  normalized ``route``/``plan`` directives;
* per query, its *eligibility bucket*: the exact bitmask of shards its
  keywords appear in, memoized per query identity
  (:meth:`QueryBatch.key_bytes <repro.core.types.QueryBatch.key_bytes>`)
  in a second-level LRU.
  Exact-by-construction — a coarser bucket (keyword bounds, hashes)
  could alias two batches whose plans route differently, and a reused
  wrong route would drop results. When any query's bucket is not
  memoized yet the batch is a miss, the fresh compile provides the
  buckets, and the shape is warm from then on. Plans whose route never
  consults eligibility (broadcast: forced, or ruled on a hash partition)
  key on the per-query elision flag alone.

One deliberate staleness: the priced one-round / two-round choice reads
the batch's postings *totals*, which the bucket signature does not capture — two
batches with identical eligibility but different postings reuse one
plan. Both plans are bit-identical in results (the planner's
invariant), so a hit can only be cost-suboptimal, never wrong — the
standard prepared-plan trade, and the price of skipping the pricing
pass entirely.

Invalidation is event-driven through the session's existing hook
machinery (``fit``/``drop`` fire it), and residency is orthogonal: an
evicted shard swaps back in during execution, the *plan* stays valid.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import OrderedDict

from repro.errors import ConfigError

logger = logging.getLogger("repro.plan")

#: Memoized per-query eligibility buckets a :class:`PlanCache` retains.
BUCKET_CAPACITY = 8192


class PlanCache:
    """A bounded LRU of compiled plans plus a query-bucket memo.

    Args:
        capacity: Maximum cached plans (batch-level entries).
    """

    def __init__(self, capacity: int = 256):
        if int(capacity) < 1:
            raise ConfigError("plan cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._plans: OrderedDict[tuple, object] = OrderedDict()
        self._buckets: OrderedDict[tuple, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._plans)

    # ------------------------------------------------------------------
    # signatures

    def _signature(self, index, fit_epoch, needs_buckets, queries):
        """Per-query shape signature, or ``None`` if a bucket is cold."""
        alive = (queries.items_per_query > 0).tolist()
        if not needs_buckets:
            return tuple((flag, None) for flag in alive)
        signature = []
        for i, flag in enumerate(alive):
            key = (index, fit_epoch, queries.key_bytes(i))
            mask = self._buckets.get(key)
            if mask is None:
                return None
            self._buckets.move_to_end(key)
            signature.append((flag, mask))
        return tuple(signature)

    # ------------------------------------------------------------------
    # lookup / store

    def fetch(self, *, index, fit_epoch, shape, needs_buckets, queries):
        """The cached plan for this batch shape, or ``None`` (a miss).

        A hit returns the plan with ``routing_ops`` zeroed: the routing
        and pricing decisions were paid when the plan was first
        compiled, so a reuse charges nothing to ``plan_route``.
        """
        signature = self._signature(index, fit_epoch, needs_buckets, queries)
        if signature is None:
            self.misses += 1
            return None
        key = (index, fit_epoch, shape, signature)
        try:
            compiled = self._plans.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._plans[key] = compiled  # re-insert == MRU bump
        self.hits += 1
        return dataclasses.replace(compiled, routing_ops=0.0)

    def store(self, *, index, fit_epoch, shape, needs_buckets, queries, compiled) -> None:
        """Memoize a freshly compiled plan (and its query buckets)."""
        masks: list = [None] * len(queries)
        if needs_buckets:
            if compiled.query_buckets is None:
                return  # the planner computed no exact eligibility: uncacheable
            masks = [int(mask) for mask in compiled.query_buckets]
            for i, mask in enumerate(masks):
                key = (index, fit_epoch, queries.key_bytes(i))
                self._buckets.pop(key, None)
                self._buckets[key] = mask
            while len(self._buckets) > BUCKET_CAPACITY:
                self._buckets.popitem(last=False)
        signature = tuple(zip((queries.items_per_query > 0).tolist(), masks))
        key = (index, fit_epoch, shape, signature)
        self._plans.pop(key, None)
        self._plans[key] = compiled
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    # ------------------------------------------------------------------
    # invalidation

    def invalidate(self, index: str) -> int:
        """Drop every plan and bucket of ``index``; returns plans removed.

        Wired to the session's invalidation hooks, so ``fit()`` (epoch
        bump) and ``drop()`` both land here. The epoch is in the key too
        — invalidation keeps the cache small, the epoch keeps it right.
        """
        stale = [key for key in self._plans if key[0] == index]
        for key in stale:
            del self._plans[key]
        stale_buckets = [key for key in self._buckets if key[0] == index]
        for key in stale_buckets:
            del self._buckets[key]
        self.invalidations += len(stale)
        if stale or stale_buckets:
            logger.debug(
                "plan-cache invalidate index=%s plans=%d buckets=%d",
                index, len(stale), len(stale_buckets),
            )
        return len(stale)

    def clear(self) -> None:
        """Drop all plans and buckets (counters are kept)."""
        self.invalidations += len(self._plans)
        self._plans.clear()
        self._buckets.clear()

    def stats(self) -> dict:
        """Counters snapshot (deterministic key order).

        ``plan_cache_size`` duplicates ``entries`` under the gauge name
        the serve layer's ``ServeMetrics.snapshot()`` exports, so
        dashboards can join the two surfaces on one key.
        """
        return {
            "capacity": self.capacity,
            "entries": len(self._plans),
            "plan_cache_size": len(self._plans),
            "buckets": len(self._buckets),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
