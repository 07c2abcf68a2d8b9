"""The compiled-plan cache: repeated batch *shapes* skip planning.

Only plans whose compile reads nothing but the batch's shape are cached:
a clean sharded index whose route does not consult per-query eligibility
(:func:`~repro.plan.planner.eligibility_needed` is false — broadcast,
forced or ruled on a hash partition). For those, the planner's output is
a function of the index's partition, the session's cost coefficients and
the key ``(index, k, retrieval_k, sorted model options, route, plan,
per-query elision flags)``, so a warm lane pays **zero** compile or
``plan_route`` cost per batch. Range ``auto`` / ``pruned`` routes and
dirty (mutated) indexes compile per batch: their plans read the queries'
keywords or the live delta run.

One deliberate staleness: the priced one-round / two-round choice reads
the batch's postings *totals*, which the key does not capture — two
batches of one shape reuse one plan. Both plans are bit-identical in
results (the planner's invariant), so a hit can only be cost-suboptimal,
never wrong — the standard prepared-plan trade.

Staleness has one rule each for the two things the key leaves out:
:meth:`IndexHandle._install <repro.api.session.IndexHandle._install>`
(fit, compaction, rebalance) and ``drop`` invalidate the index's plans,
and assigning cost coefficients clears them all. Mutations and residency
are orthogonal: a mutated index stops reading the cache until compaction
reinstalls it, and an evicted shard swaps back in during execution.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import OrderedDict

from repro.errors import ConfigError

logger = logging.getLogger("repro.plan")


class PlanCache:
    """A bounded LRU of compiled plans.

    Args:
        capacity: Maximum cached plans.
    """

    def __init__(self, capacity: int = 256):
        if int(capacity) < 1:
            raise ConfigError("plan cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._plans: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._plans)

    def fetch(self, index: str, shape: tuple):
        """The cached plan of ``index`` for this batch shape, or ``None`` (a miss).

        A hit returns the plan with ``routing_ops`` zeroed: the routing
        and pricing decisions were paid when the plan was first
        compiled, so a reuse charges nothing to ``plan_route``.

        Raises:
            TypeError: ``shape`` holds an unhashable value (callers
                compile such a batch uncached).
        """
        key = (index, shape)
        try:
            compiled = self._plans.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._plans[key] = compiled  # re-insert == MRU bump
        self.hits += 1
        return dataclasses.replace(compiled, routing_ops=0.0)

    def store(self, index: str, shape: tuple, compiled) -> None:
        """Memoize a freshly compiled plan."""
        self._plans[(index, shape)] = compiled
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    def invalidate(self, index: str) -> int:
        """Drop every plan of ``index``; returns plans removed."""
        stale = [key for key in self._plans if key[0] == index]
        for key in stale:
            del self._plans[key]
        self.invalidations += len(stale)
        if stale:
            logger.debug("plan-cache invalidate index=%s plans=%d", index, len(stale))
        return len(stale)

    def clear(self) -> None:
        """Drop all plans (counters are kept)."""
        self.invalidations += len(self._plans)
        self._plans.clear()

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
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
