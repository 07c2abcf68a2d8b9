"""One bounded LRU for everything a session or server memoizes per index.

Two caches use it, both keyed by tuples whose first element is the index
name, so :meth:`LruCache.invalidate` drops exactly one index's entries:

* The session's **plan cache** (``GenieSession.plan_cache``): repeated
  batch *shapes* skip planning. Only plans whose compile reads nothing but
  the batch's shape are cached: a clean sharded index whose route does not
  consult per-query eligibility (:func:`~repro.plan.planner.eligibility_needed`
  is false — broadcast, forced or ruled on a hash partition). For those,
  the planner's output is a function of the index's partition and the key
  ``(index, k, retrieval_k, sorted model options, route, plan, per-query
  elision flags)``, so a warm lane skips the compile. Range ``auto`` /
  ``pruned`` routes and dirty (mutated) indexes compile per batch: their
  plans read the queries' keywords or the live delta run.

  :meth:`IndexHandle._install <repro.api.session.IndexHandle._install>`
  (fit, compaction, rebalance) and ``drop`` invalidate the index's plans.
* The server's **result cache** (``GenieServer.cache``): an exact repeat
  of an encoded query is answered without a device trip (key:
  :func:`repro.serve.server.make_cache_key`). The session's invalidation
  hooks drop an index's results whenever its answers may change — a fit,
  a mutation, a drop.
"""

from __future__ import annotations

import logging
from collections import OrderedDict

from repro.core.engine import count_option
from repro.errors import ConfigError

logger = logging.getLogger("repro.plan")


class LruCache:
    """A bounded LRU of per-index entries with hit / miss / eviction counters.

    Args:
        capacity: Maximum entries; the least recently used entry is evicted
            beyond it.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = count_option(capacity, "cache capacity", ConfigError)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def get(self, key: tuple):
        """The cached value for ``key`` (bumped to MRU), or ``None`` (a miss).

        Probe with ``key in cache`` to peek without touching the counters.

        Raises:
            TypeError: ``key`` holds an unhashable value (callers skip the
                cache for it); no counter moves.
        """
        try:
            value = self._entries.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._entries[key] = value  # re-insert == MRU bump
        self.hits += 1
        return value

    def put(self, key: tuple, value) -> None:
        """Insert or refresh an entry, evicting LRU entries beyond capacity."""
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, index: str) -> int:
        """Drop every entry of ``index``; returns entries removed."""
        stale = [key for key in self._entries if key[0] == index]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        if stale:
            logger.debug("cache invalidate index=%s entries=%d", index, len(stale))
        return len(stale)

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    def stats(self) -> dict:
        """Counters snapshot (deterministic key order)."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
