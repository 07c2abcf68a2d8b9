"""Exact-match query-result cache for the serving layer.

Online traffic repeats itself (hot queries, retries, fan-out duplicates);
GENIE's match kernel is deterministic for a fixed index, so an exact
repeat can be answered without a device trip at all. The cache is a plain
LRU keyed on the *encoded* query — ``(index, encoded items, k, options)``,
the items as :meth:`QueryBatch.key_bytes
<repro.core.types.QueryBatch.key_bytes>` — so two raw queries that encode
identically share an entry. Models
whose ``finalize`` hook reads the raw query (``finalize_uses_raw``, e.g.
sequence search verifying edit distance against the raw string) add the
raw query to the key, because their encoding is not injective; when such
a raw query is unhashable the server skips caching that request rather
than risk serving another query's payload.

Invalidation is event-driven, not TTL-driven: the session fires an
invalidation hook whenever an index is refit or dropped
(:meth:`repro.api.session.GenieSession.add_invalidation_hook`), and the
server forwards it to :meth:`QueryResultCache.invalidate`, which removes
exactly that index's entries. Cached results are therefore always
bit-identical to what a direct search would return.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from repro.core.types import QueryBatch
from repro.errors import ConfigError


def make_cache_key(index: str, query: QueryBatch, k: int, opts_key: tuple, raw=None) -> tuple:
    """The exact-match cache key for one encoded request.

    Args:
        index: Index name the request targets.
        query: The request's one-query batch (its items define the match).
        k: Results requested.
        opts_key: Canonicalized search options, e.g.
            ``(("n_candidates", 48),)`` — produced with
            ``tuple(sorted(opts.items()))``.
        raw: The raw query, included (and required hashable) when the
            model's ``finalize`` reads it (``finalize_uses_raw``):
            encoding is not injective — e.g. the n-gram encoder drops
            unseen grams — so two raw queries with equal encodings could
            otherwise be served each other's verified payload.
    """
    return (index, query.key_bytes(0), int(k), opts_key, raw)


class QueryResultCache:
    """A bounded LRU of per-query search results with hit/miss counters.

    Args:
        capacity: Maximum cached entries; the least recently used entry is
            evicted beyond it.
    """

    def __init__(self, capacity: int = 1024):
        if int(capacity) < 1:
            raise ConfigError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple):
        """The cached value for ``key`` (bumped to MRU), or ``None``.

        Counts a hit or a miss; probe with ``key in cache`` to peek
        without touching the counters.
        """
        try:
            value = self._entries.pop(key)
        except KeyError:
            self.misses += 1
            return None
        self._entries[key] = value  # re-insert == MRU bump
        self.hits += 1
        return value

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def put(self, key: tuple, value) -> None:
        """Insert/refresh an entry, evicting LRU entries beyond capacity."""
        self._entries.pop(key, None)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, index: str) -> int:
        """Drop every entry of ``index`` (fired on ``fit()``/``drop()``).

        Returns the number of entries removed.
        """
        stale = [key for key in self._entries if key[0] == index]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
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
