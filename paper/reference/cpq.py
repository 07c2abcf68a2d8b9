"""The Count Priority Queue (c-PQ), assembled (Section III-C).

c-PQ replaces the per-query Count Table with:

* a :class:`~paper.reference.bitmap_counter.BitmapCounter` (all objects, a few
  bits each),
* a :class:`~paper.reference.zipper.Gate` (ZipperArray + AuditThreshold), and
* a :class:`~paper.reference.hash_table.RobinHoodHashTable` holding only the
  few objects that ever passed the Gate.

:meth:`CountPriorityQueue.update` is Algorithm 1 verbatim; after the scan,
Theorem 3.1 guarantees the top-k live in the hash table and that the k-th
match count equals ``AT - 1``, so :meth:`select_topk` needs a single table
scan and no sort over candidates.

This class is the *reference* (per-update) implementation used for
correctness; the batched engine reproduces its outcome vectorized (see
:mod:`repro.core.scan_kernel`) and its cost analytically.
"""

from __future__ import annotations

import numpy as np

from paper.reference.bitmap_counter import BitmapCounter
from paper.reference.hash_table import RobinHoodHashTable
from paper.reference.zipper import Gate
from repro.core.engine import hash_table_capacity
from repro.core.types import TopKResult
from repro.errors import ConfigError


class CountPriorityQueue:
    """Per-query c-PQ instance.

    Args:
        n_objects: Objects in the (loaded part of the) dataset.
        k: Result size.
        count_bound: Maximum possible match count for the query (e.g. the
            number of LSH functions, or the number of query items).
        bits: Bitmap-Counter width override (for the bitmap-width ablation).
        expired_overwrite: Forwarded to the Robin Hood table.
    """

    def __init__(
        self,
        n_objects: int,
        k: int,
        count_bound: int,
        bits: int | None = None,
        expired_overwrite: bool = True,
    ):
        if k < 1:
            raise ConfigError("k must be >= 1")
        if count_bound < 1:
            raise ConfigError("count_bound must be >= 1")
        self.n_objects = int(n_objects)
        self.k = int(k)
        self.count_bound = int(count_bound)
        self.bc = BitmapCounter(n_objects, count_bound, bits=bits)
        self.gate = Gate(k, count_bound)
        self.ht = RobinHoodHashTable(
            hash_table_capacity(k, count_bound), expired_overwrite=expired_overwrite
        )
        self.updates = 0

    @property
    def audit_threshold(self) -> int:
        """Current AuditThreshold of the Gate."""
        return self.gate.audit_threshold

    def update(self, obj_id: int) -> None:
        """Algorithm 1: process one postings entry for this query.

        Increments the object's Bitmap Counter, offers the new value to the
        Gate, and on a pass inserts/updates the Hash-Table entry.
        """
        self.updates += 1
        new_count = self.bc.increment(obj_id)
        expire_below = self.gate.audit_threshold - 1
        if self.gate.offer(new_count):
            self.ht.put(obj_id, new_count, expire_below=expire_below)

    def update_many(self, obj_ids: np.ndarray) -> None:
        """Apply :meth:`update` to each id in order."""
        for obj_id in np.asarray(obj_ids).reshape(-1):
            self.update(int(obj_id))

    def select_topk(self) -> TopKResult:
        """Select the top-k by a single scan of the Hash Table (Theorem 3.1).

        All objects with count > ``AT - 1`` are in the result; remaining
        slots are filled from entries with count == ``AT - 1`` (ties broken
        by ascending id, for determinism). If fewer than k objects have a
        positive count the result is shorter than k.
        """
        threshold = self.gate.audit_threshold - 1
        keys, values = self.ht.scan(min_value=max(threshold, 1))
        order = np.lexsort((keys, -values))
        keys, values = keys[order], values[order]
        return TopKResult(ids=keys[: self.k], counts=values[: self.k], threshold=threshold)

    def memory_bytes(self) -> int:
        """Per-query device footprint: BC + Hash Table + Gate."""
        return self.bc.nbytes + self.ht.nbytes + int(self.gate._za.nbytes)
