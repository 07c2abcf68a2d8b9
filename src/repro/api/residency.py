"""Device residency: the session swaps slice copies through device memory on demand.

Attaching a :class:`~repro.cluster.plan.SliceCopy` pays the paper's
``index_transfer`` stage, and when the budget is exceeded the
least-recently-used resident copy is evicted. This generalizes the
multi-loading strategy of Section III-D — one oversized index
(``part_size=...``) and several small indexes of different modalities are
the same residency problem — and is how the session serves multi-tenant
traffic from a single card (Table IV's memory accounting bounds what fits
next to the queries). :class:`Residency` is the one place a copy is attached
or released; each transition is a :class:`ResidencyEvent`.
"""

from __future__ import annotations

import logging
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.cluster.plan import SliceCopy
from repro.core.engine import count_option
from repro.errors import ConfigError, GpuOutOfMemoryError

logger = logging.getLogger("repro.api")


@dataclass(frozen=True)
class ResidencyEvent:
    """One device-residency transition caused by the session.

    Attributes:
        kind: ``"attach"`` (part transferred to the device) or ``"evict"``
            (part's device memory released).
        index: Name of the owning index.
        part: Part position within the index.
        nbytes: Device bytes the part occupies.
    """

    kind: str
    index: str
    part: int
    nbytes: int


class ResidencyLog:
    """Bounded record of residency events with a lifetime counter.

    Only the most recent ``limit`` events are retained (sustained serving
    traffic would otherwise grow the log without bound); ``total_events``
    counts every event ever appended. Iteration and indexing cover the
    retained window, oldest first.
    """

    def __init__(self, limit: int = 1024):
        self.limit = count_option(limit, "residency log limit", ConfigError)
        self.total_events = 0
        self._events: deque[ResidencyEvent] = deque(maxlen=self.limit)

    def append(self, event: ResidencyEvent) -> None:
        """Record one event, dropping the oldest beyond the limit."""
        self._events.append(event)
        self.total_events += 1

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, i):
        return list(self._events)[i]


class Residency:
    """The session's resident slice copies, least-recently-used first.

    Owned by a :class:`~repro.api.session.GenieSession` as
    ``session.residency``; the budget is the session's ``memory_budget``.
    A search opens a :meth:`recording` to observe exactly the residency and
    failover events it caused, whatever the bounded log still retains.
    """

    def __init__(self, session):
        self.session = session
        self._resident: dict[int, SliceCopy] = {}  # insertion order == LRU order
        self._recorders: list[list] = []

    @property
    def resident_bytes(self) -> int:
        """Device bytes currently occupied by resident index parts."""
        return sum(part.device_bytes for part in self._resident.values())

    def resident_parts(self) -> list[tuple[str, int]]:
        """``(index_name, part_position)`` pairs, LRU-first."""
        return [(p.handle.name, p.position) for p in self._resident.values()]

    def attach(self, part: SliceCopy) -> bool:
        """Make ``part`` device-resident; returns ``True`` if it transferred.

        Evicts LRU parts while the budget is exceeded, then attaches. If
        the device itself runs out of memory despite the budget (queries
        need headroom too), eviction continues until the attach fits or no
        resident part remains.
        """
        key = id(part)
        if key in self._resident:
            self._resident.pop(key)
            self._resident[key] = part  # LRU bump
            return False
        budget = self.session.memory_budget
        if part.device_bytes > budget < self.session.device.memory.capacity:
            # Only an explicitly constrained budget raises the advisory
            # error; at full capacity the attach below reports the
            # hardware-level GpuOutOfMemoryError, as the engine always has.
            advice = (
                "partition the index with part_size"
                if part.handle.placement is None  # shards cannot take part_size
                else "raise shards= or the memory budget"
            )
            raise ConfigError(
                f"index part of {part.device_bytes} bytes exceeds the session's "
                f"memory budget of {budget} bytes; {advice}"
            )
        while self._resident and self.resident_bytes + part.device_bytes > budget:
            self.evict(next(iter(self._resident.values())))
        # Bounded retry (REPRO007): every failed attempt evicts one
        # distinct same-device victim, so residents + 1 attempts suffice
        # by pigeonhole — either the attach fits or no victim remains.
        for _attempt in range(len(self._resident) + 1):
            try:
                part.engine.attach_index(part.index, part.corpus)
                break
            except GpuOutOfMemoryError:
                # Evict LRU-first among parts on the device that actually
                # OOMed: with a multi-device shard pool, evicting another
                # device's residents frees nothing here.
                victim = next(
                    (p for p in self._resident.values()
                     if p.engine.device is part.engine.device),
                    None,
                )
                if victim is None:
                    raise
                self.evict(victim)
        self._resident[key] = part
        self.record(ResidencyEvent("attach", part.handle.name, part.position, part.device_bytes))
        return True

    def evict(self, part: SliceCopy) -> None:
        """Release ``part``'s device memory."""
        self._resident.pop(id(part), None)
        if part.engine.index_resident:
            part.engine.release()
        logger.debug(
            "evict index=%s part=%d bytes=%d resident_bytes=%d",
            part.handle.name, part.position, part.device_bytes, self.resident_bytes,
        )
        self.record(ResidencyEvent("evict", part.handle.name, part.position, part.device_bytes))

    def evict_all(self) -> None:
        """Release every resident part, least-recently-used first."""
        for part in list(self._resident.values()):
            self.evict(part)

    def record(self, event) -> None:
        """Hand ``event`` (a :class:`ResidencyEvent`, also logged, or a
        :class:`~repro.replica.faults.FailoverEvent`) to every open :meth:`recording`."""
        if isinstance(event, ResidencyEvent):
            self.session.residency_log.append(event)
        else:
            logger.debug("failover %s", event)
        for recorder in self._recorders:
            recorder.append(event)

    @contextmanager
    def recording(self):
        """Collect, in order, the events :meth:`record` receives inside the block."""
        events: list = []
        self._recorders.append(events)
        try:
            yield events
        finally:
            self._recorders.remove(events)
