"""The segment manifest: one handle's mutable-index version vector.

A :class:`SegmentManifest` describes everything a search over a mutated
index must compose: the (immutable) CSR base, the one live delta run,
and the tombstoned base ids — plus the epoch that versions them.
``mutation_epoch`` is deliberately separate from the handle's
``fit_epoch``: a refit replaces the *model* state (encoders, vocabulary)
and must flush every downstream cache, while a mutation only changes
*which objects* answer — the serve layer drops that index's stale
results, nothing else. ``compactions`` counts the rewrites of the base,
none of which changes any result.

Placement invariant (enforced by :class:`~repro.stream.state.StreamState`):
every live global id lives in exactly one scan source — the base (when
not tombstoned) or the delta run. The only id that appears twice is
an *updated base object*: its base copy is tombstoned (dead) and its
live replacement sits in the run under the same id, which is why the
executor filters tombstones against base scan results only.
"""

from __future__ import annotations

import numpy as np

from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import ID_DTYPE
from repro.stream.delta import DeltaRun


#: Per-id marks of :attr:`SegmentManifest.marks` (0: nothing to say).
TOMBSTONED, RETIRED = 1, 2


class SegmentManifest:
    """Versioned (base, delta, tombstones) state of one mutable index.

    Attributes:
        base_objects: Object slots covered by the current CSR base
            (global ids ``0 .. base_objects - 1``). Grows to
            ``next_gid`` at each compaction; deleted slots stay in the
            id space forever as empty objects, keeping every assigned id
            stable.
        next_gid: The next global id an insert will take; also the
            logical corpus size (``ids < next_gid``).
        delta: The live delta run (empty on a clean index; replaced by a
            fresh one at each compaction).
        tombstones: Base global ids whose base copy is dead, ascending
            (what compaction folds and the filter is priced on; grown by
            :meth:`add_tombstones`, never edited in place).
        marks: One byte per base id and a zero byte past them (read for any later id):
            ``TOMBSTONED``, or ``RETIRED`` (dead at the last compaction; stays dead).
        mutation_epoch: Bumped by every insert/delete/update — the
            serve-layer invalidation version.
        compactions: Lifetime compaction count (surfaces in
            ``ServeMetrics.snapshot()``).
    """

    def __init__(self, base_objects: int, load_balance: LoadBalanceConfig | None = None):
        self.base_objects = int(base_objects)
        self.next_gid = int(base_objects)
        self.delta = DeltaRun(load_balance)
        self.tombstones = np.empty(0, dtype=ID_DTYPE)
        self.marks = np.zeros(self.base_objects + 1, dtype=np.uint8)
        self.mutation_epoch = 0
        self.compactions = 0

    def add_tombstones(self, gids: np.ndarray) -> None:
        """Mark live base ids dead, each at its sorted position."""
        gids = np.sort(gids)
        self.tombstones = np.insert(self.tombstones, self.tombstones.searchsorted(gids), gids)
        self.marks[gids] = TOMBSTONED

    def is_tombstoned(self, gids: np.ndarray) -> np.ndarray:
        """Which of ``gids`` are tombstoned base ids (one gather)."""
        return self.marks.take(gids, mode="clip") == TOMBSTONED

    def base_alive(self, gids: np.ndarray) -> np.ndarray:
        """Which of ``gids`` are base ids neither tombstoned nor retired (one gather)."""
        return (gids < self.base_objects) & (self.marks.take(gids, mode="clip") == 0)

    def retire(self, dead: np.ndarray) -> None:
        """Retire the ids ``dead`` flags (a mask over ``[0, next_gid)``), unmark the rest: what a compaction leaves."""
        self.marks = np.append(dead, False).astype(np.uint8) * RETIRED

    @property
    def delta_objects(self) -> int:
        """Live objects held in the delta run."""
        return len(self.delta)

    @property
    def delta_postings(self) -> int:
        """Total (object, keyword) pairs in the delta run: the compaction trigger's
        pressure gauge — the extra scan work every query pays until the next compaction."""
        return self.delta.postings

    @property
    def dirty(self) -> bool:
        """Whether a search must compose base + delta + tombstones.

        True whenever the base alone cannot answer: live delta objects,
        tombstoned base ids, or dead id slots past the base (an inserted
        object that was deleted again still occupies its slot — a
        from-scratch refit of the final corpus would index the empty
        slot, so thresholds must be computed over ``next_gid`` objects).
        """
        return (
            bool(len(self.delta))
            or bool(self.tombstones.size)
            or self.next_gid != self.base_objects
        )

    def describe(self) -> dict:
        """Deterministic summary dict (tests and ``snapshot()`` surfaces)."""
        return {
            "base_objects": self.base_objects,
            "next_gid": self.next_gid,
            "delta_objects": self.delta_objects,
            "delta_postings": self.delta_postings,
            "tombstones": self.tombstones.size,
            "mutation_epoch": self.mutation_epoch,
            "compactions": self.compactions,
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.describe().items())
        return f"SegmentManifest({inner})"
