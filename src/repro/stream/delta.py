"""Mutable delta segments: the LSM-style write path for GENIE indexes.

GENIE's inverted index is fit-once — the CSR List Array is immutable by
construction (Section III). Production corpora are not. This module adds
the smallest structure that absorbs online mutations without refitting:

* a :class:`DeltaSegment` — a small :class:`~repro.core.types.Corpus`
  beside the ascending global ids of its rows, replaced whole by every edit.
  Inserts land in the *active* (unsealed) segment; once it holds
  ``seal_objects`` objects it seals and a fresh segment opens, exactly
  like an LSM memtable rotating into an immutable run. Deletes and
  updates of a segment-resident object edit the segment *in place*
  (sealing only gates where new inserts go — a sealed segment is small
  enough that rewriting its scan-time index stays cheap).
* a :class:`StreamConfig` — the seal and compaction thresholds.

The base index's own objects cannot be edited in place; deleting one
adds its global id to the manifest's *tombstone* set instead (see
:mod:`repro.stream.manifest`), and updating one tombstones the base copy
and inserts the live replacement — under the **same** global id — into
the active segment. Query-time composition (base scan + delta scans +
tombstone filter, merged exactly) lives in :mod:`repro.plan.executor`;
rewriting everything back into a fresh CSR base is
:meth:`repro.stream.state.StreamState.compact`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import ID_DTYPE, Corpus
from repro.errors import ConfigError


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs for one handle's mutable-segment machinery.

    Attributes:
        seal_objects: Objects after which the active segment seals and a
            fresh one opens. Smaller segments keep per-mutation index
            rebuilds cheap; larger ones keep the query-time merge fan-in
            low.
        compact_ratio: Compaction triggers when the delta postings exceed
            this fraction of the base index's postings, or the tombstones
            this fraction of the base objects. The classic LSM trade: a
            low ratio keeps scans near base-only speed but compacts (and
            pays a full rebuild) often.
        auto_compact: Run the threshold check after every mutation.
            ``False`` leaves compaction entirely to explicit
            :meth:`~repro.api.session.IndexHandle.compact` calls.
    """

    seal_objects: int = 512
    compact_ratio: float = 0.25
    auto_compact: bool = True

    def __post_init__(self):
        if int(self.seal_objects) < 1:
            raise ConfigError("seal_objects must be >= 1")
        if not float(self.compact_ratio) > 0.0:
            raise ConfigError("compact_ratio must be positive")


class DeltaSegment:
    """One mutable run of objects: a corpus plus its rows' global ids.

    The segment is the unit of scan-time indexing (one small inverted
    index per segment) and of feature extraction (one keyword/postings
    table for the cost model). Every edit installs a *new* ``corpus``
    (``take`` / ``concat`` of canonical rows, never a re-sort), so what was
    derived from a segment is current exactly while it still holds the
    segment's corpus object.

    Attributes:
        corpus: The live objects' keyword sets, in ``global_ids`` order.
        global_ids: Ascending global id of each row (the scan part's
            gather map).
        sealed: Whether new inserts may still land here. Sealing is
            advisory for inserts only; removes/replaces stay legal.
    """

    __slots__ = ("corpus", "global_ids", "sealed")

    def __init__(self):
        self.corpus = Corpus.concat(())
        self.global_ids = np.empty(0, dtype=ID_DTYPE)
        self.sealed = False

    def __len__(self) -> int:
        return int(self.global_ids.size)

    def __contains__(self, gid: int) -> bool:
        return bool(self.rows_of(gid) >= 0)

    @property
    def postings(self) -> int:
        """Total (object, keyword) pairs held — the segment's index size."""
        return self.corpus.total_entries

    def rows_of(self, gids) -> np.ndarray:
        """Row of each of ``gids`` here, ``-1`` where it does not live here (one binary search)."""
        gids = np.asarray(gids, dtype=ID_DTYPE)
        if not len(self):
            return np.full(gids.shape, -1, dtype=ID_DTYPE)
        rows = self.global_ids.searchsorted(gids)
        return np.where(self.global_ids.take(rows, mode="clip") == gids, rows, -1)

    def add(self, gids: np.ndarray, rows: Corpus) -> None:
        """Insert ``rows`` as objects ``gids``, each at its sorted position.

        Raises:
            ConfigError: If one of ``gids`` already lives here.
        """
        held = self.rows_of(gids) >= 0
        if held.any():
            raise ConfigError(f"segment already holds object {int(np.asarray(gids)[held][0])}")
        merged = np.concatenate([self.global_ids, gids])
        order = np.argsort(merged, kind="stable")  # fresh inserts append: a range, which shares storage
        self.corpus = Corpus.concat([self.corpus, rows]).take(order)
        self.global_ids = merged[order]

    def remove(self, rows: np.ndarray) -> None:
        """Drop the objects at ``rows`` (positions from :meth:`rows_of`)."""
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        self.corpus = self.corpus.take(np.flatnonzero(keep))
        self.global_ids = self.global_ids[keep]

    def replace(self, row: int, new: Corpus) -> None:
        """Swap the keywords of the object at ``row`` for the one row of ``new``."""
        order = np.arange(len(self), dtype=ID_DTYPE)
        order[row] = len(self)
        self.corpus = Corpus.concat([self.corpus, new]).take(order)
