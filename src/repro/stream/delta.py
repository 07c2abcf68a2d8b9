"""The mutable delta run: the LSM-style write path for GENIE indexes.

GENIE's inverted index is fit-once (Section III); production corpora are
not. A :class:`DeltaRun` absorbs online mutations without refitting: the
ascending global ids of its rows and the inverted index a search scans
them through. An edit costs the edit: it updates the ids and logs the
rows it brings; the index lags and :meth:`DeltaRun.refresh` catches it up
with one :meth:`~repro.core.inverted_index.InvertedIndex.spliced` pass —
the rows dropped or replaced since out, the logged rows in — never a
re-sort of the run. Rows stay in global-id order, so local ids rank like
the global ids the host merge breaks count ties on: a base object's
replacement lands mid-run, where a refit would rank it.

Base objects cannot be edited in place: deleting one tombstones its id
(:mod:`repro.stream.manifest`), updating one tombstones the base copy and
adds the replacement — same id — to the run. Query-time composition (base
scan + delta scan + tombstone filter, merged exactly) lives in
:mod:`repro.plan.executor`; folding everything back into a fresh CSR base
is :meth:`repro.stream.state.StreamState.compact`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.inverted_index import InvertedIndex, sort_postings
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import ID_DTYPE, Corpus
from repro.errors import ConfigError


@dataclass(frozen=True)
class StreamConfig:
    """Tuning knobs for one handle's mutable-delta machinery.

    Attributes:
        compact_ratio: Compaction triggers when the delta postings exceed
            this fraction of the base index's postings, or the tombstones
            this fraction of the base objects. The classic LSM trade: a
            low ratio keeps scans near base-only speed but compacts (and
            pays a full rebuild) often.
        auto_compact: Run the threshold check after every mutation.
            ``False`` leaves compaction entirely to explicit
            :meth:`~repro.api.session.IndexHandle.compact` calls.
    """

    compact_ratio: float = 0.25
    auto_compact: bool = True

    def __post_init__(self):
        if not (isinstance(self.compact_ratio, numbers.Real) and self.compact_ratio > 0.0):
            raise ConfigError(f"compact_ratio must be positive, got {self.compact_ratio!r}")


class DeltaRun:
    """The live delta of one mutable index (``load_balance``: its list-splitting configuration).

    An edit touches ``global_ids``, the row sizes and the edit log, never a corpus: its
    rows wait in the log until :meth:`refresh` folds them into ``index`` (:attr:`corpus`
    reads them back). A log past twice the rows of the run and its index is cut to what
    it changes, so memory follows the run, not the edit history.

    Attributes:
        global_ids: Ascending global id of each live row (the scan part's gather map).
        index: Inverted index over the rows as of the last :meth:`refresh` (local id = row).
        postings: Total (object, keyword) pairs of the live rows, exact after every edit.
    """

    __slots__ = ("global_ids", "index", "postings", "_sizes", "_added", "_dropped", "_logged", "_indexed_ids")

    def __init__(self, load_balance: LoadBalanceConfig | None = None):
        self.global_ids = np.empty(0, dtype=ID_DTYPE)
        self.index = InvertedIndex(*sort_postings(Corpus.concat(())), 0, load_balance)
        self.postings = 0
        self._sizes = np.empty(0, dtype=ID_DTYPE)  # postings of each row, aligned with ``global_ids``
        # Since the last refresh: ``(ids, rows)`` per add or replace, in order, and the removed ids.
        self._added, self._dropped, self._logged = [], [], 0  # ``_logged``: ids across both
        self._indexed_ids = self.global_ids  # the objects ``index`` holds

    def __len__(self) -> int:
        return int(self.global_ids.size)

    def rows_of(self, gids) -> np.ndarray:
        """Row of each of ``gids`` here, ``-1`` where it does not live here (one binary search)."""
        gids = np.asarray(gids, dtype=ID_DTYPE)
        if not len(self):
            return np.full(gids.shape, -1, dtype=ID_DTYPE)
        rows = self.global_ids.searchsorted(gids)
        return np.where(self.global_ids.take(rows, mode="clip") == gids, rows, -1)

    def add(self, gids: np.ndarray, rows: Corpus) -> None:
        """Insert ``rows`` as objects ``gids`` (ascending) at their sorted positions: a base object's replacement mid-run.

        Raises:
            ConfigError: If one of ``gids`` already lives here.
        """
        gids = np.array(gids, dtype=ID_DTYPE).reshape(-1)
        held = self.rows_of(gids) >= 0
        if held.any():
            raise ConfigError(f"delta run already holds object {int(gids[held][0])}")
        at = self.global_ids.searchsorted(gids)
        self.global_ids = np.insert(self.global_ids, at, gids)
        self._sizes = np.insert(self._sizes, at, np.diff(rows.offsets))
        self.postings += rows.total_entries
        self._added.append((gids, rows))
        self._log(gids.size)

    def remove(self, rows: np.ndarray) -> None:
        """Drop the objects at ``rows`` (positions from :meth:`rows_of`)."""
        self._dropped.append(self.global_ids[rows])
        self.postings -= int(self._sizes[rows].sum())
        self.global_ids = np.delete(self.global_ids, rows)
        self._sizes = np.delete(self._sizes, rows)
        self._log(self._dropped[-1].size)

    def replace(self, row: int, new: Corpus) -> None:
        """Swap the keywords of the object at ``row`` for the one row of ``new``."""
        self._added.append((self.global_ids[row : row + 1], new))
        self.postings += new.total_entries - int(self._sizes[row])
        self._sizes[row] = new.total_entries
        self._log(1)

    def refresh(self) -> float:
        """Bring ``index`` up to date with the log; returns the build ops spent: ``0.0`` (and the same
        ``index``) when no edit since the last call reached an indexed row or left a new one, else one ``spliced`` pass."""
        self.index, ops = self._caught_up()
        self._indexed_ids, self._added, self._dropped, self._logged = self.global_ids, [], [], 0
        return ops

    @property
    def corpus(self) -> Corpus:
        """The live rows in ``global_ids`` order, read back from the caught-up index (what compaction folds)."""
        return self._caught_up()[0].corpus()

    def _caught_up(self) -> tuple[InvertedIndex, float]:
        """The index over the live rows, and the ops it took; the log and ``index`` stay as they are."""
        if self._logged:
            stale, ids, rows = self._pending()
            if stale.size or ids.size:
                index = self.index.spliced(stale, rows, self.rows_of(ids))
                return index, index.build_ops
        return self.index, 0.0

    def _pending(self) -> tuple[np.ndarray, np.ndarray, Corpus]:
        """What the log changes: the stale rows of ``index``, and the ascending ids and last logged rows of the objects here."""
        ids = np.concatenate([np.empty(0, dtype=ID_DTYPE), *(gids for gids, _ in self._added)])
        # Indexed rows an edit touched are stale: removed, or replaced by a logged row.
        touched = np.concatenate([ids, *self._dropped])
        at = self._indexed_ids.searchsorted(touched)
        stale = np.zeros(self._indexed_ids.size, dtype=bool)
        stale[at[np.append(self._indexed_ids, -1)[at] == touched]] = True  # -1: no id, past the end
        # Within a stable sort, each id's last copy is its last logged row (ids are non-negative).
        order = np.argsort(ids, kind="stable")
        last = order[np.diff(ids[order], append=-1) != 0]
        last = last[self.rows_of(ids[last]) >= 0]
        return np.flatnonzero(stale), ids[last], Corpus.concat(rows for _, rows in self._added).take(last)

    def _log(self, ids: int) -> None:
        """Count ``ids`` more logged ids; past twice the rows of the run and ``index``, keep only what the log changes."""
        self._logged += ids
        if self._logged > 2 * (len(self) + self._indexed_ids.size):
            stale, ids, rows = self._pending()
            self._added = [(ids, rows)] if ids.size else []
            self._dropped = [self._indexed_ids[stale]] if stale.size else []
            self._logged = ids.size + stale.size
