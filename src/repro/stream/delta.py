"""The mutable delta run: the LSM-style write path for GENIE indexes.

GENIE's inverted index is fit-once (Section III); production corpora are
not. A :class:`DeltaRun` absorbs online mutations without refitting: one
:class:`~repro.core.types.Corpus` beside the ascending global ids of its
rows and the inverted index a search scans them through. Every edit
installs a new corpus at once; the index lags and :meth:`DeltaRun.refresh`
catches it up — one :meth:`~repro.core.inverted_index.InvertedIndex.without`
of the rows dropped or replaced since, one ``merged`` of the rows added or
replaced, never a re-sort of the run. Rows stay in global-id order, so
local ids rank like the global ids the host merge breaks count ties on: a
base object's replacement lands mid-run, where a refit would rank it.

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

    Every edit installs a *new* ``corpus`` (``take`` / ``concat`` of
    canonical rows, never a re-sort) and marks the rows ``index`` lacks.

    Attributes:
        corpus: The live objects' keyword sets, in ``global_ids`` order.
        global_ids: Ascending global id of each row (the scan part's gather map).
        index: Inverted index over the rows as of the last :meth:`refresh` (local id = row).
    """

    __slots__ = ("corpus", "global_ids", "index", "_indexed_ids", "_fresh")

    def __init__(self, load_balance: LoadBalanceConfig | None = None):
        self.corpus = Corpus.concat(())
        self.global_ids = np.empty(0, dtype=ID_DTYPE)
        self.index = _index_of(self.corpus, load_balance)
        # ``index`` holds objects ``_indexed_ids``; ``_fresh`` marks the rows it lacks (as they are now).
        self._indexed_ids = self.global_ids
        self._fresh = np.empty(0, dtype=bool)

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
        """Insert ``rows`` as objects ``gids``, each at its sorted position.

        Raises:
            ConfigError: If one of ``gids`` already lives here.
        """
        held = self.rows_of(gids) >= 0
        if held.any():
            raise ConfigError(f"delta run already holds object {int(np.asarray(gids)[held][0])}")
        merged = np.concatenate([self.global_ids, gids])
        # Fresh inserts append (``order`` is a range, which shares storage);
        # a base object's replacement lands mid-run.
        order = np.argsort(merged, kind="stable")
        self.corpus = Corpus.concat([self.corpus, rows]).take(order)
        self.global_ids = merged[order]
        self._fresh = np.concatenate([self._fresh, np.ones(len(rows), dtype=bool)])[order]

    def remove(self, rows: np.ndarray) -> None:
        """Drop the objects at ``rows`` (positions from :meth:`rows_of`)."""
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        self.corpus = self.corpus.take(np.flatnonzero(keep))
        self.global_ids = self.global_ids[keep]
        self._fresh = self._fresh[keep]

    def replace(self, row: int, new: Corpus) -> None:
        """Swap the keywords of the object at ``row`` for the one row of ``new``."""
        order = np.arange(len(self), dtype=ID_DTYPE)
        order[row] = len(self)
        self.corpus = Corpus.concat([self.corpus, new]).take(order)
        self._fresh[row] = True

    def refresh(self) -> float:
        """Bring ``index`` up to date with the rows; returns the build ops spent.

        ``0.0`` (and the same ``index`` object) when no edit happened since
        the last call; else one ``without`` and one ``merged``, each skipped
        when it has nothing to do.
        """
        if self._indexed_ids is self.global_ids and not self._fresh.any():
            return 0.0
        index, ops = self.index, 0.0
        held = self.rows_of(self._indexed_ids)
        stale = held < 0
        stale[~stale] = self._fresh[held[~stale]]
        if stale.any():
            index = index.without(np.flatnonzero(stale))
            ops += index.build_ops
        positions = np.flatnonzero(self._fresh)
        if positions.size:
            index = index.merged(_index_of(self.corpus.take(positions), index.load_balance), positions)
            ops += index.build_ops
        self.index = index
        self._indexed_ids = self.global_ids
        self._fresh = np.zeros(len(self), dtype=bool)
        return ops


def _index_of(rows: Corpus, load_balance: LoadBalanceConfig | None) -> InvertedIndex:
    """Index of a handful of incoming rows — the sorted run :meth:`InvertedIndex.merged` takes."""
    return InvertedIndex(*sort_postings(rows), len(rows), load_balance)
