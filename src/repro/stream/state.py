"""Per-handle stream state: mutations in, scan-ready delta parts out.

:class:`StreamState` is what an :class:`~repro.api.session.IndexHandle`
lazily attaches on its first mutation. It owns the
:class:`~repro.stream.manifest.SegmentManifest`, applies
``insert``/``delete``/``update`` under the placement invariant (every
live id in exactly one scan source), materializes each delta segment as
a device-swappable ``_IndexPart`` (small inverted index + engine, kept
while it still holds the segment's corpus so untouched sealed segments
never rebuild), and runs threshold-driven compaction back into a fresh
CSR base. Rows reach a segment canonical (one
:class:`~repro.core.types.Corpus` per mutation call) and are only moved
after that — ``concat`` into the segment's corpus, which *is* its scan
corpus, then into the compacted base — never sorted again.

Cost accounting mirrors the batch path: building a segment's scan index
charges the host's ``index_build`` stage, delta parts attach through the
session's residency machinery (they pay ``index_transfer`` and count
against the memory budget like any base part), and the executor charges
the tombstone filter as host binary-search work.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.inverted_index import InvertedIndex
from repro.core.types import ID_DTYPE, Corpus, as_keyword_array
from repro.errors import QueryError
from repro.gpu.stats import timings_delta
from repro.obs.trace import Span
from repro.stream.delta import DeltaSegment, StreamConfig
from repro.stream.manifest import SegmentManifest

logger = logging.getLogger("repro.stream")


def _checked_ids(ids) -> np.ndarray:
    """Mutation ids as an int64 array, validated (all of them) before any is applied."""
    return as_keyword_array(ids if np.ndim(ids) else [ids], "object ids")


class StreamState:
    """Mutable-segment machinery for one fitted index handle.

    Args:
        handle: The owning (already fitted) session index handle.
        config: Seal/compaction thresholds; defaults when omitted.
    """

    def __init__(self, handle, config: StreamConfig | None = None):
        self.handle = handle
        self.config = config if config is not None else StreamConfig()
        base_objects = sum(len(part.corpus) for part in handle._parts)
        self.manifest = SegmentManifest(base_objects)
        # segment -> the ``_IndexPart`` the last search scanned it through,
        # stale once ``part.corpus is not segment.corpus``: sealed segments
        # keep their scan index across mutations elsewhere; an edited one
        # is re-indexed (re-paying index_build) by the next search.
        self._parts: dict[DeltaSegment, object] = {}

    # ------------------------------------------------------------------
    # introspection

    @property
    def dirty(self) -> bool:
        """Whether searches must run the base+delta composition."""
        return self.manifest.dirty

    # ------------------------------------------------------------------
    # mutations

    def _encode(self, objects) -> Corpus:
        corpus = self.handle.model.encode_increment(objects)
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        return corpus

    def _land(self, gids: np.ndarray, rows: Corpus) -> None:
        """Add ``rows`` to the active segment, sealing and rotating every ``seal_objects``."""
        segments = self.manifest.segments
        start = 0
        while start < len(rows):
            if not segments or segments[-1].sealed:
                segments.append(DeltaSegment())
            segment = segments[-1]  # unsealed, so below seal_objects
            stop = min(len(rows), start + self.config.seal_objects - len(segment))
            segment.add(gids[start:stop], rows.take(np.arange(start, stop)))
            segment.sealed = len(segment) >= self.config.seal_objects
            start = stop

    def insert(self, objects) -> np.ndarray:
        """Append new objects; returns their assigned global ids."""
        objects = list(objects)
        if not objects:
            raise QueryError("empty insert batch")
        corpus = self._encode(objects)
        manifest = self.manifest
        gids = np.arange(
            manifest.next_gid, manifest.next_gid + len(corpus), dtype=ID_DTYPE
        )
        self._land(gids, corpus)
        manifest.next_gid += len(corpus)
        self._mutated()
        return gids

    def delete(self, ids) -> None:
        """Remove live objects by global id (all-or-nothing validation)."""
        ids = _checked_ids(ids)
        if not ids.size:
            raise QueryError("empty delete batch")
        holder, rows = self._locate(ids)
        live = self._is_live(ids, holder)
        if not live.all():
            raise QueryError(f"cannot delete id {int(ids[~live][0])}: not a live object")
        if np.unique(ids).size != ids.size:
            raise QueryError("duplicate ids in delete batch")
        manifest = self.manifest
        for s in np.unique(holder[holder >= 0]).tolist():
            manifest.segments[s].remove(rows[holder == s])
        manifest.add_tombstones(ids[holder < 0])
        self._mutated()

    def update(self, gid: int, obj) -> None:
        """Replace one live object's keywords, keeping its global id."""
        ids = _checked_ids([gid])
        (gid,) = ids.tolist()
        holder, rows = self._locate(ids)
        if not self._is_live(ids, holder).all():
            raise QueryError(f"cannot update id {gid}: not a live object")
        new = self._encode([obj])
        manifest = self.manifest
        if holder[0] >= 0:
            manifest.segments[holder[0]].replace(rows[0], new)
        else:
            # A base object cannot change in place: tombstone the base
            # copy and insert the replacement — same id — as a delta.
            manifest.add_tombstones(ids)
            self._land(ids, new)
        self._mutated()

    def _locate(self, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per id, the live segment holding it (``-1``: none does) and its row there."""
        holder = np.full(gids.size, -1, dtype=ID_DTYPE)
        rows = holder.copy()
        for s, segment in enumerate(self.manifest.segments):
            at = segment.rows_of(gids)
            here = at >= 0
            holder[here], rows[here] = s, at[here]
        return holder, rows

    def _is_live(self, gids: np.ndarray, holder: np.ndarray) -> np.ndarray:
        """Which of ``gids`` are live: held by a segment, or base ids not tombstoned."""
        manifest = self.manifest
        return (holder >= 0) | ((gids < manifest.base_objects) & ~manifest.is_tombstoned(gids))

    def _mutated(self) -> None:
        manifest = self.manifest
        manifest.mutation_epoch += 1
        manifest.segments = [s for s in manifest.segments if len(s)]
        # A mutation stales this index's cached results *and* plans (the
        # plan must grow/update its DeltaScan); other indexes' caches are
        # untouched — that is the whole point of per-index hooks.
        self.handle.session._notify_invalidated(self.handle.name)
        if self.config.auto_compact:
            self.maybe_compact()

    # ------------------------------------------------------------------
    # scan-time materialization

    def tombstone_array(self) -> np.ndarray:
        """Sorted tombstoned base ids (the executor's filter probe table)."""
        return self.manifest.tombstones

    def delta_parts(self) -> list:
        """One ``_IndexPart`` per live segment, each over the segment's current corpus.

        Segments edited since their last build are re-indexed here (the
        host pays ``index_build`` for exactly the rebuilt segments);
        stale parts, then the parts of segments that emptied, are
        evicted before being dropped so the session's residency
        accounting never leaks device bytes.
        """
        from repro.api.session import _IndexPart
        from repro.core.engine import GenieEngine

        handle = self.handle
        session = handle.session
        live = {}
        for position, segment in enumerate(self.manifest.segments, start=len(handle._parts)):
            part = self._parts.get(segment)
            if part is None or part.corpus is not segment.corpus:
                self._evict(part)
                index = InvertedIndex.build(segment.corpus, load_balance=handle.config.load_balance)
                session.host.charge_ops(index.build_ops, stage="index_build")
                engine = GenieEngine(device=session.device, host=session.host, config=handle.config)
                part = _IndexPart(
                    handle, position, engine, segment.corpus, index, offset=0, global_ids=segment.global_ids
                )
            part.position = position  # earlier segments may have emptied
            live[segment] = part
        for segment, part in self._parts.items():
            if segment not in live:
                self._evict(part)
        self._parts = live
        return list(live.values())

    def attached_parts(self) -> list:
        """Every cached delta part (for eviction / byte accounting)."""
        return list(self._parts.values())

    def _evict(self, part) -> None:
        if part is not None and part.resident:
            self.handle.session._evict_part(part)

    def release(self) -> None:
        """Evict and forget every cached delta part."""
        for part in self._parts.values():
            self._evict(part)
        self._parts.clear()

    # ------------------------------------------------------------------
    # compaction

    def full_corpus(self) -> Corpus:
        """The logical corpus a from-scratch refit would index now.

        One slot per assigned global id (``0 .. next_gid - 1``); dead
        slots — tombstoned base ids without a live delta replacement,
        and deleted delta inserts — hold empty keyword sets. Empty
        objects never match (zero counts never enter a top-k), so
        indexing them changes no result while keeping every surviving id
        stable across compactions.
        """
        sources = [
            (part.corpus, part.to_global(np.arange(len(part.corpus), dtype=ID_DTYPE)))
            for part in self.handle._parts
        ]
        sources.append((None, self.tombstone_array()))
        sources += [(segment.corpus, segment.global_ids) for segment in self.manifest.segments]
        return Corpus.by_global_id(sources, self.manifest.next_gid)

    def maybe_compact(self) -> bool:
        """Compact when delta pressure crosses the configured ratio."""
        manifest = self.manifest
        if not manifest.segments and not manifest.tombstones.size:
            return False
        base_entries = sum(
            int(part.corpus.total_entries) for part in self.handle._parts
        )
        ratio = self.config.compact_ratio
        if (
            manifest.delta_postings > ratio * max(1, base_entries)
            or manifest.tombstones.size > ratio * max(1, manifest.base_objects)
        ):
            return self.compact()
        return False

    def compact(self) -> bool:
        """Rewrite base + deltas + tombstones into a fresh CSR base.

        The new base is built host-side first, then swapped in under the
        session's residency budget (old parts and delta parts evicted,
        new parts attached — atomic from any observer's point of view:
        no search runs mid-swap in the synchronous session). Results are
        unchanged by construction, so cached query *results* stay valid;
        the plan cache alone is invalidated (the shard keyword tables
        the planner routes against did change).

        Returns:
            Whether anything was compacted (``False`` on a clean index).
        """
        if not self.dirty:
            return False
        session = self.handle.session
        manifest = self.manifest
        folded_segments = len(manifest.segments)
        folded_postings = int(manifest.delta_postings)
        folded_tombstones = manifest.tombstones.size
        host_before = session.host.timings.copy()
        corpus = self.full_corpus()
        self.release()
        self.handle._install(corpus)
        manifest.segments = []
        manifest.tombstones = np.empty(0, dtype=ID_DTYPE)
        manifest.base_objects = manifest.next_gid
        manifest.base_epoch += 1
        manifest.compactions += 1
        cache = session.plan_cache
        if cache is not None:
            cache.invalidate(self.handle.name)
        spent = timings_delta(host_before, session.host.timings).total
        logger.debug(
            "compact index=%s segments=%d postings=%d tombstones=%d "
            "base_epoch=%d seconds=%.6g",
            self.handle.name, folded_segments, folded_postings,
            folded_tombstones, manifest.base_epoch, spent,
        )
        tracer = getattr(session, "tracer", None)
        if tracer is not None:
            start = tracer.clock.now() if tracer.clock is not None else 0.0
            tracer.record(Span(
                "compaction", start=start, duration=spent,
                index=self.handle.name, segments=folded_segments,
                postings=folded_postings, tombstones=folded_tombstones,
                base_epoch=manifest.base_epoch,
            ))
        return True
