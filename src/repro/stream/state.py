"""Per-handle stream state: mutations in, scan-ready delta parts out.

:class:`StreamState` is what an :class:`~repro.api.session.IndexHandle`
lazily attaches on its first mutation. It owns the
:class:`~repro.stream.manifest.SegmentManifest`, applies
``insert``/``delete``/``update`` under the placement invariant (every
live id in exactly one scan source), materializes each delta segment as
a device-swappable ``_IndexPart`` (small inverted index + engine, cached
per segment version so untouched sealed segments never rebuild), and
runs threshold-driven compaction back into a fresh CSR base. Rows reach
a segment canonical (one :class:`~repro.core.types.Corpus` per mutation
call) and are only moved after that — into the segment's scan corpus,
into the compacted base — never sorted again.

Cost accounting mirrors the batch path: building a segment's scan index
charges the host's ``index_build`` stage, delta parts attach through the
session's residency machinery (they pay ``index_transfer`` and count
against the memory budget like any base part), and the executor charges
the tombstone filter as host binary-search work.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.core.inverted_index import InvertedIndex
from repro.core.types import ID_DTYPE, Corpus, as_keyword_array
from repro.errors import QueryError
from repro.gpu.stats import timings_delta
from repro.obs.trace import Span
from repro.stream.delta import DeltaSegment, StreamConfig
from repro.stream.manifest import SegmentManifest

logger = logging.getLogger("repro.stream")


@dataclass
class _SegmentView:
    """One live segment's rows as a corpus, and the scan part built from it."""

    segment: DeltaSegment  # held, so its id() cannot be reused while this entry lives
    version: int = -1  # the segment.version ``corpus`` / ``global_ids`` were assembled at
    corpus: Corpus | None = None
    global_ids: np.ndarray | None = None
    part: object = None  # the ``_IndexPart`` a search built, at ``part_version``
    part_version: int = -1


def _checked_ids(ids) -> list[int]:
    """Mutation ids as python ints, validated (all of them) before any is applied."""
    return as_keyword_array(ids if np.ndim(ids) else [ids], "object ids").tolist()


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
        # id(segment) -> view: sealed segments keep their corpus, its keyword
        # table and their scan index across mutations elsewhere; an edited
        # segment is re-assembled by whoever asks first and re-indexed
        # (re-paying index_build) by the next search.
        self._views: dict[int, _SegmentView] = {}
        self._tombstone_array: np.ndarray | None = None

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

    def _active_segment(self) -> DeltaSegment:
        segments = self.manifest.segments
        if not segments or segments[-1].sealed:
            segments.append(DeltaSegment())
        return segments[-1]

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
        for gid, keywords in zip(gids.tolist(), corpus):
            segment = self._active_segment()
            segment.add(gid, keywords)
            if len(segment) >= self.config.seal_objects:
                segment.sealed = True
        manifest.next_gid += len(corpus)
        self._mutated()
        return gids

    def delete(self, ids) -> None:
        """Remove live objects by global id (all-or-nothing validation)."""
        ids = _checked_ids(ids)
        if not ids:
            raise QueryError("empty delete batch")
        for gid in ids:
            if not self._is_live(gid):
                raise QueryError(f"cannot delete id {gid}: not a live object")
        if len(set(ids)) != len(ids):
            raise QueryError("duplicate ids in delete batch")
        manifest = self.manifest
        for gid in ids:
            for segment in manifest.segments:
                if segment.remove(gid):
                    break
            else:
                manifest.tombstones.add(gid)
        self._mutated()

    def update(self, gid: int, obj) -> None:
        """Replace one live object's keywords, keeping its global id."""
        (gid,) = _checked_ids([gid])
        if not self._is_live(gid):
            raise QueryError(f"cannot update id {gid}: not a live object")
        keywords = self._encode([obj])[0]
        manifest = self.manifest
        for segment in manifest.segments:
            if gid in segment:
                segment.replace(gid, keywords)
                break
        else:
            # A base object cannot change in place: tombstone the base
            # copy and insert the replacement — same id — as a delta.
            manifest.tombstones.add(gid)
            segment = self._active_segment()
            segment.add(gid, keywords)
            if len(segment) >= self.config.seal_objects:
                segment.sealed = True
        self._mutated()

    def _is_live(self, gid: int) -> bool:
        manifest = self.manifest
        if any(gid in segment for segment in manifest.segments):
            return True
        return 0 <= gid < manifest.base_objects and gid not in manifest.tombstones

    def _mutated(self) -> None:
        manifest = self.manifest
        manifest.mutation_epoch += 1
        manifest.segments = [s for s in manifest.segments if len(s)]
        self._tombstone_array = None
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
        if self._tombstone_array is None:
            self._tombstone_array = np.asarray(
                sorted(self.manifest.tombstones), dtype=ID_DTYPE
            )
        return self._tombstone_array

    def _view(self, segment: DeltaSegment) -> _SegmentView:
        """The segment's cache entry, its corpus assembled at the current version."""
        view = self._views.get(id(segment))
        if view is None:
            view = self._views[id(segment)] = _SegmentView(segment)
        if view.version != segment.version:
            gids = segment.ids()
            view.corpus = Corpus.from_rows(segment.keywords(gid) for gid in gids)
            view.global_ids = np.asarray(gids, dtype=ID_DTYPE)
            view.version = segment.version
        return view

    def delta_parts(self) -> list:
        """One ``_IndexPart`` per live segment, cache-fresh.

        Segments edited since their last build are re-indexed here (the
        host pays ``index_build`` for exactly the rebuilt segments);
        stale cached parts are evicted before being dropped so the
        session's residency accounting never leaks device bytes.
        """
        from repro.api.session import _IndexPart
        from repro.core.engine import GenieEngine

        handle = self.handle
        session = handle.session
        parts = []
        live = {}
        for position, segment in enumerate(self.manifest.segments, start=len(handle._parts)):
            view = live[id(segment)] = self._view(segment)
            if view.part_version != view.version:
                self._evict(view.part)
                index = InvertedIndex.build(view.corpus, load_balance=handle.config.load_balance)
                session.host.charge_ops(index.build_ops, stage="index_build")
                engine = GenieEngine(device=session.device, host=session.host, config=handle.config)
                view.part = _IndexPart(
                    handle, position, engine, view.corpus, index, offset=0, global_ids=view.global_ids
                )
                view.part_version = view.version
            view.part.position = position  # earlier segments may have emptied
            parts.append(view.part)
        for key, view in self._views.items():
            if key not in live:
                self._evict(view.part)
        self._views = live
        return parts

    def delta_features(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per live segment, ``(sorted keywords, posting counts)``.

        The planner prices the DeltaScan from these without building any
        index — ``explain()`` stays free of ``index_build`` charges.
        """
        return [self._view(segment).corpus.keyword_table for segment in self.manifest.segments]

    def attached_parts(self) -> list:
        """Every cached delta part (for eviction / byte accounting)."""
        return [view.part for view in self._views.values() if view.part is not None]

    def _evict(self, part) -> None:
        if part is not None and part.resident:
            self.handle.session._evict_part(part)

    def release(self) -> None:
        """Evict and forget every cached segment view."""
        for part in self.attached_parts():
            self._evict(part)
        self._views.clear()

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
        sources += [(view.corpus, view.global_ids) for view in map(self._view, self.manifest.segments)]
        return Corpus.by_global_id(sources, self.manifest.next_gid)

    def maybe_compact(self) -> bool:
        """Compact when delta pressure crosses the configured ratio."""
        manifest = self.manifest
        if not manifest.segments and not manifest.tombstones:
            return False
        base_entries = sum(
            int(part.corpus.total_entries) for part in self.handle._parts
        )
        ratio = self.config.compact_ratio
        if (
            manifest.delta_postings > ratio * max(1, base_entries)
            or len(manifest.tombstones) > ratio * max(1, manifest.base_objects)
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
        folded_tombstones = len(manifest.tombstones)
        host_before = session.host.timings.copy()
        corpus = self.full_corpus()
        self.release()
        self.handle._install(corpus)
        manifest.segments = []
        manifest.tombstones = set()
        manifest.base_objects = manifest.next_gid
        manifest.base_epoch += 1
        manifest.compactions += 1
        self._tombstone_array = None
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
