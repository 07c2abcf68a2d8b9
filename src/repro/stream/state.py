"""Per-handle stream state: mutations in, one scan-ready delta part out.

:class:`StreamState` is what an :class:`~repro.api.session.IndexHandle`
lazily attaches on its first mutation. It owns the
:class:`~repro.stream.manifest.SegmentManifest`, applies
``insert``/``delete``/``update`` under the placement invariant (every
live id in exactly one scan source), hands the executor the delta run as
one more slice copy of the index (kept until the next edit), and runs
threshold-driven compaction back into a fresh CSR base. Rows reach the run
canonical (one :class:`~repro.core.types.Corpus` per mutation call) and
wait in its edit log; the next search *splices* them into the run's index
in one pass — postings are sorted again only when a compaction builds the base.

Cost accounting mirrors the batch path: catching the run's index up
charges the host's ``index_build`` stage what the merge costs, the delta
part attaches through the session's residency machinery (``index_transfer``,
the memory budget) like any base part, and the executor charges the
tombstone filter as host binary-search work (done as one gather).
"""

from __future__ import annotations

import logging

import numpy as np

from repro.cluster.plan import ShardSlice, SliceCopy
from repro.core.engine import GenieEngine, listed
from repro.core.types import ID_DTYPE, Corpus, as_keyword_array
from repro.errors import QueryError
from repro.gpu.stats import timings_delta
from repro.obs.trace import Span
from repro.stream.delta import DeltaRun, StreamConfig
from repro.stream.manifest import SegmentManifest

logger = logging.getLogger("repro.stream")


def _checked_ids(ids) -> np.ndarray:
    """Mutation ids as an int64 array, validated (all of them) before any is applied."""
    return as_keyword_array(ids if np.ndim(ids) else [ids], "object ids")


class StreamState:
    """Mutable-delta machinery for one fitted index handle.

    Args:
        handle: The owning (already fitted) session index handle.
        config: Compaction thresholds; defaults when omitted.
    """

    def __init__(self, handle, config: StreamConfig | None = None):
        self.handle = handle
        self.config = config if config is not None else StreamConfig()
        self.manifest = SegmentManifest(handle.plan.n_objects, handle.config.load_balance)
        # The slice copy the last search scanned the delta run through;
        # stale once ``part.index is not manifest.delta.index``.
        self.part = None

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
        return corpus if isinstance(corpus, Corpus) else Corpus(corpus)

    def insert(self, objects) -> np.ndarray:
        """Append new objects; returns their assigned global ids."""
        objects = listed(objects, "objects")
        if not objects:
            raise QueryError("empty insert batch")
        corpus = self._encode(objects)
        manifest = self.manifest
        gids = np.arange(manifest.next_gid, manifest.next_gid + len(corpus), dtype=ID_DTYPE)
        manifest.delta.add(gids, corpus)
        manifest.next_gid += len(corpus)
        self._mutated()
        return gids

    def delete(self, ids) -> None:
        """Remove live objects by global id (all-or-nothing validation)."""
        ids = _checked_ids(ids)
        if not ids.size:
            raise QueryError("empty delete batch")
        manifest = self.manifest
        rows = manifest.delta.rows_of(ids)
        live = self._is_live(ids, rows)
        if not live.all():
            raise QueryError(f"cannot delete id {int(ids[~live][0])}: not a live object")
        if np.unique(ids).size != ids.size:
            raise QueryError("duplicate ids in delete batch")
        in_delta = rows >= 0
        if in_delta.any():
            manifest.delta.remove(rows[in_delta])
        manifest.add_tombstones(ids[~in_delta])
        self._mutated()

    def update(self, gid: int, obj) -> None:
        """Replace one live object's keywords, keeping its global id."""
        ids = _checked_ids([gid])
        if np.ndim(gid):
            raise QueryError(f"update takes one object id; got {gid!r}")
        (gid,) = ids.tolist()
        manifest = self.manifest
        rows = manifest.delta.rows_of(ids)
        if not self._is_live(ids, rows).all():
            raise QueryError(f"cannot update id {gid}: not a live object")
        new = self._encode([obj])
        if rows[0] >= 0:
            manifest.delta.replace(rows[0], new)
        else:
            # A base object cannot change in place: tombstone the base
            # copy and insert the replacement — same id — into the run.
            manifest.add_tombstones(ids)
            manifest.delta.add(ids, new)
        self._mutated()

    def _is_live(self, gids: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Which of ``gids`` are live: in the delta run (at ``rows``), or base ids neither tombstoned nor retired."""
        return (rows >= 0) | self.manifest.base_alive(gids)

    def _mutated(self) -> None:
        manifest = self.manifest
        manifest.mutation_epoch += 1
        # A mutation stales this index's cached results; other indexes'
        # caches are untouched — that is the whole point of per-index
        # hooks. Plans are not touched: a dirty index compiles per batch.
        self.handle.session._notify_invalidated(self.handle.name)
        if self.config.auto_compact:
            self.maybe_compact()

    # ------------------------------------------------------------------
    # scan-time materialization

    def delta_part(self):
        """The delta run as one scan source, or ``None`` while it holds nothing.

        Catches the run's index up with the edits since the last search (the
        host pays ``index_build`` for that splice); the part that scanned the
        previous index is evicted before it is dropped, so the session's
        residency accounting never leaks device bytes.
        """
        run = self.manifest.delta
        if not len(run):
            self.release()
            return None
        ops = run.refresh()
        if self.part is None or self.part.index is not run.index:
            self.release()
            handle, session = self.handle, self.handle.session
            session.host.charge_ops(ops, stage="index_build")
            engine = GenieEngine(device=session.device, host=session.host, config=handle.config)
            self.part = SliceCopy(
                handle, ShardSlice(handle.num_parts, None, run.global_ids, run.index), engine
            )
        return self.part

    def release(self) -> None:
        """Evict and forget the delta part."""
        if self.part is not None and self.part.resident:
            self.handle.session._evict_part(self.part)
        self.part = None

    # ------------------------------------------------------------------
    # compaction

    def maybe_compact(self) -> bool:
        """Compact when delta pressure crosses the configured ratio."""
        manifest = self.manifest
        if not len(manifest.delta) and not manifest.tombstones.size:
            return False
        base_entries = sum(self.handle.plan.entries())
        ratio = self.config.compact_ratio
        if (
            manifest.delta_postings > ratio * max(1, base_entries)
            or manifest.tombstones.size > ratio * max(1, manifest.base_objects)
        ):
            return self.compact()
        return False

    def compact(self) -> bool:
        """Rewrite base + delta + tombstones into a fresh CSR base.

        The new base indexes the logical corpus — the partition's slices
        with the tombstones and the delta run laid over them
        (:meth:`ShardPlan.reassemble <repro.cluster.plan.ShardPlan.reassemble>`)
        — cut where the partition says a rebuild keeps its cuts
        (``carried_bounds``: ranges ``rebalance()`` recut stay recut). It
        is built host-side first, then swapped in under the
        session's residency budget (old parts and the delta part evicted,
        new parts attached — atomic from any observer's point of view:
        no search runs mid-swap in the synchronous session). Results are
        unchanged by construction, so cached query *results* stay valid;
        only the index's cached plans go, dropped by ``_install`` (the
        shard keyword tables the planner routes against did change).

        Returns:
            Whether anything was compacted (``False`` on a clean index).
        """
        if not self.dirty:
            return False
        session = self.handle.session
        manifest = self.manifest
        folded_postings = int(manifest.delta_postings)
        folded_tombstones = manifest.tombstones.size
        host_before = session.host.timings.copy()
        plan = self.handle.plan
        corpus = plan.reassemble(
            [(None, manifest.tombstones), (manifest.delta.corpus, manifest.delta.global_ids)],
            manifest.next_gid,
        )
        # The dead keep their ids as empty base objects, and stay dead.
        ids = np.arange(manifest.next_gid, dtype=ID_DTYPE)
        manifest.retire(~self._is_live(ids, manifest.delta.rows_of(ids)))
        self.release()
        self.handle._install(corpus, plan.carried_bounds(len(corpus)))
        manifest.delta = DeltaRun(self.handle.config.load_balance)
        manifest.tombstones = np.empty(0, dtype=ID_DTYPE)
        manifest.base_objects = manifest.next_gid
        manifest.compactions += 1
        spent = timings_delta(host_before, session.host.timings).total
        logger.debug(
            "compact index=%s postings=%d tombstones=%d compactions=%d seconds=%.6g",
            self.handle.name, folded_postings, folded_tombstones, manifest.compactions, spent,
        )
        tracer = getattr(session, "tracer", None)
        if tracer is not None:
            start = tracer.clock.now() if tracer.clock is not None else 0.0
            tracer.record(Span(
                "compaction", start=start, duration=spent,
                index=self.handle.name, postings=folded_postings, tombstones=folded_tombstones,
                compactions=manifest.compactions,
            ))
        return True
