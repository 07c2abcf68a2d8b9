"""One named index of a session (:class:`IndexHandle`) and its answer (:class:`SearchResult`).

Every index holds one partition (``handle.plan``, a
:class:`~repro.cluster.plan.ShardPlan`): one or more *slices*, each a corpus
slice with its own inverted index, built once on the host, and one
:class:`~repro.cluster.plan.SliceCopy` per replica, which the session's
residency swaps through device memory.

Results come back as a :class:`SearchResult`: per-query top-k ids and
counts, the per-stage :class:`~repro.gpu.stats.StageTimings` profile
(including swap-in transfers and host verification), the model-specific
payload (e.g. edit-distance-verified sequence matches), and the residency
events (evictions / swap-ins) the search caused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.api.models import MatchModel, resolve_shortlist_k
from repro.api.residency import ResidencyEvent
from repro.cluster.plan import Placement, ShardPlan, SliceCopy, part_bounds
from repro.core.engine import GenieConfig, GenieEngine, count_option, listed, resolve_k
from repro.core.inverted_index import InvertedIndex
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch, TopKResult
from repro.errors import ConfigError, QueryError
from repro.gpu.device import Device
from repro.gpu.stats import StageTimings, timings_delta
from repro.obs.trace import Span
from repro.plan.executor import execute_plan
from repro.plan.nodes import PlanNode, RoutingSummary
from repro.plan.planner import active_batch, compile_search, eligibility_needed, reprice_plan, validate_plan_args
from repro.replica.faults import STATUS_DOWN
from repro.replica.rebalance import balanced_range_bounds

if TYPE_CHECKING:
    from repro.api.session import GenieSession


@dataclass
class SearchResult:
    """Uniform answer of :meth:`IndexHandle.search` for every modality.

    Attributes:
        results: One :class:`~repro.core.types.TopKResult` per raw query,
            in input order.
        profile: Per-stage simulated seconds for this search, including
            any ``index_transfer`` swap-ins and host-side ``verify`` /
            ``result_merge`` work it caused.
        payload: Model-specific extras — ``None`` for plain match-count
            models, verified :class:`~repro.sa.sequence.SequenceSearchResult`
            objects for ``"sequence"``, ``(ids, counts, counts/m)`` triples
            for ANN models.
        evicted: Residency evictions this search forced (other indexes or
            this index's own parts swapping out).
        swapped_in: Number of parts transferred to the device during the
            search (0 when everything was already resident).
        shard_profiles: Per-shard stage profiles when the search ran on a
            sharded index (``profile`` is then the concurrent critical
            path — slowest shard plus the host merge); ``None`` for
            unsharded indexes. Shards the plan pruned entirely report an
            empty profile.
        plan: The logical plan the search executed (see
            :mod:`repro.plan`); render it with ``result.plan.render()``.
        routing: Scan/prune pair accounting for sharded plans
            (:class:`~repro.plan.nodes.RoutingSummary`); ``None`` for
            serial plans.
        trace: Execution span tree (:class:`~repro.obs.trace.Span`) when
            the search was called with ``trace=True``: plan compile,
            per-part/per-shard scans, the delta scan, tombstone filter,
            merge, finalize — on a timeline starting at 0.0 simulated
            seconds. ``None`` otherwise (untraced searches allocate no
            spans).
        failovers: :class:`~repro.replica.faults.FailoverEvent` records
            for every scan attempt this search re-dispatched past a
            failed device (replicated indexes under an injected
            :class:`~repro.replica.faults.FaultPlan`); ``()`` otherwise.
            The retry penalties are already charged on ``profile``'s
            critical path as the ``failover_retry`` stage.
    """

    results: list[TopKResult]
    profile: StageTimings
    payload: Any = None
    evicted: tuple[ResidencyEvent, ...] = ()
    swapped_in: int = 0
    shard_profiles: tuple[StageTimings, ...] | None = None
    plan: PlanNode | None = None
    routing: RoutingSummary | None = None
    trace: Span | None = None
    failovers: tuple = ()

    @property
    def ids(self) -> list[np.ndarray]:
        """Per-query result ids, aligned with the raw queries."""
        return [r.ids for r in self.results]

    @property
    def counts(self) -> list[np.ndarray]:
        """Per-query match counts, aligned with the raw queries."""
        return [r.counts for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i: int) -> TopKResult:
        return self.results[i]


class IndexHandle:
    """One named index inside a session: the uniform search surface.

    Obtained from :meth:`GenieSession.create_index`; not constructed
    directly. The handle owns the model (encoders), the adapted engine
    configuration, and one partition of the corpus (``plan``) whose slice
    copies the session swaps through device memory.

    ``placement`` says where the copies live, and is what separates the
    two ways of outgrowing a device. ``None`` is Section III-D
    multi-loading: one slice, or ``part_size`` slices that swap through
    the session's one device and merge on the host. A
    :class:`~repro.cluster.plan.Placement` (``create_index(...,
    shards=N[, replicas=R])``) is its space-multiplexed dual: every
    shard slice is its own residency unit on its own pool device — it
    counts toward the session's aggregate memory budget and is
    LRU-evicted and swapped back in independently — each replica of a
    slice is one more such unit, and results carry per-shard profile
    slices next to the critical-path ``profile``.
    """

    def __init__(
        self,
        session: GenieSession,
        name: str,
        model: MatchModel,
        config: GenieConfig,
        part_size: int | None = None,
        swap_parts: bool = False,
        placement: Placement | None = None,
    ):
        if part_size is not None:
            part_size = count_option(part_size, "part_size", ConfigError)
        self.session = session
        self.name = name
        self.model = model
        adapt = getattr(model, "adapt_config", None)
        self.config = adapt(config) if adapt is not None else config
        self.part_size = part_size
        self.swap_parts = bool(swap_parts)
        self.placement = placement
        #: The fitted partition: every slice's rows, global ids and index
        #: (one slice when neither ``part_size`` nor ``shards`` cut the
        #: corpus; ``None`` until fitted).
        self.plan: ShardPlan | None = None
        #: The last search's result; ``None`` before the first and while a
        #: search runs — so after a *failed* search, a monitoring caller
        #: never reads the previous search's result as if it were this one.
        self.last_result: SearchResult | None = None
        self.fit_epoch = 0
        # _copies[i] holds every replica of plan.shards[i] (one when
        # unsharded), each its own residency unit.
        self._copies: list[list[SliceCopy]] = []
        # Online-mutation state (repro.stream), attached lazily on the
        # first insert/delete/update; ``stream_config`` tunes its
        # compaction thresholds.
        self.stream_config = None
        self._stream = None
        # The primary engine exists before fit so configuration is
        # inspectable.
        self._engine0 = GenieEngine(device=session.device, host=session.host, config=self.config)

    # ------------------------------------------------------------------
    # introspection

    @property
    def engine(self) -> GenieEngine:
        """The first part's engine (the only one for unpartitioned indexes)."""
        return self._engine0

    @property
    def _parts(self) -> list[SliceCopy]:
        """Replica 0 of every part: the copy plans and scans address it by."""
        return [copies[0] for copies in self._copies]

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has produced at least one part."""
        return bool(self._copies)

    @property
    def num_parts(self) -> int:
        """Number of corpus parts."""
        return len(self._copies)

    @property
    def n_shards(self) -> int | None:
        """Shards the corpus is partitioned into (``None`` when unsharded)."""
        return self.placement.shards if self.placement is not None else None

    def shard_devices(self) -> list[Device]:
        """The pool devices this index's shards were dealt, in shard order."""
        return self.session.shard_devices(self.n_shards or 1)

    def replica_layout(self) -> dict[int, tuple[int, ...]]:
        """Current shard → device-position placement (after any healing)."""
        if self.placement is None:
            return {}
        return dict(enumerate(self.placement.layout))

    @property
    def device_bytes(self) -> int:
        """Device bytes the whole index occupies when fully resident."""
        return sum(part.device_bytes for part in self._all_parts())

    def _all_parts(self) -> list[SliceCopy]:
        """Every copy of every part, plus the materialized delta part (if any)."""
        parts = [part for copies in self._copies for part in copies]
        if self._stream is not None and self._stream.part is not None:
            parts.append(self._stream.part)
        return parts

    @property
    def resident_parts(self) -> int:
        """How many of this index's parts are currently device-resident."""
        return sum(1 for part in self._parts if part.resident)

    @property
    def resident(self) -> bool:
        """Whether every part of this index is device-resident."""
        return bool(self._copies) and self.resident_parts == len(self._copies)

    def _require_fitted(self, doing: str | None = "searching", error=QueryError) -> None:
        """Refuse work on a closed session or a dropped handle, and (unless
        ``doing`` is ``None``) on an unfitted one, raising ``error`` naming ``doing``."""
        self.session._check_open()
        if self.session._handles.get(self.name) is not self:
            raise ConfigError(f"index {self.name!r} was dropped from its session")
        if doing is not None and not self._copies:
            raise error(f"index must be fitted before {doing}")

    # ------------------------------------------------------------------
    # lifecycle

    def fit(self, data) -> "IndexHandle":
        """Encode ``data``, build the part indexes on the host.

        Unpartitioned and sharded indexes are attached to their devices
        immediately (paying ``index_transfer``; the session may LRU-evict
        shards later under budget pressure, and search swaps them back in
        per shard);
        ``part_size`` indexes defer residency to search time, matching
        the multi-loading protocol where only builds happen offline.

        Bumps the fit epoch and notifies invalidation hooks (serving
        caches subscribe) — a refit changes what every query returns.
        """
        self._require_fitted(doing=None)
        self.fit_epoch += 1
        self.session._notify_invalidated(self.name)
        corpus = self.model.encode_corpus(data)
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        self.evict()
        self._stream = None  # a refit abandons any live mutations
        self._copies, self.plan = [], None
        self._install(corpus)
        return self

    def _part_engine(self, position: int, replica: int, device: Device) -> GenieEngine:
        """Engine for one copy: the first copy of part 0 reuses the pre-fit engine."""
        if position == 0 and replica == 0 and device is self._engine0.device:
            return self._engine0
        return GenieEngine(device=device, host=self.session.host, config=self.config)

    def _install(self, corpus: Corpus, bounds=None) -> None:
        """Partition ``corpus``, build every slice's index, swap the new copies in.

        The one rebuild routine behind :meth:`fit`, stream compaction and
        :meth:`rebalance`, and the one place the cut is chosen:
        ``part_size`` parts on a multi-loading handle (a rule, not a
        choice — parts must fit the device), else the range ``bounds`` a
        caller hands in (``rebalance``'s new ones, compaction's carried
        ones), else what ``placement`` asks for — one slice without one.
        Every slice
        index is built on the host first (charging ``index_build``), then
        the old copies are evicted and the new ones placed and attached
        under the session's residency budget — atomic to any observer,
        since no search runs mid-swap in the synchronous session. Sharded
        slices go where ``placement.layout`` says (each copy pays
        ``index_transfer`` on its own link), so a copy healed off a failed
        device is not put back by the next rebuild; everything else lives
        on the session device. This is the one place the index's compiled
        plans go stale, so it invalidates them first; result caches are
        the callers' business (a refit notifies them, compaction and
        rebalance leave answers unchanged by construction).
        """
        session, placement = self.session, self.placement
        if session.plan_cache is not None:
            session.plan_cache.invalidate(self.name)
        if self.part_size is not None:
            # Parts are sized to fit the device: recut at part_size on every rebuild.
            bounds = part_bounds(len(corpus), self.part_size)
        if bounds is not None:
            plan = ShardPlan.build_ranges(corpus, bounds)
        elif placement is not None:
            plan = ShardPlan.build(corpus, placement.shards, placement.strategy, placement.seed)
        else:
            plan = ShardPlan.build(corpus, 1)
        for shard in plan.shards:
            shard.index = InvertedIndex.build(shard.corpus, load_balance=self.config.load_balance)
            session.host.charge_ops(shard.index.build_ops, stage="index_build")
        self.evict()
        self.plan = plan
        pool = session.shard_devices(placement.pool_size if placement is not None else 1)
        layout = placement.layout if placement is not None else ((0,),) * plan.n_shards
        self._copies = [
            [
                SliceCopy(self, shard, self._part_engine(shard.position, replica, pool[device]), replica, device)
                for replica, device in enumerate(devices)
            ]
            for shard, devices in zip(plan.shards, layout)
        ]
        # Shards and an unpartitioned index attach now; multi-loading parts
        # (and anything under swap_parts) wait for the search that scans them.
        if placement is not None or (self.part_size is None and not self.swap_parts):
            for copies in self._copies:
                for part in copies:
                    session.residency.attach(part)

    def evict(self) -> None:
        """Release every resident part of this index (the delta part too)."""
        for part in self._all_parts():
            if part.resident:
                self.session.residency.evict(part)

    # ------------------------------------------------------------------
    # self-healing (see repro.replica)

    def rebalance(self, shard_weights) -> bool:
        """Recut a fitted range partition so observed load evens out.

        ``shard_weights`` is one non-negative load figure per shard
        (typically the serve layer's rolling per-shard busy seconds).
        Each shard's weight is spread over its objects as a density, and
        new contiguous range bounds are cut so every shard carries a near
        equal share of the observed load — the hot shard shrinks, its
        neighbours absorb the edges. The plan stays a range partition, so
        keyword-bounds routing (and shard pruning) keeps working.

        Invalidation is scoped: the recut goes through ``_install``, which
        drops this index's cached *plans* (the routing table changed), but
        serve-layer *result* caches are untouched — a rebalance moves
        objects between devices without changing any answer, which
        ``tests/test_oracle.py`` checks.

        Returns ``True`` if the partition changed. No-ops (``False``)
        for unsharded or hash-partitioned handles, while mutations are
        live (``compact()`` first — a compacted index recuts like a
        freshly fitted one), for degenerate weights, and for cuts
        identical to the current bounds.

        Raises:
            ConfigError: Called on an unfitted handle.
        """
        self._require_fitted("rebalancing", ConfigError)
        placement = self.placement
        if placement is None:
            return False
        if placement.strategy != "range" or placement.shards < 2:
            return False
        if self._stream is not None and self._stream.dirty:
            # Live mutations would have to be re-routed mid-flight;
            # compaction folds them into the base first.
            return False
        weights = [float(w) for w in shard_weights][: placement.shards]
        weights += [0.0] * (placement.shards - len(weights))
        bounds = balanced_range_bounds(self.plan.sizes(), weights)
        if bounds is None or bounds == self.plan.bounds:
            return False
        self._install(self.plan.reassemble(), bounds)
        return True

    def re_replicate(self) -> int:
        """Replace replicas stranded on permanently failed devices.

        For every copy whose device the session's fault plan marks
        permanently down, a replacement is placed on the least-loaded
        live pool device not already hosting the shard — re-attaching
        the *surviving* index structure (a group's copies are
        identical), so the cost is an ``index_transfer`` on the new
        device's link, not a rebuild — and ``placement.layout`` records
        the move. Groups whose dead device has no eligible target
        (everything else down or already hosting) are left
        under-replicated for a later pass.

        Returns the number of replicas placed. No-op (``0``) without an
        injected fault plan and on unsharded or unfitted handles; a closed
        session or a dropped handle raises :class:`ConfigError`.
        """
        self._require_fitted(doing=None)
        session = self.session
        faults = session.faults
        if faults is None or self.placement is None or self.plan is None:
            return 0
        pool = session.shard_devices(self.placement.pool_size)
        load = session.device_load
        placed = 0
        for shard, copies in enumerate(self._copies):
            for replica, part in enumerate(copies):
                hosting = self.placement.layout[shard]
                if not faults.permanently_down(hosting[replica]):
                    continue
                candidates = [
                    i for i in range(len(pool))
                    if i not in hosting and faults.state(i)[0] != STATUS_DOWN
                ]
                if not candidates:
                    continue
                target = min(candidates, key=lambda i: (load.load(i), i))
                replacement = SliceCopy(
                    self, part.slice, self._part_engine(shard, replica, pool[target]), replica, target
                )
                if part.resident:
                    session.residency.evict(part)
                copies[replica] = replacement
                self.placement = self.placement.moved(shard, replica, target)
                session.residency.attach(replacement)
                placed += 1
        return placed

    # ------------------------------------------------------------------
    # online mutations (see repro.stream)

    def _stream_state(self):
        self._require_fitted("mutating")
        if self._stream is None:
            from repro.stream import StreamState

            self._stream = StreamState(self, self.stream_config)
        return self._stream

    def insert(self, objects) -> np.ndarray:
        """Add objects online without refitting; returns their global ids.

        The objects land in the mutable delta run composed with the base
        index at search time — results stay bit-identical to a
        from-scratch refit (see :mod:`repro.stream`). Only models whose
        encoders are corpus-stateless support this
        (``model.encode_increment``); stateful models raise
        :class:`~repro.errors.ConfigError` and must refit.
        """
        return self._stream_state().insert(objects)

    def delete(self, ids) -> None:
        """Remove live objects by global id, online (all-or-nothing)."""
        self._stream_state().delete(ids)

    def update(self, obj_id: int, obj) -> None:
        """Replace one live object's contents, keeping its global id."""
        self._stream_state().update(obj_id, obj)

    def compact(self) -> bool:
        """Fold live deltas and tombstones into a fresh CSR base.

        Returns ``False`` when there is nothing to compact. Automatic
        threshold-driven compaction runs after every mutation unless
        ``stream_config`` disables it; this is the manual trigger.
        """
        self._require_fitted(doing=None)
        if self._stream is None:
            return False
        return self._stream.compact()

    @property
    def manifest(self):
        """The stream's :class:`~repro.stream.SegmentManifest` (``None``
        before the first mutation)."""
        return self._stream.manifest if self._stream is not None else None

    @property
    def mutation_epoch(self) -> int:
        """Mutations applied since the last fit (0 before any)."""
        return self._stream.manifest.mutation_epoch if self._stream is not None else 0

    # ------------------------------------------------------------------
    # search

    def search(
        self,
        raw_queries,
        k: int | None = None,
        batch_size: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        trace: bool = False,
        **search_opts,
    ) -> SearchResult:
        """Encode, compile a plan, retrieve (over all parts), merge, verify.

        Every search lowers through the rule-based planner
        (:mod:`repro.plan`): skip-empty queries are elided from the scan,
        range-sharded indexes are shard-pruned, and the merge strategy is
        explicit. :meth:`explain` shows the plan without executing it.

        Args:
            raw_queries: Queries in the model's raw format (texts, points,
                range dicts, keyword sets, ...).
            k: Results per query (engine config default when omitted).
            batch_size: Split the workload into device-sized sub-batches
                (Fig. 11's protocol); one batch when ``None``.
            route: Routing escape hatch for sharded indexes — ``"auto"``
                (default: prune ``"range"`` partitions), ``"pruned"``
                (force pruning, any strategy), ``"broadcast"`` (scan
                every shard).
            plan: Merge-strategy escape hatch for sharded indexes —
                ``"auto"``/``"one-round"`` (each shard returns its full
                top-k) or ``"two-round"`` (the TPUT merge: fetch
                ``ceil(2k/N)`` per shard, top up only where necessary).
            trace: Record an execution span tree on ``result.trace``
                (see :mod:`repro.obs.trace`); off by default — untraced
                searches allocate no spans.
            search_opts: Model-specific options (e.g. the sequence model's
                ``n_candidates`` shortlist width).

        Returns:
            A :class:`SearchResult` aligned with ``raw_queries``; its
            ``plan`` holds the executed plan tree. Results are
            bit-identical under every ``route``/``plan`` choice.

        Raises:
            QueryError: Unfitted index, malformed queries, bad ``k``, or
                a shard-only strategy forced on a serial index.
            ConfigError: The session is closed or the index was dropped.
        """
        self._require_fitted()
        raw_queries = listed(raw_queries, "raw_queries")
        if not raw_queries:
            raise QueryError("empty query batch")
        queries = self.encode_queries(raw_queries)
        return self.search_encoded(
            raw_queries, queries, k=k, batch_size=batch_size,
            route=route, plan=plan, trace=trace, **search_opts,
        )

    def explain(
        self,
        raw_queries,
        k: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        **search_opts,
    ) -> PlanNode:
        """Compile the plan :meth:`search` would execute, without running it.

        Same arguments and validation as :meth:`search` (the queries are
        encoded — routing decisions need their keywords), but no device
        work happens and no state changes. The returned
        :class:`~repro.plan.nodes.PlanNode` renders to a stable text tree
        via ``render()`` / ``str()``.
        """
        # The guard must precede the encode (an unfitted model has no
        # vocabulary/discretizers to encode against); everything else is
        # _compile's, shared with search_encoded.
        self._require_fitted()
        queries = self.encode_queries(listed(raw_queries, "raw_queries"))
        _, compiled, _ = self._compile(queries, k, route, plan, search_opts)
        return compiled.root

    def _compile(self, queries, k, route, plan, search_opts):
        """Shared search preamble: validation + plan compilation.

        Both :meth:`search_encoded` and :meth:`explain` funnel through
        here, so an explained plan always reflects exactly what a search
        with the same arguments would validate and execute. A compile
        that reads only the batch's shape — a clean sharded index whose
        route consults no per-query eligibility — consults the session's
        plan cache first: a hit skips planning entirely. Everything else
        compiles per batch.

        Returns:
            ``(k, compiled, cache_hit)`` — whether the plan came from the
            cache (trace spans and cache-audit callers read the flag).
        """
        self._require_fitted()
        if len(queries) == 0:
            raise QueryError("empty query batch")
        k = resolve_k(k, self.config.k)
        retrieval_k = resolve_shortlist_k(self.model, k, search_opts)

        def compile_now():
            return compile_search(self, queries, k=k, retrieval_k=retrieval_k, route=route, plan=plan)

        cache, placement = self.session.plan_cache, self.placement
        if cache is None or placement is None:
            return k, compile_now(), False
        norm_route, norm_plan = validate_plan_args(route, plan, sharded=True)
        if eligibility_needed(norm_route, placement.strategy) or (
            self._stream is not None and self._stream.dirty
        ):
            return k, compile_now(), False
        key = (
            self.name, k, retrieval_k, tuple(sorted(search_opts.items())), norm_route, norm_plan,
            tuple((queries.items_per_query > 0).tolist()),
        )
        try:
            hit = cache.get(key)
        except TypeError:  # an unhashable search-option value: compile uncached
            return k, compile_now(), False
        if hit is not None:
            return k, reprice_plan(hit), True
        compiled = compile_now()
        cache.put(key, compiled)
        return k, compiled, False

    def encode_queries(self, raw_queries) -> QueryBatch:
        """Encode and validate raw queries without searching.

        The encode-once hook for serving layers: a server encodes each
        request at admission (to build exact-match cache keys and fail fast
        on malformed queries) and later passes the encoded queries to
        :meth:`search_encoded` so the coalesced batch pays no second encode.
        Always one :class:`~repro.core.types.QueryBatch` (a third-party
        model's ``list[Query]`` is converted here); iterate or index it
        for per-query :class:`~repro.core.types.Query` views.
        """
        if not isinstance(raw_queries, list):
            raw_queries = list(raw_queries)
        queries = QueryBatch.from_queries(self.model.encode_queries(raw_queries))
        validate = getattr(self.model, "validate_queries", None)
        if validate is not None:
            validate(raw_queries, queries)
        return queries

    def search_encoded(
        self,
        raw_queries,
        queries: QueryBatch | list[Query],
        k: int | None = None,
        batch_size: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        trace: bool = False,
        **search_opts,
    ) -> SearchResult:
        """Retrieve/merge/verify pre-encoded queries (see :meth:`search`).

        ``queries`` is what :meth:`encode_queries` returned (a list of
        :class:`~repro.core.types.Query` objects is converted on entry);
        ``raw_queries`` must align with it (models' ``finalize`` hooks
        verify against the raw form, e.g. sequence edit distance).

        This is the single execution surface: the batch is compiled by
        :func:`repro.plan.planner.compile_search` and run by
        :func:`repro.plan.executor.execute_plan`, for serial and sharded
        indexes alike (the serve layer's dispatch lands here too).
        """
        self.last_result = None
        if batch_size is not None:
            batch_size = count_option(batch_size, "batch_size")
        queries = QueryBatch.from_queries(queries)
        k, compiled, plan_cache_hit = self._compile(queries, k, route, plan, search_opts)
        if len(raw_queries) != len(queries):
            raise QueryError("raw_queries and queries must align")
        active_queries = active_batch(queries, compiled.active)

        span: Span | None = None
        if trace:
            span = Span("search", index=self.name, k=k, queries=len(queries))
            # Plan routing is pre-dispatch host work, off the batch's
            # critical path (it overlaps device execution under pipelined
            # dispatch) — the span sits at t=0 alongside the first scan.
            host = self.session.host
            span.child(
                "plan",
                duration=compiled.routing_ops / (host.spec.ops_per_second * host.cores),
                cache_hit=plan_cache_hit,
                merge=compiled.merge,
            )

        # A private recording observes this search's residency and failover
        # events exactly; the session-level log is bounded and may drop
        # older entries.
        profile = StageTimings()
        shard_profiles: list[StageTimings] | None = None
        with self.session.residency.recording() as events:
            if len(active_queries):
                merged, shard_profiles = execute_plan(
                    compiled, self, active_queries, batch_size, profile, trace=span
                )
            else:
                merged = TopKBatch.empty(0)
        moves = [ev for ev in events if isinstance(ev, ResidencyEvent)]
        failovers = [ev for ev in events if not isinstance(ev, ResidencyEvent)]

        if span is not None:
            for ev in failovers:
                # Failovers happen before their shard's surviving scan;
                # the span records which device was skipped and what the
                # detection retry cost on the critical path.
                span.child(
                    "failover", duration=ev.penalty, shard=ev.shard, device=ev.device,
                    attempt=ev.attempt, permanent=ev.permanent,
                )
        # The door: the one place a search's answers become per-query objects.
        results = list(self._scatter(merged, compiled.active, len(queries)))

        payload = None
        finalize = getattr(self.model, "finalize", None)
        if finalize is not None:
            host_before = self.session.host.timings.copy()
            payload = finalize(
                raw_queries, queries, results, k=k, host=self.session.host, **search_opts
            )
            finalize_profile = timings_delta(host_before, self.session.host.timings)
            profile.merge(finalize_profile)
            if span is not None:
                span.child(
                    "finalize",
                    start=max((child.end for child in span.children), default=0.0),
                    duration=finalize_profile.query_total(),
                )

        if span is not None:
            span.duration = max((child.end for child in span.children), default=0.0)

        if compiled.shards is not None and shard_profiles is None:
            # Every query was skipped, so no shard ran — but a sharded
            # result keeps the per-shard contract: one (empty) profile
            # per shard, never ().
            shard_profiles = [StageTimings() for _ in range(compiled.shards.n_shards)]
        result = SearchResult(
            results=results,
            profile=profile,
            payload=payload,
            evicted=tuple(ev for ev in moves if ev.kind == "evict"),
            swapped_in=sum(1 for ev in moves if ev.kind == "attach"),
            shard_profiles=tuple(shard_profiles) if shard_profiles is not None else None,
            plan=compiled.root,
            routing=compiled.routing,
            trace=span,
            failovers=tuple(failovers),
        )
        self.last_result = result
        return result

    def _scan_candidates(self, part: "SliceCopy") -> tuple:
        """Copies of ``part``'s slice in dispatch order, least-loaded first.

        The plan executor dispatches each scan to the first live
        candidate. Ordering key is (rolling busy seconds of the copy's
        device, replica number) — deterministic, and self-balancing: a
        slowed device accumulates stretched busy seconds and repels
        traffic. Replica choice deliberately stays *out* of the compiled
        plan: cached plans remain valid across failures and load shifts.
        The delta part is not replicated and passes through as itself.
        """
        if part.position >= len(self._copies) or len(self._copies[part.position]) == 1:
            return (part,)
        load = self.session.device_load
        return tuple(sorted(
            self._copies[part.position],
            key=lambda copy: (load.load(copy.pool_position), copy.replica),
        ))

    @staticmethod
    def _scatter(merged: TopKBatch, active: list[int], total: int) -> TopKBatch:
        """``merged`` back at the active queries' positions; elided queries answer nothing."""
        if len(active) == total:
            return merged
        return TopKBatch.empty(total).replace(active, merged)
