"""The GENIE session: one device, many resident indexes, one search surface.

:class:`GenieSession` owns a shared simulated :class:`~repro.gpu.device.Device`
and :class:`~repro.gpu.host.HostCpu` plus a device-memory budget for index
residency. Indexes of any modality are created through one call::

    session = GenieSession(memory_budget=64 << 20)
    docs = session.create_index(texts, model="document", name="tweets")
    result = docs.search(["gpu similarity search"], k=10)

Every index holds one partition (``handle.plan``, a
:class:`~repro.cluster.plan.ShardPlan`): one or more *slices*, each a corpus
slice with its own inverted index, built once on the host, and one
:class:`~repro.cluster.plan.SliceCopy` per replica. The session swaps
copies through device memory on demand: attaching pays the paper's
``index_transfer`` stage, and when the budget is exceeded the
least-recently-used resident copy is evicted. This generalizes the
multi-loading strategy of Section III-D — one oversized index
(``part_size=...``) and several small indexes of different modalities are
the same residency problem — and is how the session serves multi-tenant
traffic from a single card (Table IV's memory accounting bounds what fits
next to the queries).

Results come back as a :class:`SearchResult`: per-query top-k ids and
counts, the per-stage :class:`~repro.gpu.stats.StageTimings` profile
(including swap-in transfers and host verification), the model-specific
payload (e.g. edit-distance-verified sequence matches), and the residency
events (evictions / swap-ins) the search caused.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.api.models import MatchModel, resolve_model, resolve_shortlist_k
from repro.cluster.plan import Placement, ShardPlan, SliceCopy, part_bounds
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.inverted_index import InvertedIndex
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch, TopKResult
from repro.errors import ConfigError, GpuOutOfMemoryError, QueryError
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings, timings_delta
from repro.obs.trace import Span
from repro.plan.cache import PlanCache
from repro.plan.cost import calibrate_session
from repro.plan.executor import execute_plan
from repro.plan.nodes import PlanNode, RoutingSummary
from repro.plan.planner import (
    active_batch,
    compile_search,
    eligibility_needed,
    reprice_plan,
    validate_plan_args,
)
from repro.replica.faults import STATUS_DOWN
from repro.replica.rebalance import balanced_range_bounds

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
        if int(limit) < 1:
            raise ConfigError("residency log limit must be >= 1")
        self.limit = int(limit)
        self.total_events = 0
        self._events: deque[ResidencyEvent] = deque(maxlen=self.limit)

    def append(self, event: ResidencyEvent) -> None:
        """Record one event, dropping the oldest beyond the limit."""
        self._events.append(event)
        self.total_events += 1

    def mark(self) -> int:
        """Current position in the lifetime stream (for :meth:`since`)."""
        return self.total_events

    def since(self, mark: int) -> list[ResidencyEvent]:
        """Events appended after ``mark`` that are still retained."""
        first_retained = self.total_events - len(self._events)
        skip = max(0, mark - first_retained)
        if skip == 0:
            return list(self._events)
        return list(self._events)[skip:]

    @property
    def dropped(self) -> int:
        """Events no longer retained because of the limit."""
        return self.total_events - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, i):
        return list(self._events)[i]


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
        predicted_cost: The planner's predicted critical-path seconds
            when the session's cost model priced this plan (``None`` for
            serial plans and uncalibrated sessions) — compare against
            the observed ``profile`` to audit the model.
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
    predicted_cost: float | None = None
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


class GenieSession:
    """Shared device/host plus budgeted multi-index residency.

    Args:
        device: Simulated GPU shared by every index (fresh when omitted).
        host: Simulated host CPU (index builds, merges, verification).
        config: Default engine configuration for created indexes.
        memory_budget: Device bytes index residency may occupy
            concurrently; defaults to the device's full global memory.
            Queries need headroom next to the indexes, so multi-tenant
            sessions should budget below capacity.
        plan_cache_size: Compiled plans the session's
            :class:`~repro.plan.cache.PlanCache` retains (repeated batch
            shapes on clean sharded indexes with a broadcast route skip
            planning and its ``plan_route`` charge). ``0`` or ``None``
            disables the cache.
    """

    def __init__(
        self,
        device: Device | None = None,
        host: HostCpu | None = None,
        config: GenieConfig | None = None,
        memory_budget: int | None = None,
        plan_cache_size: int | None = 256,
    ):
        self.device = device if device is not None else Device()
        self.host = host if host is not None else HostCpu()
        self.config = config if config is not None else GenieConfig()
        if memory_budget is None:
            memory_budget = self.device.memory.capacity
        if int(memory_budget) <= 0:
            raise ConfigError("memory_budget must be positive")
        self.memory_budget = int(memory_budget)
        # Shard devices: pool position 0 is the session's primary device;
        # sharded indexes extend the pool on demand (same spec/cost model)
        # and shard i of every sharded index lives on pool device i. The
        # memory budget bounds *aggregate* residency across the pool.
        self._device_pool: list[Device] = [self.device]
        self.residency_log = ResidencyLog()
        self._handles: dict[str, IndexHandle] = {}
        self._resident: dict[int, SliceCopy] = {}  # insertion order == LRU order
        self._auto_names = 0
        self._closed = False
        self._invalidation_hooks: list[Callable[[str], None]] = []
        # Searches register a sink here to observe their own residency
        # events exactly, independent of the bounded log's retention.
        self._event_sinks: list[list[ResidencyEvent]] = []
        self.plan_cache = PlanCache(capacity=plan_cache_size) if plan_cache_size else None
        self._cost_coefficients: dict | None = None
        # Serving layers attach a repro.obs.Tracer here; background work
        # (stream compaction) records standalone spans through it.
        self.tracer = None
        # Fault injection (repro.replica): a FaultInjector attached via
        # inject_faults(); the plan executor consults it per shard scan.
        self.faults = None
        # Rolling per-device busy seconds — the least-loaded replica
        # selection signal. Created lazily on the first recorded scan.
        self._device_load = None
        # Searches register a sink here to collect the failover events
        # their own shard scans emitted (mirrors _event_sinks).
        self._failover_sinks: list[list] = []

    # ------------------------------------------------------------------
    # cost model

    @property
    def cost_coefficients(self) -> dict | None:
        """Fitted :class:`~repro.plan.cost.CostModel` coefficients.

        ``None`` until :meth:`calibrate_cost_model` runs (the planner
        then follows its rule-based fallbacks). Assigning a dict — the
        calibration result or a hand-rolled one in tests — flushes the
        plan cache, so previously cached pricing decisions can never
        outlive the model that made them.
        """
        return self._cost_coefficients

    @cost_coefficients.setter
    def cost_coefficients(self, coefficients: dict | None) -> None:
        self._cost_coefficients = dict(coefficients) if coefficients is not None else None
        if self.plan_cache is not None:
            self.plan_cache.clear()

    def calibrate_cost_model(self, seed: int = 0) -> dict:
        """Fit the session's cost model from a seeded probe replay.

        Runs :func:`repro.plan.cost.calibrate_session`: a scratch session
        with this session's device/host specs replays probe workloads and
        least-squares-fits the match and top-up coefficients, so this
        session's own timings are untouched. Afterwards ``plan="auto"``
        on sharded indexes prices one-round against two-round instead of
        holding one-round, and ``explain()`` shows ``cost≈`` lines.
        """
        return calibrate_session(self, seed=seed)

    # ------------------------------------------------------------------
    # devices

    def shard_devices(self, n: int) -> list[Device]:
        """The first ``n`` pool devices, creating any that do not exist.

        Device 0 is the session's primary :attr:`device`; new pool devices
        share its spec and cost model. Shard ``i`` of every sharded index
        maps to pool device ``i``, so two 4-shard indexes contend for the
        same four devices — multi-tenancy over one fixed cluster.
        """
        if int(n) < 1:
            raise ConfigError("need at least one shard device")
        while len(self._device_pool) < int(n):
            self._device_pool.append(Device(spec=self.device.spec, costs=self.device.costs))
        return self._device_pool[: int(n)]

    def device_position(self, device: Device) -> int:
        """Pool position of ``device`` (identity match), or ``-1``.

        Fault plans and the load tracker address devices by pool
        position; ``-1`` (a device outside the pool) is always healthy
        and unloaded.
        """
        for position, pooled in enumerate(self._device_pool):
            if pooled is device:
                return position
        return -1

    @property
    def device_load(self):
        """Rolling per-device busy seconds (lazily created tracker)."""
        if self._device_load is None:
            from repro.replica.load import DeviceLoadTracker

            self._device_load = DeviceLoadTracker()
        return self._device_load

    # ------------------------------------------------------------------
    # fault injection

    def inject_faults(self, plan, clock=None, **injector_opts):
        """Attach a deterministic fault schedule to this session.

        ``plan`` is a :class:`~repro.replica.faults.FaultPlan` (or a
        plain iterable of :class:`~repro.replica.faults.FaultEvent`).
        Shard scans consult the resulting
        :class:`~repro.replica.faults.FaultInjector` before dispatch and
        fail over to surviving replicas; the injector's clock is wired
        automatically when a :class:`~repro.serve.server.GenieServer`
        is constructed over this session, or can be passed here.

        Returns the attached injector; ``inject_faults(None)`` detaches.
        """
        if plan is None:
            self.faults = None
            return None
        from repro.replica.faults import FaultInjector, FaultPlan

        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self.faults = FaultInjector(plan, clock=clock, **injector_opts)
        return self.faults

    def _record_failover(self, event) -> None:
        """Deliver one failover event to every registered search sink."""
        logger.debug(
            "failover index=%s shard=%d device=%d attempt=%d permanent=%s",
            event.index, event.shard, event.device, event.attempt, event.permanent,
        )
        for sink in self._failover_sinks:
            sink.append(event)

    # ------------------------------------------------------------------
    # index lifecycle

    def create_index(
        self,
        data,
        model: MatchModel | str,
        name: str | None = None,
        config: GenieConfig | None = None,
        part_size: int | None = None,
        swap_parts: bool = False,
        shards: int | None = None,
        shard_strategy: str = "range",
        shard_seed: int = 0,
        replicas: int | None = None,
        stream_config=None,
        **model_kwargs,
    ) -> "IndexHandle":
        """Encode ``data`` with ``model`` and register a fitted index.

        Args:
            data: Raw data in the model's corpus format (texts, points,
                column dict, keyword sets, ...).
            model: Registry name (``"document"``, ``"ann-e2lsh"``, ...) or
                a :class:`~repro.api.models.MatchModel` instance.
            name: Session-unique index name; auto-generated when omitted.
            config: Engine configuration override (session default
                otherwise). Models may adapt it (e.g. ANN's count bound).
            part_size: Objects per part; partitions the corpus so datasets
                larger than the budget swap through device memory
                (Section III-D). ``None`` builds one part.
            swap_parts: Evict each part right after querying it (the
                paper's multi-loading protocol). ``False`` leaves parts
                resident until the budget forces eviction.
            shards: Partition the corpus across this many simulated
                devices and scan them concurrently (see
                :mod:`repro.cluster`); the handle then carries a
                :class:`~repro.cluster.plan.Placement` as
                ``handle.placement`` (``None`` on unsharded handles).
                Mutually exclusive with ``part_size``/``swap_parts``
                (sharding multiplexes space, multi-loading time).
            shard_strategy: ``"range"`` or ``"hash"`` partitioning.
            shard_seed: Hash-partition seed.
            replicas: Place this many copies of every shard slice on
                distinct pool devices (requires ``shards=``; omitted
                means one). Shard scans pick the least-loaded live
                replica and fail over past faulted devices (see
                :mod:`repro.replica`).
            stream_config: :class:`~repro.stream.StreamConfig` governing
                online ``insert``/``delete``/``update`` on the handle
                (compaction thresholds); defaults apply when omitted and
                the handle is mutated.
            model_kwargs: Forwarded to the model factory for string specs.

        Returns:
            The fitted :class:`IndexHandle`.

        Raises:
            ConfigError: Bad arguments or data the model cannot encode;
                the index is then *not* registered.
        """
        handle = self.declare_index(
            model, name=name, config=config, part_size=part_size,
            swap_parts=swap_parts, shards=shards, shard_strategy=shard_strategy,
            shard_seed=shard_seed, replicas=replicas,
            stream_config=stream_config, **model_kwargs,
        )
        try:
            return handle.fit(data)
        except Exception:
            # A failed fit must not leave an unfitted index registered
            # under the name (a retry would collide with it).
            self.drop(handle.name)
            raise

    def declare_index(
        self,
        model: MatchModel | str,
        name: str | None = None,
        config: GenieConfig | None = None,
        part_size: int | None = None,
        swap_parts: bool = False,
        shards: int | None = None,
        shard_strategy: str = "range",
        shard_seed: int = 0,
        replicas: int | None = None,
        stream_config=None,
        **model_kwargs,
    ) -> "IndexHandle":
        """Register an *unfitted* index; call :meth:`IndexHandle.fit` later.

        Exposes a configured engine before data arrives; most callers
        want :meth:`create_index`.
        """
        self._check_open()
        model = resolve_model(model, **model_kwargs)
        if name is None:
            name = f"{getattr(model, 'name', 'index')}-{self._auto_names}"
            self._auto_names += 1
        if name in self._handles:
            raise ConfigError(f"an index named {name!r} already exists in this session")
        if shards is None:
            if shard_strategy != "range" or shard_seed != 0:
                raise ConfigError(
                    "shard_strategy=/shard_seed= require shards=N"
                )
            if replicas is not None:
                raise ConfigError("replicas= requires shards=N")
            placement = None
        else:
            if part_size is not None or swap_parts:
                raise ConfigError(
                    "shards= is mutually exclusive with part_size=/swap_parts=; "
                    "sharding partitions across devices, multi-loading through one"
                )
            placement = Placement(
                shards, 1 if replicas is None else replicas, shard_strategy, shard_seed
            )
        handle = IndexHandle(
            self, name, model, config if config is not None else self.config,
            part_size=part_size, swap_parts=swap_parts, placement=placement,
        )
        if stream_config is not None:
            handle.stream_config = stream_config
        self._handles[name] = handle
        return handle

    def index(self, name: str) -> "IndexHandle":
        """Look up a registered index by name."""
        try:
            return self._handles[name]
        except KeyError:
            raise ConfigError(
                f"no index named {name!r}; registered: {list(self._handles)}"
            ) from None

    @property
    def indexes(self) -> tuple[str, ...]:
        """Names of registered indexes, in creation order."""
        return tuple(self._handles)

    def evict(self, name: str) -> None:
        """Evict every resident part of the named index."""
        self.index(name).evict()

    def drop(self, name: str) -> None:
        """Evict and unregister the named index (its name may be reused)."""
        handle = self.index(name)
        handle.evict()
        del self._handles[name]
        if self.plan_cache is not None:
            self.plan_cache.invalidate(name)
        self._notify_invalidated(name)

    def evict_all(self) -> None:
        """Evict every resident part (handles stay registered and usable)."""
        for handle in self._handles.values():
            handle.evict()

    def close(self) -> None:
        """Shut the session down: evict everything and refuse further work.

        Idempotent. Handles stay registered for inspection, but subsequent
        :meth:`create_index` / :meth:`IndexHandle.search` /
        :meth:`IndexHandle.fit` calls raise :class:`ConfigError` — serving
        layers rely on this as the definitive end of a session's lifetime.
        Use :meth:`evict_all` to free device memory while staying open.
        """
        if self._closed:
            return
        self.evict_all()
        self._closed = True

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("session is closed")

    def __enter__(self) -> "GenieSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # invalidation hooks (serving-layer caches subscribe here)

    def add_invalidation_hook(self, hook: Callable[[str], None]) -> None:
        """Call ``hook(index_name)`` whenever an index's results go stale.

        Fired by :meth:`drop`, :meth:`IndexHandle.fit` (a refit changes
        what every query would return) and every online mutation. The
        serve layer's query-result cache subscribes to drop exactly the
        stale entries. Compiled plans are not results: they go stale only
        where the handle reinstalls its partition (``_install``).
        """
        self._invalidation_hooks.append(hook)

    def _notify_invalidated(self, name: str) -> None:
        for hook in self._invalidation_hooks:
            hook(name)

    # ------------------------------------------------------------------
    # residency

    @property
    def resident_bytes(self) -> int:
        """Device bytes currently occupied by resident index parts."""
        return sum(part.device_bytes for part in self._resident.values())

    def resident_parts(self) -> list[tuple[str, int]]:
        """``(index_name, part_position)`` pairs, LRU-first."""
        return [(p.handle.name, p.position) for p in self._resident.values()]

    def _ensure_resident(self, part: SliceCopy) -> bool:
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
        if part.device_bytes > self.memory_budget < self.device.memory.capacity:
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
                f"memory budget of {self.memory_budget} bytes; {advice}"
            )
        while self._resident and self.resident_bytes + part.device_bytes > self.memory_budget:
            self._evict_lru()
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
                self._evict_part(victim)
        self._resident[key] = part
        self._record_event(
            ResidencyEvent("attach", part.handle.name, part.position, part.device_bytes)
        )
        return True

    def _record_event(self, event: ResidencyEvent) -> None:
        self.residency_log.append(event)
        for sink in self._event_sinks:
            sink.append(event)

    def _evict_lru(self) -> None:
        part = next(iter(self._resident.values()))
        self._evict_part(part)

    def _evict_part(self, part: SliceCopy) -> None:
        self._resident.pop(id(part), None)
        if part.engine.index_resident:
            part.engine.release()
        logger.debug(
            "evict index=%s part=%d bytes=%d resident_bytes=%d",
            part.handle.name, part.position, part.device_bytes, self.resident_bytes,
        )
        self._record_event(
            ResidencyEvent("evict", part.handle.name, part.position, part.device_bytes)
        )


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
        if part_size is not None and part_size < 1:
            raise ConfigError("part_size must be >= 1")
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
        #: Per-shard stage profiles of the last search, in shard order.
        #: ``()`` until a sharded search succeeds — and again after a
        #: search *fails*, so a monitoring caller never reads a previous
        #: search's profiles as if they belonged to the failed one.
        self.shard_profiles: tuple[StageTimings, ...] = ()
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
        self._engine0 = GenieEngine(
            device=session.device, host=session.host, config=self.config
        )

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
        self.session._check_open()
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
                SliceCopy(self, shard, self._part_engine(shard.position, replica, pool[device]), replica)
                for replica, device in enumerate(devices)
            ]
            for shard, devices in zip(plan.shards, layout)
        ]
        # Shards and an unpartitioned index attach now; multi-loading parts
        # (and anything under swap_parts) wait for the search that scans them.
        if placement is not None or (self.part_size is None and not self.swap_parts):
            for copies in self._copies:
                for part in copies:
                    session._ensure_resident(part)

    def evict(self) -> None:
        """Release every resident part of this index (the delta part too)."""
        for part in self._all_parts():
            if part.resident:
                self.session._evict_part(part)

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
        objects between devices without changing any answer, which the
        equivalence tests pin.

        Returns ``True`` if the partition changed. No-ops (``False``)
        for unsharded or hash-partitioned handles, while mutations are
        live (``compact()`` first — a compacted index recuts like a
        freshly fitted one), for degenerate weights, and for cuts
        identical to the current bounds.

        Raises:
            ConfigError: Called on an unfitted sharded handle.
        """
        self.session._check_open()
        placement = self.placement
        if placement is None:
            return False
        if self.plan is None:
            raise ConfigError(f"cannot rebalance unfitted index {self.name!r}")
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
        injected fault plan and on unsharded or unfitted handles.
        """
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
                    self, part.slice, self._part_engine(shard, replica, pool[target]), replica
                )
                if part.resident:
                    session._evict_part(part)
                copies[replica] = replacement
                self.placement = self.placement.moved(shard, replica, target)
                session._ensure_resident(replacement)
                placed += 1
        return placed

    # ------------------------------------------------------------------
    # online mutations (see repro.stream)

    def _stream_state(self):
        self.session._check_open()
        if not self._copies:
            raise QueryError("index must be fitted before mutating")
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
        self.session._check_open()
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
        """
        self.session._check_open()
        if not self._copies:
            raise QueryError("index must be fitted before searching")
        raw_queries = list(raw_queries)
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
        # The open/fitted checks must precede the encode (an unfitted
        # model has no vocabulary/discretizers to encode against);
        # everything else is _compile's, shared with search_encoded.
        self.session._check_open()
        if not self._copies:
            raise QueryError("index must be fitted before searching")
        queries = self.encode_queries(list(raw_queries))
        _, compiled, _ = self._compile(queries, k, route, plan, search_opts)
        return compiled.root

    def _compile(self, queries, k, route, plan, search_opts):
        """Shared search preamble: validation + plan compilation.

        Both :meth:`search_encoded` and :meth:`explain` funnel through
        here, so an explained plan always reflects exactly what a search
        with the same arguments would validate and execute. A compile
        that reads only the batch's shape — a clean sharded index whose
        route consults no per-query eligibility — consults the session's
        :class:`~repro.plan.cache.PlanCache` first: a hit skips planning
        entirely (and its ``plan_route`` charge — the decisions were paid
        at first compile). Everything else compiles per batch.

        Returns:
            ``(k, compiled, cache_hit)`` — whether the plan came from the
            cache (trace spans and cache-audit callers read the flag).
        """
        self.session._check_open()
        if not self._copies:
            raise QueryError("index must be fitted before searching")
        if len(queries) == 0:
            raise QueryError("empty query batch")
        k = int(k if k is not None else self.config.k)
        if k < 1:
            raise QueryError("k must be >= 1")
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
        shape = (
            k, retrieval_k, tuple(sorted(search_opts.items())), norm_route, norm_plan,
            tuple((queries.items_per_query > 0).tolist()),
        )
        try:
            hit = cache.fetch(self.name, shape)
        except TypeError:  # an unhashable search-option value: compile uncached
            return k, compile_now(), False
        if hit is not None:
            # Reuse the cached decision, but re-extract this batch's cost
            # features so the reported predicted_cost describes *these*
            # queries, not whichever batch compiled the plan first.
            return k, reprice_plan(self, hit, queries), True
        compiled = compile_now()
        cache.store(self.name, shape, compiled)
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
        self.shard_profiles = ()
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
            plan_attrs = {"cache_hit": plan_cache_hit, "merge": compiled.merge}
            if compiled.predicted_cost is not None:
                plan_attrs["predicted_cost"] = compiled.predicted_cost
            host = self.session.host
            span.child(
                "plan",
                duration=compiled.routing_ops / (host.spec.ops_per_second * host.cores),
                **plan_attrs,
            )

        # A private sink observes this search's residency events exactly;
        # the session-level log is bounded and may drop older entries. A
        # second sink collects the failover events the scans emit.
        events: list[ResidencyEvent] = []
        failovers: list = []
        self.session._event_sinks.append(events)
        self.session._failover_sinks.append(failovers)
        profile = StageTimings()
        shard_profiles: list[StageTimings] | None = None
        try:
            if len(active_queries):
                merged, shard_profiles = execute_plan(
                    compiled, self, active_queries, batch_size, profile, trace=span
                )
            else:
                merged = TopKBatch.empty(0)
        finally:
            self.session._event_sinks.remove(events)
            self.session._failover_sinks.remove(failovers)

        if span is not None:
            for ev in failovers:
                # Failovers happen before their shard's surviving scan;
                # the span records which device was skipped and what the
                # detection retry cost on the critical path.
                span.child(
                    "failover",
                    duration=ev.penalty,
                    shard=ev.shard,
                    device=ev.device,
                    attempt=ev.attempt,
                    permanent=ev.permanent,
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
            evicted=tuple(ev for ev in events if ev.kind == "evict"),
            swapped_in=sum(1 for ev in events if ev.kind == "attach"),
            shard_profiles=tuple(shard_profiles) if shard_profiles is not None else None,
            plan=compiled.root,
            routing=compiled.routing,
            predicted_cost=compiled.predicted_cost,
            trace=span,
            failovers=tuple(failovers),
        )
        self.last_result = result
        self.shard_profiles = result.shard_profiles or ()
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
        devices = self.placement.layout[part.position]
        return tuple(sorted(
            self._copies[part.position],
            key=lambda copy: (load.load(devices[copy.replica]), copy.replica),
        ))

    @staticmethod
    def _scatter(merged: TopKBatch, active: list[int], total: int) -> TopKBatch:
        """``merged`` back at the active queries' positions; elided queries answer nothing."""
        if len(active) == total:
            return merged
        return TopKBatch.empty(total).replace(active, merged)
