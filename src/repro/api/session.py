"""The GENIE session: one device, many resident indexes, one search surface.

:class:`GenieSession` owns a shared simulated :class:`~repro.gpu.device.Device`
and :class:`~repro.gpu.host.HostCpu` plus a device-memory budget for index
residency (:mod:`repro.api.residency`). Indexes of any modality are created
through one call and searched through their :class:`~repro.api.handle.IndexHandle`::

    session = GenieSession(memory_budget=64 << 20)
    docs = session.create_index(texts, model="document", name="tweets")
    result = docs.search(["gpu similarity search"], k=10)
"""

from __future__ import annotations

import weakref
from typing import Callable

from repro.api.handle import IndexHandle
from repro.api.models import MatchModel, resolve_model
from repro.api.residency import Residency, ResidencyLog
from repro.cluster.plan import Placement
from repro.core.engine import GenieConfig, count_option
from repro.errors import ConfigError
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.plan.cache import LruCache


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
        plan_cache_size: Compiled plans the session's plan cache (a
            :class:`~repro.plan.cache.LruCache`) retains (repeated batch
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
        self.memory_budget = count_option(memory_budget, "memory_budget", ConfigError)
        # Shard devices: pool position 0 is the session's primary device;
        # sharded indexes extend the pool on demand (same spec/cost model)
        # and shard i of every sharded index lives on pool device i. The
        # memory budget bounds *aggregate* residency across the pool.
        self._device_pool: list[Device] = [self.device]
        self.residency_log = ResidencyLog()
        self._handles: dict[str, IndexHandle] = {}
        self.residency = Residency(self)
        self._auto_names = 0
        self._closed = False
        self._invalidation_hooks: list[Callable[[], Callable[[str], None] | None]] = []
        self.plan_cache = LruCache(plan_cache_size) if plan_cache_size else None
        # Serving layers attach a repro.obs.Tracer here; background work
        # (stream compaction) records standalone spans through it.
        self.tracer = None
        # Fault injection (repro.replica): a FaultInjector attached via
        # inject_faults(); the plan executor consults it per shard scan.
        self.faults = None
        # Rolling per-device busy seconds — the least-loaded replica
        # selection signal. Created lazily on the first recorded scan.
        self._device_load = None

    # ------------------------------------------------------------------
    # devices

    def shard_devices(self, n: int) -> list[Device]:
        """The first ``n`` pool devices, creating any that do not exist.

        Device 0 is the session's primary :attr:`device`; new pool devices
        share its spec and cost model. Shard ``i`` of every sharded index
        maps to pool device ``i``, so two 4-shard indexes contend for the
        same four devices — multi-tenancy over one fixed cluster.
        """
        n = count_option(n, "shard device count", ConfigError)
        while len(self._device_pool) < n:
            self._device_pool.append(Device(spec=self.device.spec, costs=self.device.costs))
        return self._device_pool[:n]

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
                raise ConfigError("shard_strategy=/shard_seed= require shards=N")
            if replicas is not None:
                raise ConfigError("replicas= requires shards=N")
            placement = None
        else:
            if part_size is not None or swap_parts:
                raise ConfigError(
                    "shards= is mutually exclusive with part_size=/swap_parts=; "
                    "sharding partitions across devices, multi-loading through one"
                )
            placement = Placement(shards, 1 if replicas is None else replicas, shard_strategy, shard_seed)
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
            raise ConfigError(f"no index named {name!r}; registered: {list(self._handles)}") from None

    @property
    def indexes(self) -> tuple[str, ...]:
        """Names of registered indexes, in creation order."""
        return tuple(self._handles)

    def evict(self, name: str) -> None:
        """Evict every resident part of the named index."""
        self.index(name).evict()

    def drop(self, name: str) -> None:
        """Evict and unregister the named index (its name may be reused); the handle then refuses work."""
        handle = self.index(name)
        handle.evict()
        del self._handles[name]
        if self.plan_cache is not None:
            self.plan_cache.invalidate(name)
        self._notify_invalidated(name)

    def evict_all(self) -> None:
        """Evict every resident part, registered or not (handles stay usable)."""
        self.residency.evict_all()

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

        A bound method is held weakly (it leaves with its owner, so no
        server is kept alive here); any other callable is held as given.
        """
        hooks = self._invalidation_hooks
        try:
            hooks.append(weakref.WeakMethod(hook, hooks.remove))  # leaves when collected
        except TypeError:  # not a bound method
            hooks.append(lambda: hook)

    def _notify_invalidated(self, name: str) -> None:
        for hook in [ref() for ref in self._invalidation_hooks]:
            if hook is not None:
                hook(name)

    # ------------------------------------------------------------------
    # residency (see repro.api.residency)

    @property
    def resident_bytes(self) -> int:
        """Device bytes currently occupied by resident index parts."""
        return self.residency.resident_bytes

    def resident_parts(self) -> list[tuple[str, int]]:
        """``(index_name, part_position)`` pairs, LRU-first."""
        return self.residency.resident_parts()

