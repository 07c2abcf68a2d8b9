"""`GenieServer`: the online front end over a `GenieSession`.

The server is the layer between an online request stream and the batch
kernel. There is one way in: a burst of requests for one index
(``submit_many``; ``submit`` is a burst of one) is validated and encoded
once at the door, answered from the exact-match result cache when
possible, and otherwise queued for the micro-batching scheduler, which
drains requests into coalesced
:meth:`~repro.api.session.IndexHandle.search_encoded` calls.

The result cache is a :class:`~repro.plan.cache.LruCache` — the same
bounded LRU the session keeps its compiled plans in — keyed on the
*encoded* query (:func:`make_cache_key`). Invalidation is event-driven,
not TTL-driven: the session fires an invalidation hook whenever an
index's answers may change (a fit, a mutation, a drop;
:meth:`repro.api.session.GenieSession.add_invalidation_hook`), which
removes exactly that index's entries, so cached results are always
bit-identical to what a direct search would return.

Three serving guarantees:

* **Backpressure, never silent drops** — the queue is bounded
  (``max_queue_depth``); an admission beyond it raises
  :class:`~repro.errors.AdmissionError` and counts in the metrics.
* **Deterministic time** — arrivals, batching deadlines and completions
  live on an injectable :class:`~repro.serve.clock.VirtualClock`; the
  device executes batches serially, so a request's completion is
  ``max(dispatch, device_free) + service`` in simulated seconds. Repeated
  seeded runs produce identical latency percentiles.
* **Observable requests** — every future carries
  :class:`RequestMetadata`: queue time, the batch size it rode in, the
  batch's stage-profile slice, and whether the cache answered it.

Execution is synchronous under the hood (the simulated device needs no
threads): an admission dispatches any batch its arrivals make ready,
``advance()``/``advance_to()`` move virtual time and fire ``max_wait``
deadlines in order, and ``drain()``/``close()`` flush everything queued.

Traced shares of the per-request calls (µs each) read high: the tracer wraps each one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from repro.api.models import resolve_shortlist_k
from repro.api.session import GenieSession
from repro.core.engine import count_option, listed, resolve_k
from repro.core.types import QueryBatch
from repro.errors import AdmissionError, ConfigError, QueryError, ReproError
from repro.gpu.stats import StageTimings
from repro.obs.trace import Span, Tracer
from repro.plan.cache import LruCache
from repro.plan.planner import validate_plan_args
from repro.serve.clock import VirtualClock
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler

logger = logging.getLogger("repro.serve")


def make_cache_key(index: str, query: QueryBatch, k: int, opts_key: tuple, raw=None) -> tuple:
    """The exact-match result-cache key for one encoded request.

    Two raw queries that encode identically share an entry: the key holds
    the *encoded* items, as :meth:`QueryBatch.key_bytes
    <repro.core.types.QueryBatch.key_bytes>`.

    Args:
        index: Index name the request targets (first, so the cache can
            drop one index's entries).
        query: The request's one-query batch (its items define the match).
        k: Results requested.
        opts_key: Canonicalized search options, e.g.
            ``(("n_candidates", 48),)`` — produced with
            ``tuple(sorted(opts.items()))``.
        raw: The raw query, included when the model's ``finalize`` reads
            it (``finalize_uses_raw``): encoding is not injective — e.g.
            the n-gram encoder drops unseen grams — so two raw queries with
            equal encodings could otherwise be served each other's verified
            payload. An unhashable raw query gets no key (``None``): the
            request skips the cache instead of guessing.

    The planner directives (``route``/``plan``) are deliberately not part
    of the key: every strategy returns bit-identical results.
    """
    if raw is not None:
        try:
            hash(raw)
        except TypeError:
            return None
    return (index, query.key_bytes(), int(k), opts_key, raw)


@dataclass(slots=True)
class RequestMetadata:
    """Per-request serving observability, in simulated seconds.

    Attributes:
        index: Index the request targeted.
        k: Results requested.
        seq: Global admission sequence number.
        arrival: Submit time.
        dispatched: When the scheduler drained the request from its queue
            (equals ``arrival`` for cache hits).
        started: When the device began serving its batch (dispatch may
            wait behind an earlier batch on the serial device).
        completed: When its batch finished (== ``arrival`` for cache hits).
        batch_size: Requests in the coalesced batch it rode in (0 for a
            cache hit — no device trip happened).
        cache_hit: Whether the exact-match cache answered it.
        profile: The *batch's* per-stage profile (shared by all requests
            of the batch); ``None`` for cache hits.
        trace: The request's span tree (:class:`~repro.obs.trace.Span`)
            when the server's tracer sampled it: admit → cache lookup →
            queue wait → batch ride → plan/scan/merge execution spans,
            all on the virtual clock. ``None`` for unsampled requests
            (which allocate no spans at all).
    """

    index: str
    k: int
    seq: int
    arrival: float
    dispatched: float | None = None
    started: float | None = None
    completed: float | None = None
    batch_size: int = 0
    cache_hit: bool = False
    profile: StageTimings | None = None
    trace: Span | None = None

    @property
    def queue_time(self) -> float | None:
        """Seconds spent queued before dispatch."""
        if self.dispatched is None:
            return None
        return self.dispatched - self.arrival

    @property
    def service_time(self) -> float | None:
        """Seconds the device spent on the batch it rode in."""
        if self.completed is None or self.started is None:
            return None
        return self.completed - self.started

    @property
    def latency(self) -> float | None:
        """End-to-end seconds from submit to completion."""
        if self.completed is None:
            return None
        return self.completed - self.arrival

    def profile_share(self) -> StageTimings | None:
        """This request's 1/batch_size slice of the batch profile."""
        if self.profile is None or self.batch_size < 1:
            return None
        share = StageTimings()
        for stage, seconds in self.profile.seconds.items():
            share.add(stage, seconds / self.batch_size)
        return share


class RequestFuture:
    """Handle to one submitted request; resolved when its batch runs.

    Attributes:
        metadata: The request's :class:`RequestMetadata` (timestamps fill
            in as the request progresses).
        payload: The model-specific per-query payload slice (e.g. the
            verified :class:`~repro.sa.sequence.SequenceSearchResult`),
            ``None`` until done or for payload-less models.
    """

    def __init__(self, metadata: RequestMetadata):
        self.metadata = metadata
        self.payload = None
        self._result = None
        self._error: BaseException | None = None
        self._done = False

    def done(self) -> bool:
        """Whether the request has been answered (or failed)."""
        return self._done

    def result(self):
        """The request's :class:`~repro.core.types.TopKResult`.

        Raises:
            QueryError: If the request is still queued (advance or drain
                the server first).
            ReproError: Whatever error failed the request's batch.
        """
        if not self._done:
            raise QueryError(
                "request is not completed yet; advance(), drain() or close() the server"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, result, payload) -> None:
        self._result = result
        self.payload = payload
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True


class _ServeRequest:
    """Internal queued request: what the scheduler and dispatcher see."""

    __slots__ = ("seq", "raw", "query", "lane", "arrival", "future", "cache_key", "trace")

    def __init__(self, seq, raw, query, lane, arrival, future, cache_key, trace):
        self.seq = seq
        self.raw = raw
        self.query = query
        # (k, opts_key, route, plan): only lane-mates may share a batch,
        # so a coalesced search has one k, one option set, one plan.
        self.lane = lane
        self.arrival = arrival
        self.future = future
        self.cache_key = cache_key
        self.trace = trace


class GenieServer:
    """Online serving front end over a :class:`GenieSession`.

    Args:
        session: The session whose indexes are served.
        policy: Batching policy (:meth:`BatchPolicy.micro` default;
            :meth:`BatchPolicy.fifo` is the single-request baseline).
        clock: Virtual clock; a fresh one starting at 0 when omitted.
        max_queue_depth: Bound on queued (not yet dispatched) requests;
            admission beyond it raises :class:`AdmissionError`.
        cache_size: Entries in the exact-match result cache (an
            :class:`~repro.plan.cache.LruCache`); ``0`` or ``None``
            disables caching.
        trace_sample: Trace one request in this many through a
            :class:`~repro.obs.trace.Tracer` (``1`` traces everything;
            the choice is deterministic from the admission sequence
            number). ``None`` disables tracing entirely — untraced
            serving allocates no spans.
        rebalance: A :class:`~repro.replica.rebalance.RebalancePolicy`
            consulted after every dispatched sharded batch; past its
            rolling-imbalance threshold the server recuts the batch's
            index online (:meth:`IndexHandle.rebalance
            <repro.api.session.IndexHandle.rebalance>`).
            ``None`` (default) never rebalances.
    """

    def __init__(
        self,
        session: GenieSession,
        policy: BatchPolicy | None = None,
        clock: VirtualClock | None = None,
        max_queue_depth: int = 256,
        cache_size: int | None = 1024,
        trace_sample: int | None = None,
        rebalance=None,
    ):
        self.max_queue_depth = count_option(max_queue_depth, "max_queue_depth", ConfigError)
        self.session = session
        self.clock = clock if clock is not None else VirtualClock()
        self.scheduler = MicroBatchScheduler(policy)
        self.cache = LruCache(cache_size) if cache_size else None
        session.add_invalidation_hook(self._invalidated)
        self.metrics = ServeMetrics()
        # Surface the session's plan-cache counters in snapshot(): warm
        # lanes skipping compilation is a serving property worth watching.
        self.metrics.plan_cache = session.plan_cache
        self.tracer = None
        if trace_sample is not None:
            self.tracer = Tracer(sample_every=trace_sample, clock=self.clock)
            # Background session work (stream compaction) records its
            # standalone spans through the same tracer and clock.
            session.tracer = self.tracer
        self.rebalance_policy = rebalance
        if session.faults is not None and session.faults.clock is None:
            # Fault plans are virtual-clock schedules; wire the server's
            # clock in so injected outages start and recover on the same
            # timeline the metrics and traces use.
            session.faults.clock = self.clock
        self._seq = 0
        self._device_free = 0.0
        self._closed = False

    # ------------------------------------------------------------------
    # admission

    def submit(
        self,
        index: str,
        raw_query,
        k: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        **opts,
    ) -> RequestFuture:
        """Admit one request: a burst of one (see :meth:`submit_many`)."""
        return self.submit_many(index, (raw_query,), k, route, plan, **opts)[0]

    def submit_many(
        self,
        index: str,
        raw_queries,
        k: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        **opts,
    ) -> list[RequestFuture]:
        """Admit a burst of requests for one index, all-or-nothing.

        The burst is validated and encoded at once, in one
        ``encode_queries`` call (malformed queries fail *here*, not inside
        someone else's batch), and the planner directives are validated
        too (a bad ``route=`` fails the submitting burst, never a coalesced
        batch). Every request is then looked up in the result cache. Hits
        need no queue slot — a burst of hits is answered even when the
        queue is full — but the misses must fit into the bounded queue
        together, or the whole burst is refused and nothing is admitted.
        Futures of hits are resolved on return; misses resolve when their
        batch runs.

        Args:
            index: Target index name.
            raw_queries: Queries in the model's raw format.
            k: Results requested (index default when omitted).
            route: Planner routing directive (``"auto"``/``"pruned"``/
                ``"broadcast"``; sharded indexes only). Only requests with
                matching directives share a batch.
            plan: Planner merge directive (``"auto"``/``"one-round"``/
                ``"two-round"``; sharded indexes only).
            opts: Model-specific search options.

        Raises:
            ConfigError: Closed server or session, or unknown index.
            QueryError: Malformed query, bad ``k``, bad options, or a
                shard-only ``route``/``plan`` on a serial index.
            AdmissionError: The burst's misses do not fit into the queue
                (explicit backpressure).
        """
        raws = listed(raw_queries, "raw_queries")
        session = self.session
        try:
            self._check_open()
            session._check_open()
        except ConfigError:
            self._reject("closed", index, len(raws))
            raise
        if not raws:
            return []
        try:
            handle = session.index(index)
            k = resolve_k(k, handle.config.k)
            # The normalized forms go into the lane so equivalent directives
            # (None vs the explicit "auto") coalesce into one batch.
            route, plan = validate_plan_args(route, plan, sharded=handle.placement is not None)
            opts_key = tuple(sorted(opts.items()))
            resolve_shortlist_k(handle.model, k, opts)  # validates the options eagerly
            batch = handle.encode_queries(raws)
        except (ConfigError, QueryError) as error:
            self._reject("bad_directive", index, len(raws), error=error)
            raise

        # Each request rides with its own one-query batch.
        count = len(raws)
        queries = [batch] if count == 1 else [batch.take([i]) for i in range(count)]
        cache = self.cache
        if cache is None:
            keys = [None] * count
        else:
            raw_keyed = getattr(handle.model, "finalize_uses_raw", False)
            keys = [make_cache_key(index, query, k, opts_key, raw if raw_keyed else None)
                    for raw, query in zip(raws, queries)]
        scheduler = self.scheduler
        depth = scheduler.depth
        if depth + count > self.max_queue_depth:
            # Only a burst that could overflow peeks, so a refused one moves no
            # cache counter or LRU order; otherwise each get() is the one probe.
            misses = sum(key is None or key not in cache for key in keys)
            if depth + misses > self.max_queue_depth:
                self.metrics.rejected.inc(count)
                self._reject("queue_full", index, count, depth=depth, limit=self.max_queue_depth)
                raise AdmissionError(depth, self.max_queue_depth)

        now = self.clock.now()
        lane = (k, opts_key, route, plan)
        metrics, tracer = self.metrics, self.tracer
        seq = self._seq
        futures = []
        for raw, query, key in zip(raws, queries, keys):
            hit = None
            if key is not None:
                hit = cache.get(key)
                (metrics.cache_misses if hit is None else metrics.cache_hits).inc()
            metrics.record_arrival(now)
            metadata = RequestMetadata(index, k, seq, now)
            future = RequestFuture(metadata)
            futures.append(future)
            root = None
            if tracer is not None and tracer.sampled(seq):
                flag = {"cache_hit": True} if hit is not None else {}
                root = Span("request", start=now, seq=seq, index=index, k=k, **flag)
                root.child("admit", start=now)
                if key is not None:
                    root.child("cache_lookup", start=now, hit=hit is not None)
            if hit is None:
                scheduler.enqueue(index, _ServeRequest(seq, raw, query, lane, now, future, key, root))
            else:
                metadata.dispatched = metadata.started = metadata.completed = now
                metadata.cache_hit = True
                future._resolve(*hit)
                metrics.record_completion(0.0, 0.0, now)
                if root is not None:
                    metadata.trace = root
                    tracer.record(root)
            seq += 1
        self._seq = seq
        if scheduler.depth > depth:
            self.pump()
        return futures

    def _reject(self, reason: str, index: str, count: int, **detail) -> None:
        """Count ``count`` refused requests under ``reason`` and log why."""
        self.metrics.record_rejection(reason, count)
        logger.debug(
            "admission reject reason=%s index=%s requests=%d%s", reason, index, count,
            "".join(f" {name}={value}" for name, value in detail.items()),
        )

    def explain(
        self,
        index: str,
        raw_query,
        k: int | None = None,
        route: str | None = None,
        plan: str | None = None,
        **opts,
    ):
        """The plan a :meth:`submit` with these arguments would execute.

        Delegates to :meth:`IndexHandle.explain
        <repro.api.session.IndexHandle.explain>`. Nothing is admitted,
        executed, or charged.
        """
        self._check_open()
        self.session._check_open()
        return self.session.index(index).explain([raw_query], k=k, route=route, plan=plan, **opts)

    # ------------------------------------------------------------------
    # time and dispatch

    def pump(self) -> int:
        """Dispatch every batch that is ready now; returns batches run."""
        batches = self.scheduler.pop_ready(self.clock.now())
        if batches:
            self._dispatch_all(batches)
        return len(batches)

    def _dispatch_all(self, batches) -> None:
        """Dispatch popped batches; never strand a popped request.

        The scheduler pops a whole pass of batches eagerly. If one batch
        raises a non-:class:`~repro.errors.ReproError` (which
        :meth:`_dispatch` re-raises after failing its own futures), the
        remaining popped batches can no longer be served by a retry —
        they are not queued anymore — so their futures are failed with
        the same error before it propagates.
        """
        for position, (index, requests) in enumerate(batches):
            try:
                self._dispatch(index, requests)
            except BaseException as error:
                now = self.clock.now()
                for _, remaining in batches[position + 1 :]:
                    self.metrics.failed.inc(len(remaining))
                    for request in remaining:
                        request.future.metadata.dispatched = now
                        request.future._fail(error)
                raise

    def next_deadline(self) -> float | None:
        """Earliest queued ``max_wait`` deadline (drivers advance to it)."""
        return self.scheduler.next_deadline()

    def advance(self, seconds: float) -> None:
        """Advance virtual time by ``seconds``, firing deadlines in order."""
        self.advance_to(self.clock.now() + float(seconds))

    def advance_to(self, t: float) -> None:
        """Advance virtual time to ``t``, firing deadlines in order.

        Deadlines within ``(now, t]`` dispatch *at their deadline time*,
        not at ``t`` — queue-time metrics stay exact.
        """
        if math.isnan(t):  # before any dispatch: no deadline is ever past NaN
            raise ConfigError("cannot advance the clock to NaN")
        while True:
            deadline = self.scheduler.next_deadline()
            if deadline is None or deadline > t:
                break
            self.clock.advance_to(deadline)
            self.pump()
        self.clock.advance_to(t)
        self.pump()

    def drain(self) -> None:
        """Serve everything queued now, ignoring batching deadlines."""
        while self.scheduler.depth:
            self._dispatch_all(self.scheduler.pop_all(self.clock.now()))

    def close(self) -> None:
        """Graceful shutdown: refuse new requests, drain what is queued.

        Idempotent; the underlying session stays open (it belongs to the
        caller). Subsequent :meth:`submit` calls raise
        :class:`ConfigError`. The closed flag is set *before* the drain:
        if a queued batch raises a non-:class:`~repro.errors.ReproError`
        during the drain (those fail only their own futures), the error
        propagates but the server stays closed instead of silently
        continuing to admit requests.
        """
        if self._closed:
            return
        self._closed = True
        self.drain()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    @property
    def depth(self) -> int:
        """Requests currently queued (admitted, not yet dispatched)."""
        return self.scheduler.depth

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigError("server is closed")

    def _invalidated(self, index: str) -> None:
        """The session hook: drop ``index``'s cached results, and its empty queue and stream gauges if it was dropped."""
        if self.cache is not None:
            self.cache.invalidate(index)
        if index not in self.session._handles:
            self.scheduler.forget(index)
            self.metrics.record_drop(index)

    def __enter__(self) -> "GenieServer":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # execution

    def _dispatch(self, index: str, requests: list[_ServeRequest]) -> None:
        now = self.clock.now()
        k, opts_key, route, plan = requests[0].lane
        raw = [r.raw for r in requests]
        queries = QueryBatch.concat([r.query for r in requests])
        start = max(now, self._device_free)
        # One execution trace per batch, shared (copied) into every
        # sampled rider; a batch of unsampled requests records nothing.
        want_trace = self.tracer is not None and any(
            r.trace is not None for r in requests
        )
        try:
            # The lookup is inside the guard: the index may have been
            # dropped while these requests were queued, and that must fail
            # the futures, not escape drain()/close(). The batch lowers
            # through the query planner exactly like a direct search —
            # same plan rules, same bit-identical results.
            handle = self.session.index(index)
            result = handle.search_encoded(
                raw, queries, k=k, route=route, plan=plan, trace=want_trace,
                **dict(opts_key)
            )
        except BaseException as error:
            # The requests were already popped from the scheduler: every
            # rider's future resolves with the error, never strands. A
            # ReproError ends there; anything unexpected also propagates
            # to the driver.
            self.metrics.failed.inc(len(requests))
            for request in requests:
                request.future.metadata.dispatched = now
                request.future._fail(error)
            if index not in self.session._handles:
                self.scheduler.forget(index)  # dropped while these were queued
            if isinstance(error, ReproError):
                return
            raise
        # For a sharded index the profile is already the concurrent
        # critical path (slowest shard + merge), so the shard scans of one
        # batch overlap in simulated time; per-shard work feeds the
        # imbalance counters.
        service = result.profile.query_total()
        completed = start + service
        self._device_free = completed
        shard_profiles = result.shard_profiles
        self.metrics.record_batch(
            len(requests), service, result.swapped_in, len(result.evicted),
            shard_seconds=[p.query_total() for p in shard_profiles]
            if shard_profiles
            else None,
            routing=result.routing,
        )
        manifest = getattr(handle, "manifest", None)
        if manifest is not None:
            self.metrics.record_stream(
                handle.name, manifest.delta_postings, manifest.compactions
            )
        if result.failovers:
            self._heal_after_failover(handle, result.failovers)
        if self.rebalance_policy is not None and shard_profiles:
            self._maybe_rebalance(handle)
        payload_list = result.payload if isinstance(result.payload, list) else None
        results, profile, size = result.results, result.profile, len(requests)
        cache, record_completion = self.cache, self.metrics.record_completion
        for i, request in enumerate(requests):
            answer = results[i]
            payload_i = payload_list[i] if payload_list is not None else None
            metadata = request.future.metadata
            metadata.dispatched = now
            metadata.started = start
            metadata.completed = completed
            metadata.batch_size = size
            metadata.profile = profile
            if request.trace is not None:
                root = request.trace
                root.child("queue_wait", start=request.arrival,
                           duration=now - request.arrival)
                batch_span = root.child("batch", start=start, duration=service,
                                        batch_size=size)
                if result.trace is not None:
                    # The execution subtree is on the search's own 0-based
                    # timeline and shared by every rider: shift a copy
                    # onto absolute time under this request's batch span.
                    batch_span.children.append(result.trace.copy().shift(start))
                root.duration = completed - root.start
                metadata.trace = root
                self.tracer.record(root)
            request.future._resolve(answer, payload_i)
            record_completion(completed - request.arrival, now - request.arrival, completed)
            if cache is not None and request.cache_key is not None:
                cache.put(request.cache_key, (answer, payload_i))

    # ------------------------------------------------------------------
    # self-healing (repro.replica)

    def _heal_after_failover(self, handle, failovers) -> None:
        """Count a batch's failovers; re-replicate after permanent loss.

        Transient outages only feed the ``replica_failovers`` counter —
        the device will come back. A *permanent* failure leaves every
        group that used the device under-replicated, so the handle
        re-places those copies on live devices immediately (the copy is
        an ``index_transfer``, charged on the simulated timeline).
        """
        self.metrics.replica_failovers.inc(len(failovers))
        if not any(ev.permanent for ev in failovers):
            return
        placed = handle.re_replicate()
        if placed:
            self.metrics.replica_re_replications.inc(placed)
            logger.debug(
                "re-replicate index=%s placed=%d", handle.name, placed
            )
            if self.tracer is not None:
                self.tracer.record(
                    Span(
                        "re_replicate", start=self.clock.now(),
                        index=handle.name, placed=placed,
                    )
                )

    def _maybe_rebalance(self, handle) -> None:
        """Fire the rebalance policy when rolling imbalance crosses it."""
        if not self.rebalance_policy.should_rebalance(self.metrics):
            return
        imbalance = self.metrics.rolling_shard_imbalance
        moved = handle.rebalance(self.metrics.rolling_shard_seconds())
        self.rebalance_policy.note_fired(self.metrics)
        if not moved:
            return
        self.metrics.replica_rebalances.inc()
        # The window measured the *old* cuts; post-move skew must be
        # re-observed from scratch, and so must per-device load.
        self.metrics.reset_rolling_shards()
        self.session.device_load.reset()
        logger.debug(
            "rebalance index=%s rolling_imbalance=%.3f", handle.name, imbalance
        )
        if self.tracer is not None:
            self.tracer.record(
                Span(
                    "rebalance", start=self.clock.now(),
                    index=handle.name, rolling_imbalance=round(imbalance, 4),
                )
            )

    # ------------------------------------------------------------------
    # observability

    def snapshot(self) -> dict:
        """Metrics + queue/cache/device state as one deterministic dict."""
        snap = self.metrics.snapshot()
        snap["queue_depth"] = self.scheduler.depth
        snap["queue_depths"] = self.scheduler.depths()
        policy = self.scheduler.policy
        snap["policy"] = {"max_batch": policy.max_batch, "max_wait": policy.max_wait}
        snap["device_busy_until"] = self._device_free
        snap["closed"] = self._closed
        snap["cache"] = self.cache.stats() if self.cache is not None else None
        snap["traces"] = self.tracer.total_traces if self.tracer is not None else 0
        return snap
