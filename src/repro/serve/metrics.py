"""Serving metrics: throughput, latency percentiles, batch histograms.

All times are *simulated seconds* from the server's virtual clock, so a
seeded workload produces bit-identical numbers on every run — latency
percentiles are CI-assertable, not flaky. Percentiles use the
nearest-rank method (no interpolation): ``p50`` of a recorded population
is always one of the recorded latencies. The population is the newest
``LATENCY_WINDOW`` completions, so memory stays bounded however long a
server runs; the ``completed`` counter keeps the lifetime count.

Every scalar counter is a :class:`~repro.obs.registry.Counter` registered
in one :class:`~repro.obs.registry.MetricsRegistry` and bound as a plain
attribute: writers call ``metrics.rejected.inc()``, readers take
``metrics.rejected.value``. The batch-size histogram is cardinality-bounded,
and :meth:`ServeMetrics.snapshot` exports the same keys it always has (a
back-compat test enforces it).
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.obs.registry import Histogram, MetricsRegistry, percentile_nearest_rank

__all__ = [
    "LATENCY_WINDOW", "REPORTED_PERCENTILES", "ROLLING_SHARD_WINDOW", "ServeMetrics",
    "percentile_nearest_rank",
]

#: Percentiles reported by :meth:`ServeMetrics.snapshot`.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)

#: Sharded batches the rolling shard-imbalance window spans.
ROLLING_SHARD_WINDOW = 64

#: Newest completed requests the latency / queue-time percentiles cover
#: (16 B each, so a long-running server holds at most 1 MiB of samples;
#: older samples are overwritten in place).
LATENCY_WINDOW = 1 << 16

#: Distinct batch sizes the histogram keeps exact before clamping new
#: values onto the nearest existing bin. Far above any realistic
#: ``max_batch`` policy, so normal workloads never clamp; adversarial
#: long-running traffic stays bounded.
BATCH_SIZE_BINS = 128


class ServeMetrics:
    """Counters and distributions accumulated by a :class:`GenieServer`.

    The scalar attributes below are registry
    :class:`~repro.obs.registry.Counter` objects (``.inc(n)`` / ``.value``).

    Attributes:
        submitted: Requests admitted (queued or served from cache).
        completed: Requests answered, including cache hits.
        rejected: Requests refused by queue-full admission control.
        rejected_by_reason: Refusal breakdown ``{reason: count}`` over
            ``"queue_full"`` / ``"closed"`` / ``"bad_directive"`` — the
            latter two fail the caller without touching ``rejected``
            (whose queue-full-only meaning predates the breakdown).
        failed: Requests whose batch raised (the error is on the future).
        cache_hits / cache_misses: Admission-time cache outcomes.
        batches: Coalesced search calls dispatched.
        batch_sizes: Histogram ``{batch_size: count}`` — a bounded
            :class:`~repro.obs.registry.Histogram` view, exact up to
            ``BATCH_SIZE_BINS`` distinct sizes.
        swap_ins / evictions: Residency events caused by dispatched batches.
        busy_seconds: Simulated device-service time consumed by batches.
            For sharded batches this is the *critical path* (the shards
            run concurrently); per-shard work is in ``shard_busy_seconds``.
        shard_busy_seconds: Per shard position, simulated seconds that
            shard's device spent on dispatched batches (sharded indexes
            only; empty otherwise). Lifetime totals — see
            :attr:`rolling_shard_imbalance` for the recent-window view
            rebalancing decisions need.
        sharded_batches: Dispatched batches that ran on a sharded index.
        replica_failovers: Scan attempts re-dispatched past a failed
            device onto a surviving replica (see :mod:`repro.replica`).
        replica_rebalances: Online hot-shard rebalances the server's
            :class:`~repro.replica.rebalance.RebalancePolicy` fired.
        replica_re_replications: Replicas re-placed after a permanent
            device failure left their group under-replicated.
        routed_batches: Sharded batches whose plan pruned at least one
            (query, shard) scan pair instead of broadcasting (see
            :class:`repro.plan.nodes.RoutingSummary`).
        plan_cache: The session's plan cache (a
            :class:`~repro.plan.cache.LruCache`) when the server wired
            one in (its hit/miss/invalidation
            counters join :meth:`snapshot`); ``None`` reports zeros.
        delta_postings / compactions: Per live mutable index (see
            :mod:`repro.stream`), the latest observed delta-posting gauge
            and lifetime compaction count — how much un-compacted write
            pressure each streamed index carries. A dropped index leaves
            both; its compactions stay in the snapshot's lifetime total.
        registry: The :class:`~repro.obs.registry.MetricsRegistry`
            holding the typed primitives behind the scalar attributes.
    """

    def __init__(self):
        registry = MetricsRegistry()
        for name in (
            "submitted", "completed", "rejected", "failed",
            "cache_hits", "cache_misses", "batches",
            "swap_ins", "evictions", "busy_seconds", "sharded_batches", "routed_batches",
            "replica_failovers", "replica_rebalances", "replica_re_replications",
        ):
            setattr(self, name, registry.counter(name))
        self.busy_seconds.value = 0.0
        self._registry = registry
        self._batch_hist = registry.histogram("batch_sizes", max_bins=BATCH_SIZE_BINS)
        self.rejected_by_reason: dict[str, int] = {}
        self.shard_busy_seconds: dict[int, float] = {}
        # Per-batch shard-seconds vectors over a bounded recent window;
        # the rolling shard-imbalance rebalancing decisions consult.
        self._rolling_shards: deque = deque(maxlen=ROLLING_SHARD_WINDOW)
        self._scanned_pairs = 0
        self._pruned_pairs = 0
        self.first_arrival: float | None = None
        self.last_completion: float | None = None
        # Packed rings over the newest LATENCY_WINDOW completions.
        self._latencies = array("d")
        self._queue_times = array("d")
        self.plan_cache = None
        self.delta_postings: dict[str, int] = {}
        self.compactions: dict[str, int] = {}
        self._dropped_compactions = 0

    @property
    def registry(self) -> MetricsRegistry:
        """The typed-primitive registry behind the scalar attributes."""
        return self._registry

    @property
    def batch_sizes(self) -> dict:
        """Live ``{batch_size: count}`` bins of the bounded histogram."""
        return self._batch_hist.bins

    @property
    def batch_size_histogram(self) -> Histogram:
        """The bounded :class:`~repro.obs.registry.Histogram` itself."""
        return self._batch_hist

    # ------------------------------------------------------------------
    # recording

    def record_arrival(self, now: float) -> None:
        """Note an admitted request at simulated time ``now``."""
        self.submitted.inc()
        if self.first_arrival is None:
            self.first_arrival = now

    def record_completion(self, latency: float, queue_time: float, completed_at: float) -> None:
        """Note one answered request with its latency components."""
        slot = self.completed.value % LATENCY_WINDOW
        self.completed.inc()
        if slot == len(self._latencies):
            self._latencies.append(latency)
            self._queue_times.append(queue_time)
        else:
            self._latencies[slot] = latency
            self._queue_times[slot] = queue_time
        if self.last_completion is None or completed_at > self.last_completion:
            self.last_completion = completed_at

    def record_rejection(self, reason: str, count: int = 1) -> None:
        """Note ``count`` refused requests (one burst) under their reason.

        Reasons: ``"queue_full"`` (backpressure; also counted in
        ``rejected``), ``"closed"`` (server or session shut down), and
        ``"bad_directive"`` (invalid ``k``/``route``/``plan``/options or
        a malformed query failing at the door).
        """
        if count:
            self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + count

    def record_batch(
        self,
        size: int,
        service_seconds: float,
        swap_ins: int,
        evictions: int,
        shard_seconds: list[float] | None = None,
        routing=None,
    ) -> None:
        """Note one dispatched batch and its residency side effects.

        Args:
            size: Requests coalesced into the batch.
            service_seconds: The batch's simulated service time (for a
                sharded index: the concurrent critical path).
            swap_ins / evictions: Residency events the batch caused.
            shard_seconds: Per-shard device seconds when the batch ran on
                a sharded index, in shard order.
            routing: The batch plan's
                :class:`~repro.plan.nodes.RoutingSummary` when it ran on
                a sharded index (``None`` otherwise) — feeds the
                routed-vs-broadcast counters.
        """
        self.batches.inc()
        self._batch_hist.observe(int(size))
        self.busy_seconds.inc(float(service_seconds))
        self.swap_ins.inc(int(swap_ins))
        self.evictions.inc(int(evictions))
        if shard_seconds is not None:
            self.sharded_batches.inc()
            self._rolling_shards.append(tuple(float(s) for s in shard_seconds))
            for shard, seconds in enumerate(shard_seconds):
                self.shard_busy_seconds[shard] = (
                    self.shard_busy_seconds.get(shard, 0.0) + float(seconds)
                )
        if routing is not None:
            self._scanned_pairs += int(routing.scanned_pairs)
            self._pruned_pairs += int(routing.pruned_pairs)
            if not routing.broadcast:
                self.routed_batches.inc()

    def record_stream(self, index: str, delta_postings: int, compactions: int) -> None:
        """Note a mutable index's stream gauges after a dispatched batch.

        ``delta_postings`` is a gauge (latest wins — compaction drives it
        back to zero); ``compactions`` is the manifest's lifetime counter.
        """
        self.delta_postings[index] = int(delta_postings)
        self.compactions[index] = int(compactions)

    def record_drop(self, index: str) -> None:
        """Forget a dropped index's stream gauges, keeping its compactions in the lifetime total."""
        self.delta_postings.pop(index, None)
        self._dropped_compactions += self.compactions.pop(index, 0)

    # ------------------------------------------------------------------
    # derived views

    @property
    def elapsed_seconds(self) -> float:
        """Simulated seconds from first admitted arrival to last completion."""
        if self.first_arrival is None or self.last_completion is None:
            return 0.0
        return self.last_completion - self.first_arrival

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second over the elapsed window.

        A zero-length window — a single request, or a run answered
        entirely from cache at one instant — reports ``0.0`` instead of
        dividing by zero.
        """
        elapsed = self.elapsed_seconds
        return self.completed.value / elapsed if elapsed > 0 else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average requests per dispatched batch.

        Computed from the histogram's exact raw accumulators, so bin
        clamping never moves the mean.
        """
        batches = self.batches.value
        return self._batch_hist.total / batches if batches else 0.0

    @property
    def shard_imbalance(self) -> float:
        """``max / mean`` of per-shard busy seconds (1.0 = balanced).

        The load-imbalance figure of merit for sharded serving (Fig. 12's
        skew story at the cluster level): how much longer the hottest
        shard worked than the average shard. ``0.0`` when no sharded
        batch has been dispatched.
        """
        if not self.shard_busy_seconds:
            return 0.0
        busy = list(self.shard_busy_seconds.values())
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 0.0

    def rolling_shard_seconds(self) -> list[float]:
        """Per-shard busy seconds summed over the rolling window.

        Positions a batch did not report (an index with fewer shards)
        contribute zero to the missing tail. ``[]`` when no sharded
        batch is in the window.
        """
        width = max((len(vec) for vec in self._rolling_shards), default=0)
        sums = [0.0] * width
        for vec in self._rolling_shards:
            for shard, seconds in enumerate(vec):
                sums[shard] += seconds
        return sums

    @property
    def rolling_window_batches(self) -> int:
        """Sharded batches currently inside the rolling window."""
        return len(self._rolling_shards)

    @property
    def rolling_shard_imbalance(self) -> float:
        """``max / mean`` of per-shard busy seconds over the rolling window.

        The *when-to-rebalance* signal: unlike the lifetime
        :attr:`shard_imbalance` gauge — which a long balanced history
        pins near 1.0 no matter how skewed traffic just became, and
        which a rebalance can never pull back down — this reflects only
        the last window of sharded batches, so it rises when skew
        appears and falls once a rebalance (or traffic shift) fixes it.
        ``0.0`` with an empty window.
        """
        busy = self.rolling_shard_seconds()
        if not busy:
            return 0.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 0.0

    def reset_rolling_shards(self) -> None:
        """Drop the rolling window (after a rebalance: old cuts, old skew)."""
        self._rolling_shards.clear()

    @property
    def pruned_shard_fraction(self) -> float:
        """Fraction of per-shard query scans that shard routing avoided.

        One ``(query, shard)`` pair is one per-shard query scan; broadcast
        execution scans all of them. ``0.0`` when no sharded batch has
        been dispatched (or every one broadcast).
        """
        total = self._scanned_pairs + self._pruned_pairs
        return self._pruned_pairs / total if total else 0.0

    def latency(self, p: float) -> float:
        """Nearest-rank latency percentile over the newest ``LATENCY_WINDOW`` completions."""
        return percentile_nearest_rank(self._latencies, p)

    def queue_time(self, p: float) -> float:
        """Nearest-rank queue-time percentile over the newest ``LATENCY_WINDOW`` completions."""
        return percentile_nearest_rank(self._queue_times, p)

    def snapshot(self) -> dict:
        """The whole metrics surface as one flat dict.

        Keys are stable and values deterministic for a seeded workload;
        tests compare snapshots of repeated runs for equality. Every key
        that existed before the registry refactor is still exported with
        an identical value (enforced by the back-compat test); the
        additions are ``rejected_by_reason`` and the ``cost_drift_*``
        gauges, which read zero since nothing prices a plan.
        """
        snap = {
            "submitted": self.submitted.value,
            "completed": self.completed.value,
            "rejected": self.rejected.value,
            "failed": self.failed.value,
            "cache_hits": self.cache_hits.value,
            "cache_misses": self.cache_misses.value,
            "batches": self.batches.value,
            "mean_batch_size": self.mean_batch_size,
            "batch_size_histogram": self._batch_hist.as_dict(),
            "swap_ins": self.swap_ins.value,
            "evictions": self.evictions.value,
            "busy_seconds": self.busy_seconds.value,
            "sharded_batches": self.sharded_batches.value,
            "routed_batches": self.routed_batches.value,
            "pruned_shard_fraction": self.pruned_shard_fraction,
            "shard_busy_seconds": dict(sorted(self.shard_busy_seconds.items())),
            "shard_imbalance": self.shard_imbalance,
            "rolling_shard_imbalance": self.rolling_shard_imbalance,
            "rolling_window_batches": self.rolling_window_batches,
            "replica_failovers": self.replica_failovers.value,
            "replica_rebalances": self.replica_rebalances.value,
            "replica_re_replications": self.replica_re_replications.value,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_qps": self.throughput,
            "plan_cache_hits": self.plan_cache.hits if self.plan_cache is not None else 0,
            "plan_cache_misses": (
                self.plan_cache.misses if self.plan_cache is not None else 0
            ),
            "plan_cache_invalidations": (
                self.plan_cache.invalidations if self.plan_cache is not None else 0
            ),
            "plan_cache_size": len(self.plan_cache) if self.plan_cache is not None else 0,
            "delta_postings": sum(self.delta_postings.values()),
            "compactions": self._dropped_compactions + sum(self.compactions.values()),
            "rejected_by_reason": dict(sorted(self.rejected_by_reason.items())),
            "cost_drift_p50": 0.0,
            "cost_drift_p90": 0.0,
            "cost_drift_samples": 0,
        }
        for p in REPORTED_PERCENTILES:
            snap[f"latency_p{p:g}"] = self.latency(p)
        for p in REPORTED_PERCENTILES:
            snap[f"queue_time_p{p:g}"] = self.queue_time(p)
        return snap
