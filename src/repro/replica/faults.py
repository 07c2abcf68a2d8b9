"""Deterministic fault injection for the simulated device pool.

Failure experiments must be as bit-reproducible as everything else in
this repo, so faults are *data*, not chance: a :class:`FaultPlan` is a
seeded, virtual-clock schedule of device crash/slowdown/recovery events
that the executor consults at dispatch time. Replaying the same plan
against the same workload produces the same failovers, the same retry
penalties, and the same merged results.

Three layers:

* :class:`FaultEvent` — one outage: a device, a start time, an optional
  end time (``None`` = permanent), a kind (``"crash"`` or ``"slow"``)
  and a slowdown factor.
* :class:`FaultPlan` — an immutable schedule of events with point-in-time
  queries (:meth:`FaultPlan.state`) and a seeded generator
  (:meth:`FaultPlan.random`) that never takes more than ``max_down``
  devices down at once — pair it with ``max_down = replicas - 1`` and
  every replica group keeps a survivor.
* :class:`FaultInjector` — the session-side attachment: plan + clock +
  the seeded retry-latency model charged when a scan fails over.

:class:`FailoverEvent` records one observed failover (a scan attempt
that hit a down device and moved on); events surface on
``SearchResult.failovers`` and drive the serve layer's ``replica_*``
counters and re-replication trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError

#: Valid values for :attr:`FaultEvent.kind`.
FAULT_KINDS = ("crash", "slow")

#: Device status strings returned by :meth:`FaultPlan.state`.
STATUS_UP = "up"
STATUS_DOWN = "down"
STATUS_SLOW = "slow"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled device outage on the virtual clock.

    Attributes:
        device: Pool position of the affected device.
        start: Virtual-clock second the outage begins (inclusive).
        end: Virtual-clock second it ends (exclusive), or ``None`` for a
            permanent failure.
        kind: ``"crash"`` (device refuses scans) or ``"slow"`` (scans
            succeed but stage timings stretch by ``factor``).
        factor: Slowdown multiplier for ``"slow"`` events (>= 1).
    """

    device: int
    start: float
    end: float | None = None
    kind: str = "crash"
    factor: float = 4.0

    def __post_init__(self):
        if self.device < 0:
            raise ConfigError(f"fault device must be >= 0, got {self.device}")
        # NaN fails every comparison, so each value is checked to lie inside its range.
        if not 0 <= self.start < math.inf:
            raise ConfigError(f"fault start must be finite and >= 0, got {self.start}")
        if self.end is not None and not self.start < self.end < math.inf:
            raise ConfigError(
                f"fault end ({self.end}) must be finite and after start ({self.start}); "
                "None makes the outage permanent"
            )
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.kind == "slow" and not 1.0 <= self.factor < math.inf:
            raise ConfigError(
                f"slowdown factor must be finite and >= 1, got {self.factor}"
            )

    def active(self, now: float) -> bool:
        """Whether this outage covers virtual-clock second ``now``."""
        if now < self.start:
            return False
        return self.end is None or now < self.end

    @property
    def permanent(self) -> bool:
        """Whether this outage never recovers."""
        return self.end is None


class FaultPlan:
    """An immutable, queryable schedule of :class:`FaultEvent`\\ s."""

    def __init__(self, events=()):
        self.events = tuple(
            sorted(events, key=lambda e: (e.start, e.device, e.kind))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan(events={len(self.events)})"

    @classmethod
    def random(
        cls,
        n_devices: int,
        horizon: float,
        seed: int,
        max_down: int = 1,
        mean_outage: float | None = None,
        slow_fraction: float = 0.0,
        slow_factor: float = 4.0,
    ) -> "FaultPlan":
        """A seeded schedule with at most ``max_down`` devices down at once.

        Outages are laid out on ``max_down`` independent, non-overlapping
        "tracks": at any instant at most one event per track is active,
        so at most ``max_down`` distinct devices are crashed
        simultaneously. With chained-declustering placement and
        ``max_down <= replicas - 1`` every replica group always keeps a
        live member, which is exactly the regime where failover must be
        result-transparent. ``max_down = 0`` yields an empty plan.

        Args:
            n_devices: Size of the device pool events may target.
            horizon: Virtual-clock span (seconds) the schedule covers.
            seed: RNG seed; identical arguments yield identical plans.
            max_down: Maximum concurrently-crashed device count.
            mean_outage: Typical outage length; defaults to a sixth of
                the horizon.
            slow_fraction: Probability an outage is a slowdown instead
                of a crash (slowdowns still occupy a track slot).
            slow_factor: Stage-timing multiplier for slowdown events.
        """
        if n_devices <= 0:
            raise ConfigError(f"n_devices must be positive, got {n_devices}")
        if horizon <= 0:
            raise ConfigError(f"horizon must be positive, got {horizon}")
        if max_down < 0:
            raise ConfigError(f"max_down must be >= 0, got {max_down}")
        if mean_outage is None:
            mean_outage = horizon / 6.0
        rng = np.random.default_rng(seed)
        events = []
        for _track in range(max_down):
            now = float(rng.uniform(0.0, horizon / 3.0))
            while now < horizon:
                duration = float(mean_outage * (0.5 + rng.random()))
                device = int(rng.integers(n_devices))
                if rng.random() < slow_fraction:
                    events.append(
                        FaultEvent(device, now, now + duration, "slow", slow_factor)
                    )
                else:
                    events.append(FaultEvent(device, now, now + duration, "crash"))
                now += duration + float(mean_outage * (0.5 + rng.random()))
        return cls(events)

    def state(self, device: int, now: float) -> tuple[str, float]:
        """Status of ``device`` at virtual-clock second ``now``.

        Returns ``(status, factor)``: ``("down", 0.0)`` if any crash
        event covers ``now``, else ``("slow", factor)`` with the largest
        active slowdown factor, else ``("up", 1.0)``.
        """
        factor = 1.0
        down = False
        for event in self.events:
            if event.device != device or not event.active(now):
                continue
            if event.kind == "crash":
                down = True
            else:
                factor = max(factor, event.factor)
        if down:
            return (STATUS_DOWN, 0.0)
        if factor > 1.0:
            return (STATUS_SLOW, factor)
        return (STATUS_UP, 1.0)

    def permanently_down(self, device: int, now: float) -> bool:
        """Whether ``device`` is inside a crash outage that never ends."""
        for event in self.events:
            if (
                event.device == device
                and event.kind == "crash"
                and event.permanent
                and event.active(now)
            ):
                return True
        return False

    def down_devices(self, now: float) -> tuple[int, ...]:
        """Pool positions of every device crashed at ``now`` (sorted)."""
        down = {
            event.device
            for event in self.events
            if event.kind == "crash" and event.active(now)
        }
        return tuple(sorted(down))


class FaultInjector:
    """Session-side fault state: a plan, a clock, and the retry model.

    The executor asks :meth:`state` for a device's health before each
    shard scan. A failed attempt charges a deterministic retry penalty
    (detection timeout plus *seeded* jitter — the bounded-attempt shape
    lint rule REPRO007 enforces) onto the batch critical path.

    The clock is usually wired by :class:`repro.serve.server.GenieServer`
    at construction (its :class:`VirtualClock`); standalone sessions may
    pass any object with a ``now()`` method, or leave it ``None`` to
    evaluate the plan at t=0.
    """

    def __init__(
        self,
        plan: FaultPlan,
        clock=None,
        retry_penalty: float = 2e-5,
        retry_jitter: float = 0.25,
        seed: int = 0,
    ):
        if retry_penalty < 0:
            raise ConfigError(
                f"retry_penalty must be >= 0, got {retry_penalty}"
            )
        if not 0.0 <= retry_jitter <= 1.0:
            raise ConfigError(
                f"retry_jitter must be in [0, 1], got {retry_jitter}"
            )
        self.plan = plan
        self.clock = clock
        self.retry_penalty = float(retry_penalty)
        self.retry_jitter = float(retry_jitter)
        self.seed = int(seed)

    def now(self) -> float:
        """Current virtual-clock second (0.0 when no clock is attached)."""
        if self.clock is None:
            return 0.0
        return float(self.clock.now())

    def state(self, device: int) -> tuple[str, float]:
        """Status of pool device ``device`` right now."""
        if device < 0:
            return (STATUS_UP, 1.0)
        return self.plan.state(device, self.now())

    def permanently_down(self, device: int) -> bool:
        """Whether pool device ``device`` is permanently failed right now."""
        if device < 0:
            return False
        return self.plan.permanently_down(device, self.now())

    def retry_penalty_for(self, shard: int, attempt: int) -> float:
        """Simulated seconds one failed scan attempt costs.

        Deterministic: jitter comes from an RNG seeded by (injector
        seed, shard, attempt), so identical fault schedules replay to
        identical critical paths.
        """
        rng = np.random.default_rng([self.seed, int(shard), int(attempt)])
        return self.retry_penalty * (1.0 + self.retry_jitter * float(rng.random()))


@dataclass(frozen=True)
class FailoverEvent:
    """One observed failover: a scan attempt skipped a down device.

    Attributes:
        index: Name of the index whose shard was being scanned.
        shard: Shard position within the index.
        device: Pool position of the device that was down.
        attempt: Zero-based attempt number within the candidate order.
        permanent: Whether the device's outage never recovers (triggers
            re-replication in the serve layer).
        penalty: Simulated retry seconds this attempt charged.
    """

    index: str
    shard: int
    device: int
    attempt: int
    permanent: bool
    penalty: float
