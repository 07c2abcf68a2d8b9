"""Counters and timing reports produced by the simulated device.

Two layers of accounting exist:

* :class:`KernelStats` — raw operation counts for a single kernel launch
  (memory transactions, atomics, divergence events, ...).
* :class:`StageTimings` — wall-clock-equivalent simulated seconds grouped by
  pipeline stage (``index_build``, ``index_transfer``, ``query_transfer``,
  ``match``, ``select``), mirroring Table I of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Stage names used by the GENIE pipeline, in Table-I order.
STAGES = ("index_build", "index_transfer", "query_transfer", "match", "select")

#: Every stage a charging call (``Device.launch`` / ``charge_seconds`` /
#: ``to_device`` / ``to_host``, ``HostCpu.charge_*``) accepts: Table I's
#: five, then the shard merge, route planning, the stream's tombstone
#: filter and the sequence model's verification.
CHARGED_STAGES = STAGES + ("result_merge", "plan_route", "tombstone_filter", "verify")


def check_stage(stage) -> None:
    """Reject a charge to a stage outside :data:`CHARGED_STAGES`.

    Raises:
        ConfigError: A misspelt, computed or ``None`` stage name.
    """
    if stage not in CHARGED_STAGES:
        raise ConfigError(f"undeclared stage {stage!r}; charges go to one of {CHARGED_STAGES}")


@dataclass
class KernelStats:
    """Operation counts accumulated during one kernel launch.

    Attributes:
        name: Kernel name, for reporting.
        blocks: Number of thread blocks launched.
        ops: Plain arithmetic/compare operations executed.
        bytes_read: Bytes read from global memory.
        bytes_written: Bytes written to global memory.
        uncoalesced_bytes: Subset of traffic that was scattered (charged at
            one transaction per word).
        atomic_ops: Atomic read-modify-write operations issued.
        atomic_conflicts: Extra serialized retries caused by address
            contention.
        divergent_warps: Warp-serialization events from branch divergence.
        elapsed_seconds: Simulated execution time assigned by the device.
    """

    name: str = ""
    blocks: int = 0
    ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    uncoalesced_bytes: float = 0.0
    atomic_ops: float = 0.0
    atomic_conflicts: float = 0.0
    divergent_warps: float = 0.0
    elapsed_seconds: float = 0.0

    def merge(self, other: "KernelStats") -> None:
        """Accumulate another launch's counters into this one."""
        self.blocks += other.blocks
        self.ops += other.ops
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.uncoalesced_bytes += other.uncoalesced_bytes
        self.atomic_ops += other.atomic_ops
        self.atomic_conflicts += other.atomic_conflicts
        self.divergent_warps += other.divergent_warps
        self.elapsed_seconds += other.elapsed_seconds

    @property
    def total_bytes(self) -> float:
        """Total global-memory traffic of the launch."""
        return self.bytes_read + self.bytes_written


@dataclass
class StageTimings:
    """Simulated seconds spent in each pipeline stage.

    The mapping mirrors Table I of the paper. The charging calls only
    take :data:`CHARGED_STAGES`; :meth:`add` itself takes any name, so a
    merged profile can carry its own (``failover_retry``).
    """

    seconds: dict = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        """Charge ``seconds`` of simulated time to ``stage``."""
        if seconds < 0:
            raise ConfigError(f"negative stage time: {seconds}")
        self.seconds[stage] = self.seconds.get(stage, 0.0) + float(seconds)

    def get(self, stage: str) -> float:
        """Simulated seconds charged to ``stage`` (0.0 if never charged)."""
        return self.seconds.get(stage, 0.0)

    @property
    def total(self) -> float:
        """Total simulated seconds across all stages."""
        return sum(self.seconds.values())

    def query_total(self) -> float:
        """Total excluding the one-off ``index_build`` stage.

        The paper excludes offline index construction from query timings;
        this helper applies the same convention.
        """
        return sum(v for k, v in self.seconds.items() if k != "index_build")

    def merge(self, other: "StageTimings") -> None:
        """Accumulate another report into this one."""
        for stage, seconds in other.seconds.items():
            self.add(stage, seconds)

    def scale(self, factor: float) -> None:
        """Multiply every stage's seconds by ``factor`` (>= 0).

        Models a uniformly degraded device (a ``"slow"`` fault in
        :mod:`repro.replica`): the work is unchanged, the timeline it
        occupies stretches.
        """
        if factor < 0:
            raise ConfigError(f"negative scale factor: {factor}")
        for stage in self.seconds:
            self.seconds[stage] = self.seconds[stage] * float(factor)

    def copy(self) -> "StageTimings":
        """An independent copy of this report."""
        return StageTimings(seconds=dict(self.seconds))

    def as_row(self) -> dict:
        """The canonical stages as a flat dict, for table rendering."""
        row = {stage: self.get(stage) for stage in STAGES}
        for stage in self.seconds:
            if stage not in row:
                row[stage] = self.seconds[stage]
        return row


def timings_delta(before: StageTimings, after: StageTimings) -> StageTimings:
    """Per-stage difference ``after - before`` (negative deltas dropped).

    Systems snapshot their clock's timings around a call to report a
    per-call profile while the underlying clock keeps accumulating.
    """
    delta = StageTimings()
    for stage, seconds in after.seconds.items():
        diff = seconds - before.get(stage)
        if diff > 0:
            delta.add(stage, diff)
    return delta
