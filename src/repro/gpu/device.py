"""The simulated GPU device: launch scheduling, transfers, staged timing.

:class:`Device` combines the memory manager, the PCIe transfer model and a
block-over-SM scheduler into one object with the lifecycle of a real device:

* ``to_device`` / ``to_host`` move numpy arrays across the (simulated) bus
  and charge transfer time,
* ``price`` schedules a :class:`~repro.gpu.kernel.KernelLaunch` over the
  SMs and returns the slowest SM's makespan (or the bandwidth bound, if the
  launch is memory-bound) without charging it — the one place the launch
  arithmetic lives,
* ``launch`` charges that price to a stage and records the launch.

Every charge names its pipeline stage (``stage=`` is required; there is no
ambient stage to fall back on) from :data:`~repro.gpu.stats.CHARGED_STAGES`,
so experiments can reproduce Table I's per-stage profile and no work lands
in a stage nobody chose.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.errors import ConfigError
from repro.gpu.kernel import KernelLaunch
from repro.gpu.memory import DeviceArray, MemoryManager
from repro.gpu.specs import DEFAULT_COSTS, TITAN_X, CostModel, DeviceSpec
from repro.gpu.stats import KernelStats, StageTimings, check_stage

#: Launch records ``Device.kernel_log`` retains.
KERNEL_LOG_LIMIT = 256


class Device:
    """A simulated GPU.

    Args:
        spec: Hardware description; defaults to the Titan-X-like profile the
            paper used.
        costs: Cycle-cost model for the analytic timer.
    """

    def __init__(self, spec: DeviceSpec = TITAN_X, costs: CostModel = DEFAULT_COSTS):
        self.spec = spec
        self.costs = costs
        self.memory = MemoryManager(spec.global_mem_bytes)
        self.timings = StageTimings()
        # The newest launches only (a served index launches forever);
        # ``launches`` counts every one since the last reset.
        self.kernel_log: deque[KernelStats] = deque(maxlen=KERNEL_LOG_LIMIT)
        self.launches = 0

    # ------------------------------------------------------------------
    # staging

    def charge_seconds(self, seconds: float, *, stage: str) -> None:
        """Add raw simulated seconds to a stage (device-side fixed costs)."""
        check_stage(stage)
        self.timings.add(stage, seconds)

    def reset_timings(self) -> None:
        """Zero all stage timers and the kernel log (memory state is kept)."""
        self.timings = StageTimings()
        self.kernel_log.clear()
        self.launches = 0

    # ------------------------------------------------------------------
    # memory and transfers

    def alloc_array(self, shape, dtype, label: str = "") -> DeviceArray:
        """Allocate a zero-initialized array in device memory."""
        data = np.zeros(shape, dtype=dtype)
        alloc = self.memory.alloc(data.nbytes, label=label)
        return DeviceArray(data, alloc, self.memory)

    def to_device(self, array: np.ndarray, label: str = "", *, stage: str) -> DeviceArray:
        """Copy a host array to the device, charging PCIe transfer time."""
        check_stage(stage)
        array = np.ascontiguousarray(array)
        alloc = self.memory.alloc(array.nbytes, label=label)
        self.timings.add(stage, array.nbytes / self.spec.pcie_bandwidth)
        return DeviceArray(array.copy(), alloc, self.memory)

    def to_host(self, darray: DeviceArray, *, stage: str) -> np.ndarray:
        """Copy a device array back to the host, charging transfer time."""
        check_stage(stage)
        self.timings.add(stage, darray.data.nbytes / self.spec.pcie_bandwidth)
        return darray.data.copy()

    # ------------------------------------------------------------------
    # kernel execution

    def price(self, launch: KernelLaunch) -> float:
        """Simulated seconds ``launch`` costs on this device; charges nothing.

        Blocks are assigned in order to the least-loaded SM (the hardware's
        greedy block scheduler); compute time is the slowest SM's makespan.
        The launch is additionally bounded below by global-memory bandwidth.
        A pure function of the launch, the spec and the cycle costs: timers,
        ``kernel_log``, ``launches`` and memory stay untouched, so a planner
        can ask what a launch *would* cost. An empty grid costs nothing.
        """
        if launch.num_blocks == 0:
            return 0.0
        # Vectorized block_cycles: passes = ceil(items / lanes), zero items
        # cost zero compute. Identical values to the scalar helper.
        lanes = min(launch.threads_per_block, self.spec.cores_per_sm)
        if lanes <= 0:
            raise ConfigError("threads_per_block must be positive")
        passes = -(launch.block_items // -lanes)
        per_block = (
            np.where(launch.block_items > 0, passes.astype(np.float64), 0.0)
            * launch.cycles_per_item
            + launch.fixed_cycles_per_block
        )
        makespan = _schedule_blocks(per_block, self.spec.num_sms)

        active_sms = max(1, min(launch.num_blocks, self.spec.num_sms))
        penalty = (
            launch.atomic_ops * self.costs.atomic_base_cycles
            + launch.atomic_conflicts * self.costs.atomic_conflict_cycles
            + launch.divergent_warps * self.costs.divergence_penalty_cycles
        )
        compute_seconds = (makespan + penalty / active_sms) / self.spec.clock_hz

        coalesced = launch.bytes_read + launch.bytes_written
        transactions = self.costs.transactions(coalesced, coalesced=True)
        transactions += self.costs.transactions(launch.uncoalesced_bytes, coalesced=False)
        memory_seconds = transactions * self.costs.mem_transaction_bytes / self.spec.mem_bandwidth

        # A single block streams at roughly one SM's share of the bandwidth;
        # a launch dominated by one huge block cannot hide behind the
        # device-wide bound. This is what makes list splitting (Fig. 4 /
        # Fig. 12) pay off even for memory-bound scans.
        total_items = max(1, launch.total_items)
        max_block_bytes = coalesced * (float(launch.block_items.max()) / total_items)
        per_sm_bandwidth = self.spec.mem_bandwidth / self.spec.num_sms
        memory_seconds = max(memory_seconds, max_block_bytes / per_sm_bandwidth)

        return max(compute_seconds, memory_seconds)

    def launch(self, launch: KernelLaunch, *, stage: str) -> KernelStats:
        """Charge :meth:`price` of ``launch`` to a stage and record it.

        Returns:
            A :class:`KernelStats` record, also appended to ``kernel_log``
            (which keeps the newest ``KERNEL_LOG_LIMIT``) and counted in
            ``launches``.
        """
        check_stage(stage)
        elapsed = self.price(launch)
        stats = KernelStats(
            name=launch.name,
            blocks=launch.num_blocks,
            ops=float(launch.total_items) * launch.cycles_per_item,
            bytes_read=launch.bytes_read,
            bytes_written=launch.bytes_written,
            uncoalesced_bytes=launch.uncoalesced_bytes,
            atomic_ops=launch.atomic_ops,
            atomic_conflicts=launch.atomic_conflicts,
            divergent_warps=launch.divergent_warps,
            elapsed_seconds=elapsed,
        )
        self.kernel_log.append(stats)
        self.launches += 1
        self.timings.add(stage, elapsed)
        return stats


def _schedule_blocks(per_block_cycles: np.ndarray, num_sms: int) -> float:
    """Greedy block-over-SM schedule; returns the makespan in cycles.

    Blocks are dispatched in launch order to the SM that frees up first,
    which is how the hardware's block scheduler behaves to a first
    approximation. A single huge block therefore dominates the makespan —
    exactly the imbalance GENIE's list-splitting fixes (Fig. 12). Equal costs skip
    the heap: the busiest SM adds the one cost ``ceil(blocks / num_sms)`` times, in order.
    """
    if per_block_cycles.size == 0:
        return 0.0
    if per_block_cycles.size <= num_sms:
        return float(per_block_cycles.max())
    if (per_block_cycles == per_block_cycles[0]).all():
        busiest, cost = 0.0, float(per_block_cycles[0])
        for _ in range(-(-per_block_cycles.size // num_sms)):
            busiest += cost
        return busiest
    loads = [0.0] * num_sms
    heapq.heapify(loads)
    for cycles in per_block_cycles.tolist():
        heapq.heapreplace(loads, loads[0] + cycles)
    return max(loads)
