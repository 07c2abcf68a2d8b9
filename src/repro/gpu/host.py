"""Host-CPU cost accounting for the CPU-side baselines and pipeline steps.

CPU competitors in the paper (CPU-Idx, CPU-LSH, AppGram) and GENIE's own
host-side steps (index build, final merge in multi-loading) are charged
against this model so all reported numbers live on one simulated clock.
Every charge names its stage (``stage=`` is required and must be one of
:data:`~repro.gpu.stats.CHARGED_STAGES`, as on :class:`~repro.gpu.device.Device`).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.gpu.specs import I7_3820, HostSpec
from repro.gpu.stats import StageTimings, check_stage


class HostCpu:
    """A simulated host CPU with staged timing.

    Args:
        spec: CPU description; defaults to the i7-3820-class profile.
        cores: Cores the workload may use (paper baselines are
            single-threaded, so 1 by default).
    """

    def __init__(self, spec: HostSpec = I7_3820, cores: int = 1):
        if cores < 1 or cores > spec.num_cores:
            raise ConfigError(f"cores must be in [1, {spec.num_cores}]")
        self.spec = spec
        self.cores = cores
        self.timings = StageTimings()

    def price_ops(self, n_ops: float) -> float:
        """Seconds ``n_ops`` simple operations take; charges nothing."""
        if n_ops < 0:
            raise ConfigError("negative op count")
        return n_ops / (self.spec.ops_per_second * self.cores)

    def charge_ops(self, n_ops: float, *, stage: str) -> float:
        """Charge ``n_ops`` simple operations; returns the seconds added."""
        check_stage(stage)
        seconds = self.price_ops(n_ops)
        self.timings.add(stage, seconds)
        return seconds

    def charge_bytes(self, nbytes: float, *, stage: str) -> float:
        """Charge a memory-bandwidth-bound pass over ``nbytes``."""
        check_stage(stage)
        if nbytes < 0:
            raise ConfigError("negative byte count")
        seconds = nbytes / self.spec.mem_bandwidth
        self.timings.add(stage, seconds)
        return seconds

    def charge_seconds(self, seconds: float, *, stage: str) -> None:
        """Charge raw simulated seconds."""
        check_stage(stage)
        self.timings.add(stage, seconds)

    def reset_timings(self) -> None:
        """Zero all stage timers."""
        self.timings = StageTimings()
