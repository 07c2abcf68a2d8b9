"""Simulated-GPU substrate: device model, memory, kernels, cost accounting.

The paper runs on a real NVIDIA Titan X; this package provides the
functional-plus-analytic simulator that stands in for it (see the opening
section of README.md, "GENIE reproduction", for the substitution argument). Public entry points:

* :class:`~repro.gpu.device.Device` — the device itself,
* :class:`~repro.gpu.host.HostCpu` — the paired host CPU,
* :class:`~repro.gpu.kernel.KernelLaunch` — how kernels describe their cost,
* :mod:`~repro.gpu.specs` — hardware profiles and the cycle-cost model.
"""

from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.gpu.kernel import KernelLaunch, uniform_launch
from repro.gpu.memory import DeviceArray, MemoryManager
from repro.gpu.specs import DEFAULT_COSTS, I7_3820, TITAN_X, CostModel, DeviceSpec, HostSpec, small_device
from repro.gpu.stats import STAGES, KernelStats, StageTimings

__all__ = [
    "Device",
    "HostCpu",
    "KernelLaunch",
    "uniform_launch",
    "DeviceArray",
    "MemoryManager",
    "DeviceSpec",
    "HostSpec",
    "CostModel",
    "TITAN_X",
    "I7_3820",
    "DEFAULT_COSTS",
    "small_device",
    "KernelStats",
    "StageTimings",
    "STAGES",
]
