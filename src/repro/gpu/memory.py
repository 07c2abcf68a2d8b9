"""Global-memory model of the simulated device.

The memory manager tracks allocations against the device's capacity and
raises :class:`~repro.errors.GpuOutOfMemoryError` when a request would not
fit, which is what forces the multi-loading strategy (Section III-D of the
paper) and bounds the number of in-flight queries (Table IV).

:class:`DeviceArray` pairs a live numpy array with its allocation record.
The simulator is *functional*: kernels read and write the numpy payloads
directly, while the device separately charges simulated time for the traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, GpuAllocationError, GpuOutOfMemoryError


@dataclass
class Allocation:
    """A live region of simulated global memory."""

    ident: int
    nbytes: int
    label: str
    freed: bool = False


class MemoryManager:
    """Tracks global-memory allocations of a device.

    Args:
        capacity: Device global memory in bytes.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigError("memory capacity must be positive")
        self.capacity = int(capacity)
        self._used = 0
        self._peak = 0
        self._next_id = 0
        self._live: dict[int, Allocation] = {}

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def peak(self) -> int:
        """High-water mark of allocated bytes."""
        return self._peak

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self._used

    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Reserve ``nbytes`` of global memory.

        Raises:
            GpuOutOfMemoryError: If the request exceeds remaining capacity.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise GpuAllocationError(f"negative allocation: {nbytes}")
        if self._used + nbytes > self.capacity:
            raise GpuOutOfMemoryError(nbytes, self._used, self.capacity)
        alloc = Allocation(ident=self._next_id, nbytes=nbytes, label=label)
        self._next_id += 1
        self._live[alloc.ident] = alloc
        self._used += nbytes
        self._peak = max(self._peak, self._used)
        return alloc

    def release(self, alloc: Allocation) -> None:
        """Return an allocation's bytes to the pool.

        Raises:
            GpuAllocationError: On double free or foreign handles.
        """
        if alloc.freed or alloc.ident not in self._live:
            raise GpuAllocationError(f"double or foreign free of {alloc!r}")
        del self._live[alloc.ident]
        alloc.freed = True
        self._used -= alloc.nbytes

    def live_allocations(self) -> list[Allocation]:
        """All currently live allocations (snapshot)."""
        return list(self._live.values())


class DeviceArray:
    """A numpy array resident in simulated device memory.

    Instances are created through :meth:`repro.gpu.device.Device.to_device`
    or :meth:`~repro.gpu.device.Device.alloc_array`; they hold both the
    functional payload (``data``) and the accounting record (``allocation``).
    """

    def __init__(self, data: np.ndarray, allocation: Allocation, manager: MemoryManager):
        self.data = data
        self.allocation = allocation
        self._manager = manager

    @property
    def nbytes(self) -> int:
        """Size of the device allocation in bytes."""
        return self.allocation.nbytes

    @property
    def shape(self):
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def dtype(self):
        """Dtype of the underlying array."""
        return self.data.dtype

    def free(self) -> None:
        """Release the device allocation. The host payload becomes invalid."""
        self._manager.release(self.allocation)
        self.data = None

    @property
    def is_live(self) -> bool:
        """Whether the allocation is still held."""
        return not self.allocation.freed
