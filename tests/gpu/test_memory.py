"""Tests for the global-memory manager and DeviceArray."""

import numpy as np
import pytest

from repro.errors import GpuAllocationError, GpuOutOfMemoryError
from repro.gpu.device import Device
from repro.gpu.memory import MemoryManager
from repro.gpu.specs import small_device


class TestMemoryManager:
    def test_alloc_tracks_usage(self):
        mm = MemoryManager(1000)
        mm.alloc(400)
        assert mm.used == 400
        assert mm.free == 600

    def test_oom_raises_with_details(self):
        mm = MemoryManager(1000)
        mm.alloc(800)
        with pytest.raises(GpuOutOfMemoryError) as info:
            mm.alloc(300)
        assert info.value.requested == 300
        assert info.value.used == 800
        assert info.value.capacity == 1000

    def test_release_returns_bytes(self):
        mm = MemoryManager(1000)
        a = mm.alloc(600)
        mm.release(a)
        assert mm.used == 0
        mm.alloc(1000)  # now fits

    def test_double_free_rejected(self):
        mm = MemoryManager(1000)
        a = mm.alloc(100)
        mm.release(a)
        with pytest.raises(GpuAllocationError):
            mm.release(a)

    def test_negative_alloc_rejected(self):
        mm = MemoryManager(1000)
        with pytest.raises(GpuAllocationError):
            mm.alloc(-1)

    def test_peak_high_water_mark(self):
        mm = MemoryManager(1000)
        a = mm.alloc(700)
        mm.release(a)
        mm.alloc(100)
        assert mm.peak == 700

    def test_exact_fit_allowed(self):
        mm = MemoryManager(1000)
        mm.alloc(1000)
        assert mm.free == 0

    def test_live_allocations_snapshot(self):
        mm = MemoryManager(1000)
        a = mm.alloc(10, label="x")
        b = mm.alloc(20, label="y")
        mm.release(a)
        live = mm.live_allocations()
        assert [alloc.label for alloc in live] == ["y"]
        assert live[0] is b

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryManager(0)


class TestDeviceArray:
    def test_to_device_roundtrip(self):
        device = Device()
        arr = np.arange(100, dtype=np.int32)
        darr = device.to_device(arr, stage="match")
        assert np.array_equal(device.to_host(darr, stage="match"), arr)

    def test_to_device_copies(self):
        device = Device()
        arr = np.arange(10, dtype=np.int64)
        darr = device.to_device(arr, stage="match")
        arr[0] = 999
        assert darr.data[0] == 0

    def test_free_releases_device_memory(self):
        device = Device(small_device(10_000))
        darr = device.to_device(np.zeros(1000, dtype=np.int64), stage="match")
        used = device.memory.used
        darr.free()
        assert device.memory.used == used - 8000
        assert not darr.is_live

    def test_alloc_array_zeroed(self):
        device = Device()
        darr = device.alloc_array((4, 4), np.float64)
        assert darr.shape == (4, 4)
        assert darr.dtype == np.float64
        assert not darr.data.any()

    def test_oom_on_small_device(self):
        device = Device(small_device(1000))
        with pytest.raises(GpuOutOfMemoryError):
            device.to_device(np.zeros(1000, dtype=np.int64), stage="match")
