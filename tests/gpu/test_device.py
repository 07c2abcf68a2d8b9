"""Tests for the Device: launch timing, scheduling, staging, transfers."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scan_kernel import build_select_launch
from repro.errors import ConfigError
from repro.gpu.device import KERNEL_LOG_LIMIT, Device, _schedule_blocks
from repro.gpu.host import HostCpu
from repro.gpu.kernel import KernelLaunch, uniform_launch
from repro.gpu.specs import DeviceSpec
from repro.gpu.stats import STAGES


def _launch(block_items, **kwargs):
    return KernelLaunch(name="t", block_items=np.asarray(block_items), **kwargs)


def _pop_push_makespan(cycles, num_sms):
    """The greedy schedule written out: pop the lightest SM, push it back loaded."""
    if cycles.size <= num_sms:
        return float(cycles.max())
    loads = [0.0] * num_sms
    for block in cycles:
        heapq.heappush(loads, heapq.heappop(loads) + float(block))
    return max(loads)


class TestScheduler:
    def test_empty(self):
        assert _schedule_blocks(np.array([]), 4) == 0.0

    def test_fewer_blocks_than_sms_is_max(self):
        assert _schedule_blocks(np.array([5.0, 9.0, 2.0]), 24) == 9.0

    def test_greedy_balancing(self):
        # 8 equal blocks on 4 SMs -> 2 per SM.
        assert _schedule_blocks(np.full(8, 3.0), 4) == 6.0

    def test_one_giant_block_dominates(self):
        makespan = _schedule_blocks(np.array([100.0] + [1.0] * 50), 8)
        assert makespan == pytest.approx(100.0, rel=0.2)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("size", [1, 3, 4, 5, 257, 4000])
    def test_equals_pop_push_formulation_to_the_last_bit(self, seed, size):
        rng = np.random.default_rng([seed, size])
        # Few distinct values: SM loads tie on most steps.
        cycles = rng.choice([0.0, 6.0, 18.0, 1e-3, 7.25, 1e6 / 3], size=size) + rng.integers(0, 2, size) * 0.1
        assert _schedule_blocks(cycles, 4) == _pop_push_makespan(cycles, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 2000),
        st.integers(1, 64),
        st.one_of(
            st.floats(0.0, 1e-300), st.floats(1e-3, 1e3), st.floats(1e290, 1e308),
            st.sampled_from([0.0, 5e-324, 0.1, 1 / 3, 7.25, 2.0**53 + 2, 1e308]),
        ),
    )
    def test_equal_cost_blocks_skip_the_heap_to_the_last_bit(self, n, num_sms, cost):
        """One cost on every block: ``ceil(n / num_sms)`` sequential additions, tiny and huge costs, ``n``
        on both sides of the SM count (a huge cost may overflow to ``inf`` — on both sides alike)."""
        cycles = np.full(n, cost)
        got = _schedule_blocks(cycles, num_sms)
        assert type(got) is float
        assert got == _pop_push_makespan(cycles, num_sms)

    def test_equal_cost_blocks_add_up_rather_than_multiply(self):
        """Ten additions of 0.1 are not 0.1 * 10: the shortcut must add, as the heap does."""
        assert _schedule_blocks(np.full(40, 0.1), 4) == _pop_push_makespan(np.full(40, 0.1), 4) == 0.9999999999999999
        assert 0.1 * 10 == 1.0


class TestLaunchTiming:
    def test_elapsed_positive(self):
        device = Device()
        stats = device.launch(_launch([100, 100], bytes_read=800), stage="match")
        assert stats.elapsed_seconds > 0.0

    def test_more_work_more_time(self):
        device = Device()
        small = device.launch(uniform_launch("a", 10_000, 256), stage="match").elapsed_seconds
        large = device.launch(uniform_launch("b", 10_000_000, 256), stage="match").elapsed_seconds
        assert large > small

    def test_memory_bound_launch(self):
        device = Device()
        # Tiny compute, huge traffic: elapsed must respect the bandwidth.
        gigabyte = 1024**3
        stats = device.launch(
            uniform_launch("mem", 1000, 10, cycles_per_item=0.001, bytes_read=gigabyte)
        , stage="match")
        assert stats.elapsed_seconds >= gigabyte / device.spec.mem_bandwidth

    def test_single_block_capped_by_per_sm_bandwidth(self):
        device = Device()
        nbytes = 10 * 1024**2
        one_block = device.launch(
            _launch([1_000_000], cycles_per_item=0.001, bytes_read=nbytes)
        , stage="match").elapsed_seconds
        per_sm = device.spec.mem_bandwidth / device.spec.num_sms
        assert one_block >= nbytes / per_sm

    def test_split_blocks_beat_one_giant_block(self):
        device = Device()
        total = 1_000_000
        giant = device.launch(_launch([total], bytes_read=total * 4), stage="match").elapsed_seconds
        split = device.launch(
            uniform_launch("s", total, 4096, bytes_read=total * 4)
        , stage="match").elapsed_seconds
        assert split < giant

    def test_uncoalesced_traffic_slower(self):
        device = Device()
        nbytes = 4 * 1024**2
        coalesced = device.launch(
            uniform_launch("c", 1000, 100, bytes_read=nbytes)
        , stage="match").elapsed_seconds
        scattered = device.launch(
            uniform_launch("u", 1000, 100, uncoalesced_bytes=nbytes)
        , stage="match").elapsed_seconds
        assert scattered > coalesced

    def test_atomic_conflicts_add_time(self):
        device = Device()
        quiet = device.launch(uniform_launch("q", 10_000, 256), stage="match").elapsed_seconds
        contended = device.launch(
            uniform_launch("a", 10_000, 256, atomic_conflicts=1e6)
        , stage="match").elapsed_seconds
        assert contended > quiet

    def test_kernel_log_keeps_the_newest_and_counts_all(self):
        device = Device()
        launched = [device.launch(_launch([10 + i]), stage="match") for i in range(KERNEL_LOG_LIMIT + 3)]
        assert device.launches == KERNEL_LOG_LIMIT + 3
        assert list(device.kernel_log) == launched[3:]
        assert device.kernel_log[-1] is launched[-1]


class TestPrice:
    """``price`` is what ``launch`` charges, minus every side effect."""

    @settings(max_examples=60, deadline=None)
    @given(
        block_items=st.lists(st.integers(0, 5000), min_size=0, max_size=60),
        threads=st.sampled_from([1, 32, 100, 256, 1024]),
        cycles=st.floats(0.0, 8.0),
        traffic=st.tuples(*[st.floats(0.0, 1e7)] * 3),
        contention=st.tuples(*[st.floats(0.0, 1e5)] * 3),
    )
    def test_price_is_the_launch_charge_and_touches_nothing(
        self, block_items, threads, cycles, traffic, contention
    ):
        device = Device()
        device.to_device(np.arange(8), label="resident", stage="match")
        device.launch(_launch([7]), stage="select")
        launch = _launch(
            block_items, threads_per_block=threads, cycles_per_item=cycles,
            bytes_read=traffic[0], bytes_written=traffic[1], uncoalesced_bytes=traffic[2],
            atomic_ops=contention[0], atomic_conflicts=contention[1], divergent_warps=contention[2],
        )
        timings, log, used = device.timings.copy(), list(device.kernel_log), device.memory.used
        price = device.price(launch)
        assert device.timings == timings
        assert list(device.kernel_log) == log and device.launches == 1
        assert device.memory.used == used
        stats = device.launch(launch, stage="verify")
        assert stats.elapsed_seconds == price
        assert device.timings.get("verify") == price  # the only charge to this stage
        assert device.launches == 2 and device.kernel_log[-1] is stats

    def test_empty_grid_costs_nothing(self):
        device = Device()
        for launch in (_launch([], bytes_read=1e6), build_select_launch(0, 64, 10, 256)):
            assert device.price(launch) == 0.0
            stats = device.launch(launch, stage="match")
            assert stats.elapsed_seconds == 0.0 and stats.blocks == 0
        assert device.timings.total == 0.0 and device.launches == 2


#: The seven charging calls, each as ``(device, host, device array, stage) -> None``.
CHARGING_CALLS = {
    "Device.launch": lambda device, host, darray, stage: device.launch(_launch([100]), stage=stage),
    "Device.charge_seconds": lambda device, host, darray, stage: device.charge_seconds(1.0, stage=stage),
    "Device.to_device": lambda device, host, darray, stage: device.to_device(np.arange(4), stage=stage),
    "Device.to_host": lambda device, host, darray, stage: device.to_host(darray, stage=stage),
    "HostCpu.charge_ops": lambda device, host, darray, stage: host.charge_ops(10.0, stage=stage),
    "HostCpu.charge_bytes": lambda device, host, darray, stage: host.charge_bytes(64.0, stage=stage),
    "HostCpu.charge_seconds": lambda device, host, darray, stage: host.charge_seconds(1.0, stage=stage),
}


class TestStaging:
    def test_every_charge_names_its_stage(self):
        device = Device()
        darray = device.to_device(np.arange(4), stage="index_transfer")
        charges = (
            lambda: device.launch(_launch([100])),
            lambda: device.charge_seconds(1.0),
            lambda: device.to_device(np.arange(4)),
            lambda: device.to_host(darray),
        )
        for charge in charges:
            with pytest.raises(TypeError, match="stage"):
                charge()
        assert list(device.timings.seconds) == ["index_transfer"] and device.launches == 0
        assert not hasattr(device, "stage") and not hasattr(device, "current_stage")

    @pytest.mark.parametrize("call", sorted(CHARGING_CALLS))
    @pytest.mark.parametrize("stage", ["mach", f"{STAGES[3]}_{2}"], ids=["misspelt", "computed"])
    def test_undeclared_stage_rejected(self, call, stage):
        device, host = Device(), HostCpu()
        darray = device.to_device(np.arange(4), stage="index_transfer")
        before = (device.timings.copy(), device.launches, device.memory.used, host.timings.copy())
        with pytest.raises(ConfigError, match=f"undeclared stage {stage!r}"):
            CHARGING_CALLS[call](device, host, darray, stage)
        assert (device.timings, device.launches, device.memory.used, host.timings) == before

    def test_explicit_stage_argument_wins(self):
        device = Device()
        device.launch(_launch([100]), stage="index_transfer")
        assert device.timings.get("index_transfer") > 0.0

    def test_transfer_charges_pcie_time(self):
        device = Device()
        arr = np.zeros(3_000_000, dtype=np.int32)
        device.to_device(arr, stage="index_transfer")
        expected = arr.nbytes / device.spec.pcie_bandwidth
        assert device.timings.get("index_transfer") == pytest.approx(expected)

    def test_reset_timings(self):
        device = Device()
        device.launch(_launch([100]), stage="match")
        device.reset_timings()
        assert device.timings.total == 0.0
        assert len(device.kernel_log) == 0 and device.launches == 0

    def test_slow_pcie_slows_transfer(self):
        fast = Device(DeviceSpec(pcie_bandwidth=16e9))
        slow = Device(DeviceSpec(pcie_bandwidth=1e9))
        arr = np.zeros(1_000_000, dtype=np.int64)
        fast.to_device(arr, stage="match")
        slow.to_device(arr, stage="match")
        assert slow.timings.total > fast.timings.total
