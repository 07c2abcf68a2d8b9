"""Tests for the simulated host CPU."""

import pytest

from repro.gpu.host import HostCpu
from repro.gpu.specs import HostSpec


class TestHostCpu:
    def test_charge_ops_time(self):
        host = HostCpu()
        seconds = host.charge_ops(host.spec.ops_per_second, stage="match")
        assert seconds == pytest.approx(1.0)
        assert host.timings.get("match") == pytest.approx(1.0)

    def test_price_ops_is_the_charge_without_the_side_effect(self):
        host = HostCpu(cores=2)
        price = host.price_ops(12345.0)
        assert host.timings.total == 0.0
        assert host.charge_ops(12345.0, stage="result_merge") == price
        assert host.timings.get("result_merge") == price

    def test_charge_bytes_time(self):
        host = HostCpu()
        seconds = host.charge_bytes(host.spec.mem_bandwidth / 2, stage="match")
        assert seconds == pytest.approx(0.5)

    def test_multicore_speedup(self):
        single = HostCpu(cores=1)
        quad = HostCpu(cores=4)
        assert quad.charge_ops(1e9, stage="match") == pytest.approx(single.charge_ops(1e9, stage="match") / 4)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ValueError):
            HostCpu(cores=0)
        with pytest.raises(ValueError):
            HostCpu(HostSpec(num_cores=2), cores=3)

    def test_negative_charges_rejected(self):
        host = HostCpu()
        with pytest.raises(ValueError):
            host.charge_ops(-1, stage="match")
        with pytest.raises(ValueError):
            host.charge_bytes(-1, stage="match")

    def test_every_charge_names_its_stage(self):
        host = HostCpu()
        for charge in (host.charge_ops, host.charge_bytes, host.charge_seconds):
            with pytest.raises(TypeError, match="stage"):
                charge(100)
        assert host.timings.total == 0.0 and not hasattr(host, "stage")

    def test_reset(self):
        host = HostCpu()
        host.charge_ops(100, stage="match")
        host.reset_timings()
        assert host.timings.total == 0.0
