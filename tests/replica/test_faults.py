"""FaultPlan/FaultInjector: seeded schedules, status math, retry pricing."""

from math import inf, nan

import numpy as np
import pytest

from repro.api import GenieSession
from repro.errors import AvailabilityError, ConfigError
from repro.replica import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    STATUS_DOWN,
    STATUS_SLOW,
    STATUS_UP,
)
from repro.serve import BatchPolicy, GenieServer


class TestFaultEvent:
    def test_transient_window(self):
        ev = FaultEvent(device=1, start=2.0, end=5.0)
        assert not ev.active(1.9)
        assert ev.active(2.0)
        assert ev.active(4.999)
        assert not ev.active(5.0)
        assert not ev.permanent

    def test_permanent_has_no_end(self):
        ev = FaultEvent(device=0, start=1.0)
        assert ev.permanent
        assert ev.active(1e9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FaultEvent(device=-1, start=0.0)
        with pytest.raises(ConfigError):
            FaultEvent(device=0, start=2.0, end=1.0)
        with pytest.raises(ConfigError):
            FaultEvent(device=0, start=0.0, kind="meltdown")
        with pytest.raises(ConfigError):
            FaultEvent(device=0, start=0.0, kind="slow", factor=0.5)
        # NaN would start an outage that never ends or a slowdown that never
        # slows; an infinite end is never "permanent", so never healed.
        for bad in ({"start": nan}, {"start": inf}, {"start": 0.0, "end": nan}, {"start": 0.0, "end": inf},
                    {"start": 0.0, "kind": "slow", "factor": nan}, {"start": 0.0, "kind": "slow", "factor": inf}):
            with pytest.raises(ConfigError, match="finite"):
                FaultEvent(device=0, **bad)


class TestFaultPlanState:
    def test_crash_dominates_slow(self):
        plan = FaultPlan([
            FaultEvent(device=0, start=0.0, end=10.0, kind="slow", factor=3.0),
            FaultEvent(device=0, start=2.0, end=4.0),
        ])
        assert plan.state(0, 1.0) == (STATUS_SLOW, 3.0)
        assert plan.state(0, 3.0)[0] == STATUS_DOWN
        assert plan.state(0, 5.0) == (STATUS_SLOW, 3.0)
        assert plan.state(0, 11.0) == (STATUS_UP, 1.0)

    def test_overlapping_slowdowns_take_max_factor(self):
        plan = FaultPlan([
            FaultEvent(device=2, start=0.0, end=10.0, kind="slow", factor=2.0),
            FaultEvent(device=2, start=1.0, end=3.0, kind="slow", factor=6.0),
        ])
        assert plan.state(2, 2.0) == (STATUS_SLOW, 6.0)
        assert plan.state(2, 5.0) == (STATUS_SLOW, 2.0)

    def test_down_devices_and_permanence(self):
        plan = FaultPlan([
            FaultEvent(device=0, start=1.0),
            FaultEvent(device=3, start=0.0, end=2.0),
        ])
        assert plan.down_devices(1.5) == (0, 3)
        assert plan.down_devices(2.5) == (0,)
        assert plan.permanently_down(0, 1.5)
        assert not plan.permanently_down(3, 1.5)

    def test_untouched_device_is_up(self):
        plan = FaultPlan([FaultEvent(device=0, start=0.0)])
        assert plan.state(7, 0.0) == (STATUS_UP, 1.0)


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(n_devices=4, horizon=1.0, seed=7, max_down=2)
        b = FaultPlan.random(n_devices=4, horizon=1.0, seed=7, max_down=2)
        assert a.events == b.events
        assert a.events  # a nonempty schedule, or the test is vacuous

    def test_different_seed_different_plan(self):
        a = FaultPlan.random(n_devices=4, horizon=1.0, seed=7)
        b = FaultPlan.random(n_devices=4, horizon=1.0, seed=8)
        assert a.events != b.events

    @pytest.mark.parametrize("max_down", [1, 2])
    def test_concurrent_crashes_never_exceed_max_down(self, max_down):
        plan = FaultPlan.random(
            n_devices=4, horizon=2.0, seed=3, max_down=max_down
        )
        probes = np.linspace(0.0, 2.0, 400)
        worst = max(len(plan.down_devices(t)) for t in probes)
        assert worst <= max_down

    def test_slow_fraction_produces_slowdowns(self):
        plan = FaultPlan.random(
            n_devices=4, horizon=2.0, seed=5, slow_fraction=1.0, slow_factor=3.0
        )
        assert plan.events
        assert all(ev.kind == "slow" for ev in plan.events)


class TestInjector:
    def test_retry_penalty_is_deterministic_per_context(self):
        a = FaultInjector(FaultPlan([]), seed=4)
        b = FaultInjector(FaultPlan([]), seed=4)
        assert a.retry_penalty_for(2, 0) == b.retry_penalty_for(2, 0)
        assert a.retry_penalty_for(2, 0) != a.retry_penalty_for(2, 1)
        assert a.retry_penalty_for(2, 0) != a.retry_penalty_for(3, 0)

    def test_penalty_within_jitter_band(self):
        inj = FaultInjector(FaultPlan([]), retry_penalty=1e-3, retry_jitter=0.5)
        for shard in range(4):
            p = inj.retry_penalty_for(shard, 0)
            assert 0.5e-3 <= p <= 1.5e-3

    def test_without_clock_time_is_zero(self):
        inj = FaultInjector(FaultPlan([FaultEvent(device=0, start=1.0)]))
        assert inj.now() == 0.0
        assert inj.state(0)[0] == STATUS_UP  # fault starts later

    def test_negative_device_is_always_up(self):
        inj = FaultInjector(FaultPlan([FaultEvent(device=0, start=0.0)]))
        assert inj.state(-1) == (STATUS_UP, 1.0)


K = 5
VOCAB = 240


def make_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return [np.unique(rng.choice(VOCAB, size=9, replace=False)).astype(np.int64) for _ in range(n)]


class TestSingleReplicaFailsClean:
    """With one copy, a dead device surfaces as an AvailabilityError — never a hang or a drop."""

    @pytest.mark.parametrize("victim", [0, 1, 3])
    def test_availability_error_names_the_dead_group(self, victim):
        with GenieSession() as session:
            handle = session.create_index(make_data(), model="raw", name="idx", shards=4, replicas=1)
            session.inject_faults(FaultPlan([FaultEvent(device=victim, start=0.0)]))
            broad = np.arange(VOCAB, dtype=np.int64)
            with pytest.raises(AvailabilityError) as err:
                handle.search([broad], k=K)
            assert err.value.shard == victim  # range shard s on device s
            assert err.value.devices == (victim,)

    def test_served_single_replica_failure_is_a_failed_future_not_a_hang(self):
        with GenieSession() as session:
            session.create_index(make_data(), model="raw", name="idx", shards=4, replicas=1)
            session.inject_faults(FaultPlan([FaultEvent(device=2, start=0.0)]))
            server = GenieServer(session, policy=BatchPolicy.fifo())
            broad = np.arange(VOCAB, dtype=np.int64)
            future = server.submit("idx", broad, k=K)
            server.drain()
            with pytest.raises(AvailabilityError):
                future.result()
            server.close()

    def test_pruned_shards_keep_serving_around_a_dead_one(self):
        # Range routing elides the dead shard for queries whose keywords
        # cannot live there — those still answer.
        rng = np.random.default_rng(0)
        base = np.sort(rng.integers(0, 1000, size=1000))
        rows = [np.unique(rng.integers(b, b + 25, size=8)).astype(np.int64) for b in base]
        with GenieSession() as session:
            handle = session.create_index(rows, model="raw", name="idx", shards=4, replicas=1)
            session.inject_faults(FaultPlan([FaultEvent(device=3, start=0.0)]))
            low = np.arange(40, dtype=np.int64)  # far from shard 3's range
            result = handle.search([low], k=K)
            assert np.asarray(result.ids).size
