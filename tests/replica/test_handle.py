"""Replicated indexes (``shards=N, replicas=R``): placement, failover, healing."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.errors import AvailabilityError, ConfigError
from repro.replica import FaultEvent, FaultPlan

N, VOCAB, K = 400, 200, 5


def make_data(seed=0, n=N):
    rng = np.random.default_rng(seed)
    return [
        np.unique(rng.choice(VOCAB, size=10, replace=False)).astype(np.int64)
        for _ in range(n)
    ]


def make_queries(seed=1, count=12):
    rng = np.random.default_rng(seed)
    return [
        np.sort(rng.choice(VOCAB, size=6, replace=False)).astype(np.int64)
        for _ in range(count)
    ]


def build(session, shards=4, replicas=2, **kw):
    return session.create_index(
        make_data(), model="raw", name="idx", shards=shards,
        replicas=replicas, **kw,
    )


def results_of(handle, queries):
    out = []
    for q in queries:
        r = handle.search([q], k=K)
        out.append(
            (
                tuple(np.asarray(r.ids).ravel()),
                tuple(np.asarray(r.counts).ravel()),
            )
        )
    return out


class TestPlacement:
    def test_chained_declustering_layout(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            assert handle.replica_layout() == {
                0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0),
            }

    def test_groups_span_distinct_devices(self):
        with GenieSession() as session:
            handle = build(session, shards=3, replicas=3)
            for devices in handle.replica_layout().values():
                assert len(set(devices)) == len(devices) == 3

    def test_pool_covers_replicas_beyond_shards(self):
        with GenieSession() as session:
            handle = build(session, shards=2, replicas=3)
            assert handle.placement.pool_size == 3
            for devices in handle.replica_layout().values():
                assert len(set(devices)) == 3

    def test_each_replica_is_its_own_residency_unit(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            resident = session.resident_parts()
            assert len(resident) == 8
            assert sorted(resident) == sorted([("idx", s) for s in range(4)] * 2)
            assert session.resident_bytes == handle.device_bytes

    def test_replicas_must_be_positive(self):
        with GenieSession() as session:
            with pytest.raises(ConfigError):
                build(session, shards=2, replicas=0)

    def test_replicas_require_shards(self):
        with GenieSession() as session:
            with pytest.raises(ConfigError, match="shards"):
                session.create_index(
                    make_data(), model="raw", name="idx", replicas=2
                )


class TestFailover:
    def test_results_match_unreplicated_sharded(self):
        queries = make_queries()
        with GenieSession() as a, GenieSession() as b:
            plain = a.create_index(make_data(), model="raw", name="idx", shards=4)
            repl = build(b, shards=4, replicas=2)
            assert results_of(plain, queries) == results_of(repl, queries)

    def test_failover_is_bit_identical_and_priced(self):
        queries = make_queries()
        with GenieSession() as healthy, GenieSession() as faulty:
            expected = results_of(build(healthy), queries)
            handle = build(faulty)
            faulty.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            assert results_of(handle, queries) == expected
            r = handle.search([queries[0]], k=K)
            assert r.failovers
            assert all(ev.device == 1 for ev in r.failovers)
            assert all(ev.penalty > 0 for ev in r.failovers)

    def test_failover_penalty_lands_on_critical_path(self):
        with GenieSession() as session:
            handle = build(session)
            q = make_queries(count=1)
            before = handle.search(q, k=K).profile.get("failover_retry")
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            after = handle.search(q, k=K).profile.get("failover_retry")
            assert before == 0.0
            assert after > 0.0

    def test_slow_device_stretches_but_preserves_results(self):
        queries = make_queries()
        with GenieSession() as healthy, GenieSession() as slowed:
            expected = results_of(build(healthy), queries)
            handle = build(slowed)
            slowed.inject_faults(
                FaultPlan([
                    FaultEvent(device=0, start=0.0, kind="slow", factor=8.0)
                ])
            )
            assert results_of(handle, queries) == expected

    def test_single_replica_down_raises_availability_error(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=1)
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            broad = np.arange(VOCAB, dtype=np.int64)  # hits every shard
            with pytest.raises(AvailabilityError) as err:
                handle.search([broad], k=K)
            assert err.value.shard == 1
            assert err.value.devices == (1,)

    def test_whole_group_down_raises_for_two_replicas(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            session.inject_faults(
                FaultPlan([
                    FaultEvent(device=1, start=0.0),
                    FaultEvent(device=2, start=0.0),
                ])
            )
            broad = np.arange(VOCAB, dtype=np.int64)
            with pytest.raises(AvailabilityError) as err:
                handle.search([broad], k=K)
            assert sorted(err.value.devices) == [1, 2]

    def test_transient_outage_recovers(self):
        with GenieSession() as session:
            from repro.serve.clock import VirtualClock

            clock = VirtualClock()
            handle = build(session)
            session.inject_faults(
                FaultPlan([FaultEvent(device=1, start=0.0, end=1.0)]),
                clock=clock,
            )
            q = make_queries(count=1)
            assert handle.search(q, k=K).failovers
            clock.advance_to(2.0)
            assert not handle.search(q, k=K).failovers


class TestReReplication:
    def test_re_replicate_restores_group_width(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            placed = handle.re_replicate()
            assert placed == 2  # device 1 hosted shard 0 r1 and shard 1 r0
            layout = handle.replica_layout()
            assert all(1 not in devices for devices in layout.values())
            assert all(len(set(d)) == 2 for d in layout.values())

    def test_healed_index_serves_without_failover(self):
        queries = make_queries()
        with GenieSession() as healthy, GenieSession() as faulty:
            expected = results_of(build(healthy), queries)
            handle = build(faulty)
            faulty.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            handle.re_replicate()
            assert results_of(handle, queries) == expected
            assert not handle.search([queries[0]], k=K).failovers

    @pytest.mark.parametrize("rebuild", ["compact", "rebalance"])
    def test_healed_layout_survives_rebuild(self, rebuild):
        # A rebuild places from placement.layout, not from the initial
        # chained declustering: copies healed off a dead device stay off.
        queries = make_queries()
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            assert handle.re_replicate() == 2
            healed = handle.replica_layout()
            assert healed == {0: (0, 2), 1: (0, 2), 2: (2, 3), 3: (3, 0)}
            if rebuild == "compact":
                handle.insert([np.array([1, 2, 3], dtype=np.int64)])
                assert handle.compact()
            else:
                assert handle.rebalance([10.0, 1.0, 1.0, 1.0])
            assert handle.replica_layout() == healed
            assert handle.re_replicate() == 0
            assert not handle.search(queries, k=K).failovers

    def test_transient_outage_does_not_re_replicate(self):
        with GenieSession() as session:
            handle = build(session)
            session.inject_faults(
                FaultPlan([FaultEvent(device=1, start=0.0, end=10.0)])
            )
            assert handle.re_replicate() == 0

    def test_no_faults_no_op(self):
        with GenieSession() as session:
            handle = build(session)
            assert handle.re_replicate() == 0

    def test_re_replicate_is_idempotent(self):
        with GenieSession() as session:
            handle = build(session)
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            assert handle.re_replicate() > 0
            assert handle.re_replicate() == 0


class TestLoadSteering:
    def test_scan_prefers_least_loaded_replica(self):
        with GenieSession() as session:
            handle = build(session, shards=4, replicas=2)
            devices = session.shard_devices(4)
            # Pile synthetic busy seconds onto device 0; the groups it
            # hosts (shard 0 on 0/1, shard 3 on 3/0) must now lead with
            # their other replica, so device 0 is never scanned.
            session.device_load.record(0, 10.0)
            handle.search([np.arange(VOCAB, dtype=np.int64)], k=K)
            assert devices[0].timings.get("match") == 0.0
            assert all(d.timings.get("match") > 0.0 for d in devices[1:])

    def test_the_delta_part_passes_through(self):
        # The delta run's part is not replicated: a mutated replicated
        # index scans it as itself and answers like a plain one.
        fresh = np.array([VOCAB + 1, VOCAB + 2], dtype=np.int64)
        queries = make_queries() + [fresh]
        with GenieSession() as a, GenieSession() as b:
            plain = a.create_index(make_data(), model="raw", name="idx", shards=4)
            repl = build(b, shards=4, replicas=2)
            for handle in (plain, repl):
                assert handle.insert([fresh]).tolist() == [N]
            assert results_of(plain, queries) == results_of(repl, queries)
            assert results_of(repl, [fresh])[0][0] == (N,)
