"""Served replication: failover counters, healing, policy-driven recuts."""

import numpy as np

from repro.api import GenieSession
from repro.replica import FaultEvent, FaultPlan, RebalancePolicy
from repro.serve import BatchPolicy, GenieServer

K = 5
VOCAB = 300


def make_data(seed=0, n=600):
    rng = np.random.default_rng(seed)
    return [
        np.unique(rng.choice(VOCAB, size=10, replace=False)).astype(np.int64)
        for _ in range(n)
    ]


def make_queries(seed=1, count=24):
    rng = np.random.default_rng(seed)
    return [
        np.sort(rng.choice(VOCAB, size=6, replace=False)).astype(np.int64)
        for _ in range(count)
    ]


def serve_all(server, queries, advance=1e-5):
    futures = []
    for q in queries:
        futures.append(server.submit("idx", q, k=K))
        server.advance(advance)
    server.drain()
    return [
        (
            tuple(np.asarray(f.result().ids).ravel()),
            tuple(np.asarray(f.result().counts).ravel()),
        )
        for f in futures
    ]


def make_server(session, **kw):
    kw.setdefault("policy", BatchPolicy.micro(max_batch=8, max_wait=1e-4))
    kw.setdefault("cache_size", None)
    return GenieServer(session, **kw)


class TestServedFailover:
    def test_kill_one_device_zero_failed_futures_identical_results(self):
        queries = make_queries()
        with GenieSession() as healthy, GenieSession() as faulty:
            healthy.create_index(
                make_data(), model="raw", name="idx", shards=4, replicas=2
            )
            expected = serve_all(make_server(healthy), queries)

            faulty.create_index(
                make_data(), model="raw", name="idx", shards=4, replicas=2
            )
            faulty.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            server = make_server(faulty)
            got = serve_all(server, queries)
            assert got == expected
            snap = server.metrics.snapshot()
            assert snap["replica_failovers"] > 0
            server.close()

    def test_permanent_failure_triggers_re_replication(self):
        with GenieSession() as session:
            handle = session.create_index(
                make_data(), model="raw", name="idx", shards=4, replicas=2
            )
            session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            server = make_server(session)
            serve_all(server, make_queries())
            snap = server.metrics.snapshot()
            assert snap["replica_re_replications"] == 2
            layout = handle.replica_layout()
            assert all(1 not in devices for devices in layout.values())
            server.close()

    def test_transient_failure_heals_itself_without_copies(self):
        with GenieSession() as session:
            session.create_index(
                make_data(), model="raw", name="idx", shards=4, replicas=2
            )
            session.inject_faults(
                FaultPlan([FaultEvent(device=1, start=0.0, end=2e-4)])
            )
            server = make_server(session)
            serve_all(server, make_queries())
            snap = server.metrics.snapshot()
            assert snap["replica_failovers"] > 0
            assert snap["replica_re_replications"] == 0
            # past the outage window the device serves again
            assert server.metrics.replica_failovers.value == snap["replica_failovers"]
            server.close()

    def test_fault_clock_is_auto_wired_to_server(self):
        with GenieSession() as session:
            session.create_index(
                make_data(), model="raw", name="idx", shards=4, replicas=2
            )
            injector = session.inject_faults(
                FaultPlan([FaultEvent(device=0, start=0.0)])
            )
            assert injector.clock is None
            server = make_server(session)
            assert injector.clock is server.clock
            server.close()


def narrow_band_rows(n=1200, span=30, seed=0):
    rng = np.random.default_rng(seed)
    base = np.sort(rng.integers(0, n, size=n))
    return [
        np.unique(rng.integers(b, b + span, size=8)).astype(np.int64)
        for b in base
    ]


class TestServedRebalance:
    def _skewed_workload(self, n=1200):
        rng = np.random.default_rng(4)
        hot = [
            np.sort(rng.choice(n // 4, size=6, replace=False)).astype(np.int64)
            for _ in range(40)
        ]
        cold = [
            np.sort(rng.choice(n - 50, size=6, replace=False)).astype(np.int64)
            for _ in range(8)
        ]
        return hot + cold

    def test_policy_recuts_hot_shard_and_preserves_results(self):
        rows = narrow_band_rows()
        queries = self._skewed_workload()
        with GenieSession() as session:
            handle = session.create_index(
                rows, model="raw", name="idx", shards=4
            )
            expected = [
                tuple(np.asarray(handle.search([q], k=K).ids).ravel())
                for q in queries
            ]
            fitted = handle.plan
            policy = RebalancePolicy(threshold=1.25, min_window=8, cooldown=16)
            server = make_server(session, rebalance=policy)
            got = serve_all(server, queries * 3)
            snap = server.metrics.snapshot()
            assert snap["replica_rebalances"] >= 1
            assert handle.plan is not fitted
            sizes = [len(p.corpus) for p in handle._parts]
            assert max(sizes) > min(sizes)  # recut followed the skew
            for i, (ids, _counts) in enumerate(got):
                assert ids == expected[i % len(queries)]
            server.close()

    def test_rebalance_resets_rolling_window(self):
        rows = narrow_band_rows()
        queries = self._skewed_workload()
        with GenieSession() as session:
            session.create_index(rows, model="raw", name="idx", shards=4)
            policy = RebalancePolicy(threshold=1.25, min_window=8, cooldown=64)
            server = make_server(session, rebalance=policy)
            serve_all(server, queries * 3)
            metrics = server.metrics
            if metrics.replica_rebalances.value:
                # post-fire observations only: the window was rebuilt
                # from scratch after the recut
                assert metrics.rolling_window_batches < metrics.sharded_batches.value
            server.close()

    def test_no_policy_means_no_rebalance(self):
        rows = narrow_band_rows()
        with GenieSession() as session:
            handle = session.create_index(rows, model="raw", name="idx", shards=4)
            fitted = handle.plan
            server = make_server(session)
            serve_all(server, self._skewed_workload() * 3)
            assert server.metrics.replica_rebalances.value == 0
            assert handle.plan is fitted
            server.close()
