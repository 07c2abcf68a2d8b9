"""Bounded memory of the long-lived serve loops.

A server lives as long as its session's traffic, and a session outlives its
servers and indexes. These tests pin that nothing a request, a closed
server or a dropped index leaves behind stays reachable: the leak tests
count what the session and the scheduler hold, and the steady-state tests
compare ``tracemalloc``'s retained bytes after N and after 4N iterations.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from repro.api import GenieSession, ResidencyLog
from repro.gpu.device import KERNEL_LOG_LIMIT
from repro.replica import FaultEvent, FaultPlan
from repro.serve import BatchPolicy, GenieServer
from repro.serve.metrics import LATENCY_WINDOW
from repro.stream import StreamConfig

WORDS = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue",
         "red", "green", "warp", "batch", "queue", "cache", "merge", "scan"]
_RNG = np.random.default_rng(0)
DOCS = [" ".join(_RNG.choice(WORDS, size=4, replace=False)) for _ in range(40)]
#: 120 distinct queries: more than any cache below holds.
QUERIES = list(dict.fromkeys(" ".join(_RNG.choice(WORDS, size=3, replace=False)) for _ in range(400)))[:120]
HOT = QUERIES[:8]
#: Keyword sets for the ``raw`` model, the one that ingests online.
OBJECTS = [[i % 16, 16 + (7 * i) % 16] for i in range(40)]
RAW_QUERIES = [[i % 16, 16 + (3 * i) % 16] for i in range(48)]
#: What a growth within the slack may be: allocator and interning noise.
SLACK_BYTES = 32 * 1024
#: The metrics' latency ring keeps two doubles a completion until it holds
#: LATENCY_WINDOW of them; a growth below that is bounded, not a leak.
RING_BYTES_PER_REQUEST = 2 * 8
#: An ``array`` grows its buffer by a sixteenth of the new size on append
#: (CPython's ``array_resize``), so m completions occupy at most
#: ``m * RING_OVERALLOCATION`` slots, plus a few the slack covers.
RING_OVERALLOCATION = 17 / 16


def _ring_growth(n):
    """Most bytes the rings can gain from n completions to 4n of them."""
    return RING_BYTES_PER_REQUEST * (4 * n * RING_OVERALLOCATION - n)


def _retained_growth(run, n, session):
    """Bytes still allocated after ``4 * n`` iterations of ``run`` minus after ``n``.

    Tracing starts before the first iteration, so an entry a bounded ring
    replaces is counted out as it is counted in. The first ``n`` must fill
    every pool device's kernel log (the newest ``KERNEL_LOG_LIMIT``
    launches), whose growth is bounded, not a leak.
    """
    tracemalloc.start()
    try:
        run(0, n)
        assert min(device.launches for device in session._device_pool) >= KERNEL_LOG_LIMIT
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        run(n, 4 * n)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def fill_kernel_logs(session, handle, queries=QUERIES):
    """Search until every pool device has logged ``KERNEL_LOG_LIMIT`` launches: full rings, whose growth is
    bounded. Called inside the first N, so the entries the rings keep are traced ones."""
    while min(device.launches for device in session._device_pool) < KERNEL_LOG_LIMIT:
        handle.search([queries[session.device.launches % len(queries)]], k=3)


class TestNothingOutlivesItsOwner:
    def test_closed_servers_release_their_caches(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        hooks = len(session._invalidation_hooks)
        caches = []
        for i in range(50):
            server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-3),
                                 cache_size=32)
            for query in QUERIES[i % 7 : i % 7 + 20]:
                server.submit("tweets", query, k=3)
            server.close()
            caches.append(weakref.ref(server.cache))
            del server
        gc.collect()
        assert len(session._invalidation_hooks) == hooks
        assert [ref() for ref in caches] == [None] * 50

    def test_unclosed_servers_are_released(self):
        # Most servers (benchmarks, examples, traffic drivers) have no cache
        # and are never closed: the session's hook must not keep them alive.
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        hooks = len(session._invalidation_hooks)
        servers = []
        for i in range(50):
            server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-3))
            for query in QUERIES[i % 7 : i % 7 + 20]:
                server.submit("tweets", query, k=3)
            server.drain()
            servers.append(weakref.ref(server))
            del server
        gc.collect()
        assert len(session._invalidation_hooks) == hooks
        assert [ref() for ref in servers] == [None] * 50
        session.create_index(DOCS, model="document", name="later")
        session.drop("later")  # a mutation after they are gone reaches no dead hook

    def test_the_scheduler_forgets_dropped_indexes(self):
        session = GenieSession()
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-3))
        session.create_index(DOCS, model="document", name="resident")
        for i in range(220):
            session.create_index(DOCS, model="document", name=f"t{i}")
            server.submit("resident", QUERIES[i % len(QUERIES)], k=3)
            server.submit(f"t{i}", QUERIES[i % len(QUERIES)], k=3)
            server.drain()
            session.drop(f"t{i}")
        assert set(server.scheduler._queues) <= set(session.indexes)
        assert server.snapshot()["failed"] == 0

    def test_a_queue_dropped_while_full_is_forgotten_once_it_drains(self):
        session = GenieSession()
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=8, max_wait=100.0))
        session.create_index(DOCS, model="document", name="gone")
        future = server.submit("gone", QUERIES[0], k=3)
        session.drop("gone")
        assert server.depth == 1  # still queued: its request must fail, not vanish
        server.drain()
        assert future.done() and server.snapshot()["failed"] == 1
        assert server.scheduler._queues == {}


class TestSteadyState:
    N = 900

    def test_serving_through_a_small_cache(self):
        session = GenieSession()
        session.create_index(DOCS, model="document", name="tweets")
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=8, max_wait=1e-4),
                             cache_size=32)

        def run(start, stop):
            for i in range(start, stop):
                server.advance(2e-5)
                # Half the traffic repeats a hot set the cache keeps; the
                # rest cycles through more queries than it holds.
                query = HOT[i % len(HOT)] if i % 2 else QUERIES[i % len(QUERIES)]
                server.submit("tweets", query, k=3)
            server.drain()

        assert 4 * self.N <= LATENCY_WINDOW
        growth = _retained_growth(run, self.N, session)
        assert server.cache.stats()["evictions"] > 0 and server.snapshot()["cache_hits"] > 0
        assert growth <= SLACK_BYTES + _ring_growth(self.N), growth

    def test_create_search_drop_cycles_with_a_server_attached(self):
        session = GenieSession()
        # Each cycle logs an attach and an evict naming its index. A log of
        # 16 fills in the first N cycles, so its bounded growth (1 024
        # events by default) does not read as a leak.
        session.residency_log = ResidencyLog(limit=16)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-4),
                             cache_size=16)
        n = self.N // 6  # two launches a cycle

        def run(start, stop):
            for i in range(start, stop):
                name = f"t{i}"
                session.create_index(DOCS, model="document", name=name)
                server.submit_many(name, QUERIES[i % 40 : i % 40 + 3], k=3)
                server.drain()
                session.drop(name)

        growth = _retained_growth(run, n, session)
        assert server.snapshot()["failed"] == 0
        assert growth <= SLACK_BYTES + _ring_growth(3 * n), growth

    def test_fault_windows_with_failover(self):
        """Crash windows that alternate between the devices of a 2 x 2 index, never overlapping,
        so every scan that meets a crashed copy fails over to its group's survivor. Allowance:
        the slack and the latency ring, as for the other serve loops; the first N fills both
        kernel logs before the windows start. The 3N extra requests stay under the slack only
        while one retains under ~50 B."""
        session = GenieSession()
        handle = session.create_index(DOCS, model="document", name="tweets", shards=2, replicas=2)
        server = GenieServer(session, policy=BatchPolicy.fifo(), cache_size=None)
        n = self.N // 4
        # Each iteration advances 2e-5 s: a window opens every 50 iterations and lasts 25.
        period = 1e-3
        windows = FaultPlan([
            FaultEvent(device=w % 2, start=w * period, end=(w + 0.5) * period)
            for w in range(int(4 * n * 2e-5 / period) + 1)
        ])
        failovers = []

        def run(start, stop):
            if start == 0:
                fill_kernel_logs(session, handle)
                session.inject_faults(windows, clock=server.clock)
            before = server.snapshot()["replica_failovers"]
            for i in range(start, stop):
                server.advance(2e-5)
                server.submit("tweets", QUERIES[i % len(QUERIES)], k=3)
            server.drain()
            failovers.append(server.snapshot()["replica_failovers"] - before)

        growth = _retained_growth(run, n, session)
        assert server.snapshot()["failed"] == 0 and min(failovers) > 0, failovers
        assert growth <= SLACK_BYTES + _ring_growth(n), growth

    def test_rebalance_with_re_replication(self):
        """Every iteration loses one device of a 3 x 2 range index for good, re-replicates the
        copies it held onto the survivors, heals, recuts the ranges and serves two searches.
        Allowance: the slack and the latency ring; the residency log is kept small, and the
        first N fills every kernel log. An iteration rebuilds the index, so the 3N extra
        iterations stay under the slack only while one retains under ~700 B."""
        session = GenieSession()
        session.residency_log = ResidencyLog(limit=16)
        handle = session.create_index(DOCS, model="document", name="tweets", shards=3, replicas=2)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=2, max_wait=1e-4), cache_size=None)
        weights = ([3.0, 1.0, 1.0], [1.0, 1.0, 3.0])
        n = self.N // 60

        def run(start, stop):
            if start == 0:
                fill_kernel_logs(session, handle)
            for i in range(start, stop):
                session.inject_faults(FaultPlan([FaultEvent(device=i % 3, start=0.0)]))
                assert handle.re_replicate() > 0
                session.inject_faults(None)
                assert handle.rebalance(weights[i % 2])
                server.submit_many("tweets", QUERIES[i % 40 : i % 40 + 4], k=3)
                server.drain()

        growth = _retained_growth(run, n, session)
        assert server.snapshot()["failed"] == 0
        assert growth <= SLACK_BYTES + _ring_growth(4 * n), growth

    def test_insert_delete_search_churn(self):
        """Every iteration inserts three objects, deletes them and searches: the run is empty at each
        search, nothing is ever tombstoned and no compaction runs, so only the run's own bound on its
        edit log keeps memory flat. Allowance: the slack alone; the 3N extra iterations stay under it
        only while one retains under ~10 B."""
        session = GenieSession()
        handle = session.create_index(OBJECTS, model="raw", name="s")
        n = self.N // 3

        def run(start, stop):
            if start == 0:
                fill_kernel_logs(session, handle, RAW_QUERIES)
            for i in range(start, stop):
                handle.delete(handle.insert(OBJECTS[i % 40 : i % 40 + 3]))
                handle.search([RAW_QUERIES[i % len(RAW_QUERIES)]], k=3)

        growth = _retained_growth(run, n, session)
        assert handle.manifest.compactions == 0 and not len(handle.manifest.delta)
        assert growth <= SLACK_BYTES, growth

    def test_updates_without_a_search(self):
        """Every iteration rewrites one of eight objects in the delta run, with no search between
        them to catch the run's index up. Allowance: the slack alone; the 3N extra iterations stay
        under it only while one retains under ~10 B."""
        session = GenieSession()
        handle = session.create_index(OBJECTS, model="raw", name="s")
        n = self.N

        def run(start, stop):
            if start == 0:
                fill_kernel_logs(session, handle, RAW_QUERIES)
                run.ids = handle.insert(OBJECTS[:8]).tolist()
            for i in range(start, stop):
                handle.update(run.ids[i % 8], OBJECTS[(i * 7) % 40])

        growth = _retained_growth(run, n, session)
        assert handle.manifest.compactions == 0 and handle.manifest.mutation_epoch == 4 * n + 1
        assert growth <= SLACK_BYTES, growth

    def test_stream_mutations_with_compaction(self):
        # Each name is created, mutated, compacted, served and dropped
        # twice, so the serve metrics see both reused and retired names.
        session = GenieSession()
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-4))
        metrics = server.metrics
        objects = OBJECTS
        n = 12

        def run(start, stop):
            for i in range(start, stop):
                name = f"s{i // 2}"
                handle = session.create_index(objects, model="raw", name=name,
                                              stream_config=StreamConfig(auto_compact=False))
                handle.insert([[i % 16, 40]])
                assert handle.compact()
                handle.insert([[41, 42]])  # a backlog the serve observes
                server.submit(name, [i % 16, 41], k=3)
                server.drain()
                assert server.snapshot()["delta_postings"] > 0
                session.drop(name)

        run(0, n)
        sizes = (len(metrics.delta_postings), len(metrics.compactions))
        run(n, 4 * n)
        snapshot = server.snapshot()
        assert snapshot["failed"] == 0
        assert snapshot["compactions"] == 4 * n  # lifetime: one compaction a cycle
        assert snapshot["delta_postings"] == 0  # no index is live
        assert (len(metrics.delta_postings), len(metrics.compactions)) == sizes == (0, 0)
