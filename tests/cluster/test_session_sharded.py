"""Tests for sharded session indexes: residency, profiles, serving."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.cluster import Placement
from repro.core.engine import GenieConfig
from repro.errors import AvailabilityError, ConfigError, QueryError
from repro.replica import FaultEvent, FaultPlan
from repro.serve import BatchPolicy, GenieServer


def _objects(n=400, m=6, domain=40, seed=0):
    rng = np.random.default_rng(seed)
    base = np.arange(m) * domain
    return [base + rng.integers(0, domain, size=m) for _ in range(n)]


def _queries(n=12, m=6, domain=40, seed=1):
    rng = np.random.default_rng(seed)
    base = np.arange(m) * domain
    return [base + rng.integers(0, domain, size=m) for _ in range(n)]


class TestCreateIndex:
    def test_shards_returns_sharded_handle(self):
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x", shards=4)
        assert handle.placement == Placement(shards=4)
        assert handle.placement.layout == ((0,), (1,), (2,), (3,))
        assert handle.n_shards == 4
        assert handle.num_parts == 4
        assert handle.plan.strategy == "range"

    def test_search_matches_unsharded_index(self):
        objects, queries = _objects(), _queries()
        session = GenieSession()
        plain = session.create_index(objects, model="raw", name="plain")
        for strategy in ("range", "hash"):
            sharded = session.create_index(
                objects, model="raw", name=f"sharded-{strategy}",
                shards=3, shard_strategy=strategy,
            )
            expected = plain.search(queries, k=8)
            got = sharded.search(queries, k=8)
            for a, b in zip(expected.results, got.results):
                assert np.array_equal(a.ids, b.ids)
                assert np.array_equal(a.counts, b.counts)

    def test_shards_exclusive_with_part_size(self):
        session = GenieSession()
        with pytest.raises(ConfigError, match="mutually exclusive"):
            session.create_index(_objects(), model="raw", shards=2, part_size=100)
        with pytest.raises(ConfigError, match="mutually exclusive"):
            session.create_index(_objects(), model="raw", shards=2, swap_parts=True)

    def test_bad_shard_count_rejected(self):
        session = GenieSession()
        for shards in (0, 2.5, float("nan"), True):
            with pytest.raises(ConfigError, match="shards must be"):
                session.create_index(_objects(), model="raw", name="x", shards=shards)
            assert "x" not in session.indexes
        with pytest.raises(ConfigError, match="replicas must be"):
            session.create_index(_objects(), model="raw", shards=2, replicas=1.5)

    def test_shard_options_without_shards_rejected(self):
        # A forgotten shards=N must not silently build an unsharded index.
        session = GenieSession()
        with pytest.raises(ConfigError, match="require shards=N"):
            session.create_index(_objects(), model="raw", shard_strategy="hash")
        with pytest.raises(ConfigError, match="require shards=N"):
            session.create_index(_objects(), model="raw", shard_seed=3)

    def test_unknown_strategy_rejected_before_name_registers(self):
        session = GenieSession()
        with pytest.raises(ConfigError, match="unknown shard strategy"):
            session.create_index(_objects(), model="raw", name="x",
                                 shards=2, shard_strategy="zip")
        assert "x" not in session.indexes
        # The corrected retry under the same name works.
        session.create_index(_objects(), model="raw", name="x", shards=2)

    def test_bad_seed_rejected_before_name_registers(self):
        session = GenieSession()
        with pytest.raises(ConfigError, match="seed must fit in 64 bits"):
            session.create_index(_objects(), model="raw", name="x",
                                 shards=2, shard_strategy="hash", shard_seed=-1)
        for seed in (float("nan"), 1.5):
            with pytest.raises(ConfigError, match="shard seed must be an integer"):
                session.create_index(_objects(), model="raw", name="x",
                                     shards=2, shard_strategy="hash", shard_seed=seed)
        assert "x" not in session.indexes

    def test_device_pool_reused_across_indexes(self):
        session = GenieSession()
        a = session.create_index(_objects(seed=0), model="raw", name="a", shards=3)
        b = session.create_index(_objects(seed=1), model="raw", name="b", shards=2)
        assert a.shard_devices()[0] is session.device
        assert b.shard_devices()[0] is session.device
        assert a.shard_devices()[1] is b.shard_devices()[1]
        assert len(session.shard_devices(3)) == 3

    def test_bad_shard_device_count_rejected(self):
        session = GenieSession()
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="shard device count"):
                session.shard_devices(bad)


@pytest.mark.parametrize("crash", [False, True])
@pytest.mark.parametrize("n_shards", [1, 3, 4])
@pytest.mark.parametrize("strategy", ["range", "hash"])
def test_replicas_omitted_is_one_replica(strategy, n_shards, crash):
    """``shards=N`` and ``shards=N, replicas=1`` are one program."""
    objects, queries = _objects(), _queries()
    observed = []
    for replicas in (None, 1):
        session = GenieSession()
        handle = session.create_index(
            objects, model="raw", name="x", shards=n_shards,
            shard_strategy=strategy, replicas=replicas,
        )
        explained = handle.explain(queries, k=6).render()
        if crash:
            session.inject_faults(FaultPlan([FaultEvent(device=0, start=0.0)]))
            with pytest.raises(AvailabilityError) as err:
                handle.search(queries, k=6)
            outcome = (str(err.value), err.value.shard, err.value.devices)
            assert handle.shard_profiles == ()
        else:
            result = handle.search(queries, k=6)
            outcome = (
                [(r.ids.tolist(), r.counts.tolist(), r.threshold) for r in result.results],
                result.profile.seconds,
                [p.seconds for p in result.shard_profiles],
                [p.seconds for p in handle.shard_profiles],
                result.plan.render(),
            )
        observed.append(
            (handle.placement, explained, outcome, list(session.residency_log))
        )
    assert observed[0] == observed[1]


class TestResidency:
    def test_each_shard_is_its_own_residency_unit(self):
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x", shards=4)
        assert handle.resident_parts == 4
        assert session.resident_parts() == [("x", 0), ("x", 1), ("x", 2), ("x", 3)]
        assert session.resident_bytes == handle.device_bytes

    def test_evicted_shards_swap_back_in_on_search(self):
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x", shards=3)
        session.evict("x")
        assert handle.resident_parts == 0
        result = handle.search(_queries(), k=5)
        assert result.swapped_in == 3
        assert handle.resident_parts == 3

    def test_budget_pressure_evicts_lru_shards(self):
        objects = _objects(n=600)
        probe = GenieSession()
        bytes_per_shard = probe.create_index(
            objects, model="raw", name="probe", shards=3
        ).device_bytes // 3

        session = GenieSession(memory_budget=bytes_per_shard * 4)
        session.create_index(objects, model="raw", name="x", shards=3)
        session.create_index(objects, model="raw", name="y", shards=3)
        # Budget holds 4 shards; fitting y (3 shards) evicted 2 of x's.
        assert session.index("y").resident_parts == 3
        assert session.index("x").resident_parts == 1
        # Searching x swaps all three of its shards back in: x's surviving
        # shard is the LRU entry, so x0's own attach evicts it first.
        result = session.index("x").search(_queries(), k=5)
        assert result.swapped_in == 3
        assert len(result.evicted) == 3
        assert session.index("x").resident_parts == 3

    def test_device_oom_evicts_same_device_parts_only(self):
        # Each pool device fits one shard part; make the LRU-first
        # resident live on a *different* device than the attach that
        # OOMs, and check the eviction targets the OOMing device.
        from repro.gpu.device import Device
        from repro.gpu.specs import small_device

        objects = _objects(n=300)  # 3 shards x 100 objs x 6 kw x 4B = 2400B/part
        device = Device(small_device(3000))
        session = GenieSession(device=device, memory_budget=1 << 30)
        a = session.create_index(objects, model="raw", name="a", shards=3)
        session._ensure_resident(a._parts[0])  # LRU bump: order is a1, a2, a0
        b = session.create_index(_objects(n=100, seed=1), model="raw", name="b", shards=1)
        # b's only shard lives on pool device 0: a0 (device 0) is evicted
        # even though a1 (device 1) was least recently used.
        assert b.resident
        assert [p.position for p in a._parts if p.resident] == [1, 2]

    def test_oversized_shard_error_advises_more_shards_not_part_size(self):
        # part_size= is rejected for sharded indexes, so the advisory
        # budget error must not recommend it.
        objects = _objects(n=600)
        probe = GenieSession()
        shard_bytes = probe.create_index(
            objects, model="raw", name="probe", shards=2
        ).device_bytes // 2
        session = GenieSession(memory_budget=shard_bytes - 1)
        with pytest.raises(ConfigError, match="raise shards= or the memory budget"):
            session.create_index(objects, model="raw", name="x", shards=2)

    def test_drop_releases_every_shard(self):
        session = GenieSession()
        session.create_index(_objects(), model="raw", name="x", shards=4)
        session.drop("x")
        assert session.resident_bytes == 0
        assert "x" not in session.indexes


class TestProfiles:
    def test_result_carries_shard_profiles(self):
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x", shards=3)
        result = handle.search(_queries(), k=5)
        assert result.shard_profiles is not None
        assert len(result.shard_profiles) == 3
        assert handle.shard_profiles == result.shard_profiles
        merge = result.profile.get("result_merge")
        assert result.profile.query_total() == pytest.approx(
            max(p.query_total() for p in result.shard_profiles) + merge
        )

    def test_all_skipped_queries_still_report_per_shard_profiles(self):
        # skip_empty models can drop every query; the result is still a
        # sharded result — one (empty) profile per shard, never ().
        session = GenieSession()
        handle = session.create_index(
            ["abcdef", "bcdefg"], model="ngram", n=3, name="g", shards=2
        )
        result = handle.search(["QQQQQQ"], k=2)
        assert result.shard_profiles is not None
        assert len(result.shard_profiles) == 2
        assert all(p.query_total() == 0.0 for p in result.shard_profiles)

    def test_unsharded_result_has_no_shard_profiles(self):
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x")
        assert handle.search(_queries(), k=5).shard_profiles is None

    def test_refit_replaces_shards(self):
        session = GenieSession()
        handle = session.create_index(_objects(seed=0), model="raw", name="x", shards=2)
        first_plan = handle.plan
        handle.fit(_objects(seed=2))
        assert handle.plan is not first_plan
        assert handle.fit_epoch == 2
        assert handle.resident_parts == 2


class TestServing:
    def test_server_records_per_shard_busy_and_imbalance(self):
        session = GenieSession()
        session.create_index(_objects(), model="raw", name="x", shards=3)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=8, max_wait=1.0),
                             cache_size=None)
        queries = _queries(n=8)
        futures = [server.submit("x", q, k=5) for q in queries]
        server.drain()
        direct = session.index("x").search(queries, k=5)
        for future, expected in zip(futures, direct.results):
            assert np.array_equal(future.result().ids, expected.ids)
        snap = server.snapshot()
        assert snap["sharded_batches"] >= 1
        assert set(snap["shard_busy_seconds"]) == {0, 1, 2}
        assert all(v > 0 for v in snap["shard_busy_seconds"].values())
        assert snap["shard_imbalance"] >= 1.0

    def test_batch_service_time_is_critical_path(self):
        session = GenieSession()
        session.create_index(_objects(), model="raw", name="x", shards=3)
        server = GenieServer(session, policy=BatchPolicy.micro(max_batch=8, max_wait=1.0),
                             cache_size=None)
        future = server.submit("x", _queries(n=1)[0], k=5)
        server.drain()
        snap = server.snapshot()
        shard_busy = snap["shard_busy_seconds"].values()
        assert snap["busy_seconds"] < sum(shard_busy)
        assert snap["busy_seconds"] > max(shard_busy)
        assert future.metadata.service_time == pytest.approx(snap["busy_seconds"])


class TestShardProfilesAfterFailure:
    def test_failed_search_clears_shard_profiles(self):
        # A monitoring caller must never read a previous search's
        # per-shard profiles as if they belonged to a failed one.
        session = GenieSession()
        handle = session.create_index(_objects(), model="raw", name="x", shards=3)
        ok = handle.search(_queries(n=2), k=3)
        assert handle.shard_profiles == ok.shard_profiles
        assert len(handle.shard_profiles) == 3
        with pytest.raises(QueryError):
            handle.search(_queries(n=2), k=0)
        assert handle.shard_profiles == ()
        again = handle.search(_queries(n=2), k=3)
        assert handle.shard_profiles == again.shard_profiles
