"""The executor across handle kinds: the single-copy fault rule, the merge's price, strike + merge edge cases.

Answers are compared — ids, counts and the Theorem 3.1 threshold — with
brute-force match counting (:mod:`repro.core.match_count`) over the
logical corpus; random sequences of mutations, faults and directives are
``tests/test_oracle.py``'s.
"""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus, Query
from repro.errors import AvailabilityError
from repro.gpu.host import HostCpu
from repro.replica import FaultEvent, FaultPlan
from repro.stream import StreamConfig

K = 6
SLOW = 4.0

KINDS = {
    "serial": {},
    "shards-1": {"shards": 1},
    "multi": {"part_size": 40},
    "range": {"shards": 3},
    "hash-r2": {"shards": 3, "shard_strategy": "hash", "replicas": 2},
}
UNREPLICATED = ("serial", "shards-1", "multi")


def _objects(n, seed):
    rng = np.random.default_rng(seed)
    return [np.unique(rng.integers(0, 40, size=5)).astype(np.int64) for _ in range(n)]


QUERIES = [Query.from_keywords(keywords) for keywords in _objects(5, seed=1)]


def _build(kind, dirty, fault=None, host=None):
    """``(handle, logical)``: the index and the corpus a refit would see."""
    session = GenieSession(host=host)
    logical = _objects(120, seed=0)
    handle = session.create_index(
        logical, model="raw", name="x",
        stream_config=StreamConfig(auto_compact=False), **KINDS[kind],
    )
    if dirty:
        fresh = _objects(5, seed=2)
        gids = handle.insert(fresh)
        logical = logical + fresh
        dead = [3, 41, 97, int(gids[1])]  # three tombstones + one deleted insert
        handle.delete(dead)
        handle.update(10, [1, 2, 3])
        logical[10] = [1, 2, 3]
        for gid in dead:
            logical[gid] = []  # dead slots keep their id and match nothing
    if fault is not None:
        session.inject_faults(FaultPlan([fault]))
    return handle, Corpus(logical)


def _expected(query, logical, k):
    top = brute_force_topk(query, logical, k)
    found = [(i, c) for i, c in top if c > 0]
    # brute_force_topk lists min(k, n) objects, zero counts included, so
    # its last count is the k-th count — 0 when positives ran out.
    return [i for i, _ in found], [c for _, c in found], top[-1][1]


@pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
@pytest.mark.parametrize("kind", UNREPLICATED)
class TestOneFaultRule:
    """Handles without a second copy obey the fault plan like ``shards=1``."""

    def test_crashed_only_copy_is_unavailable(self, kind, dirty):
        handle, _ = _build(kind, dirty, FaultEvent(device=0, start=0.0))
        with pytest.raises(AvailabilityError) as err:
            handle.search(QUERIES, k=K)
        assert (err.value.shard, err.value.devices, err.value.segment) == (0, (0,), None)

    def test_slowed_device_stretches_the_scan(self, kind, dirty):
        healthy, _ = _build(kind, dirty)
        slowed, _ = _build(kind, dirty, FaultEvent(device=0, start=0.0, kind="slow", factor=SLOW))
        for stage in ("match", "select"):
            assert slowed.search(QUERIES, k=K).profile.get(stage) == pytest.approx(
                SLOW * healthy.search(QUERIES, k=K).profile.get(stage)
            )


def test_unreplicated_delta_run_is_named_when_its_device_is_down():
    # The delta run lives on the primary device only: one insert makes a
    # replicated index unavailable while device 0 is down (ROADMAP item 4).
    handle, _ = _build("hash-r2", dirty=True, fault=FaultEvent(device=0, start=0.0))
    with pytest.raises(AvailabilityError, match="delta run of index 'x'") as err:
        handle.search(QUERIES, k=K)
    assert err.value.segment == 0


def test_merge_profile_equals_the_host_charge_on_a_two_core_host():
    handle, _ = _build("multi", dirty=False, host=HostCpu(cores=2))
    host = handle.session.host
    before = host.timings.get("result_merge")
    result = handle.search(QUERIES, k=K)
    assert result.profile.get("result_merge") > 0.0
    assert result.profile.get("result_merge") == host.timings.get("result_merge") - before


def _check(handle, logical, ks=(K, 500)):
    """Every answer — ids, counts, threshold — like brute force, at k below and above n."""
    corpus = Corpus(logical)
    for k in ks:
        for query, got in zip(QUERIES, handle.search(QUERIES, k=k).results):
            assert (got.ids.tolist(), got.counts.tolist(), got.threshold) == _expected(query, corpus, k)


@pytest.mark.parametrize("kind", ["serial", "multi", "range", "hash-r2"])
class TestMutationsThatCrossTheMerge:
    """ROADMAP item 5(c): edge cases whose answer is decided in strike + merge."""

    def test_a_run_emptied_by_deletes_answers_like_its_dead_slots(self, kind):
        handle, logical = _build(kind, dirty=False)
        logical = [row.tolist() for row in logical]
        fresh = _objects(4, seed=3)
        gids = handle.insert(fresh).tolist()
        logical += fresh
        _check(handle, logical)
        handle.delete(gids[:2])  # the head of the run: its index drops them, the rest renumber
        logical[gids[0]] = logical[gids[1]] = []
        assert handle.manifest.describe()["delta_objects"] == 2
        _check(handle, logical)
        part = handle._stream.part
        handle.delete(gids[2:])  # and the rest: nothing to scan, still dirty (dead slots past the base)
        logical[gids[2]] = logical[gids[3]] = []
        assert handle.manifest.describe()["delta_objects"] == 0 and handle._stream.dirty
        _check(handle, logical)
        assert handle._stream.part is None and not part.resident  # the emptied run's part was evicted
        assert handle.compact()
        _check(handle, logical)

    def test_a_base_object_updated_twice_then_deleted_never_answers(self, kind):
        handle, logical = _build(kind, dirty=False)
        logical = [row.tolist() for row in logical]
        target = QUERIES[0].all_keywords().tolist()  # would rank first for the first query
        for replacement in ([1, 2, 3], target):
            handle.update(10, replacement)  # first: tombstone + delta copy; second: in the run
            logical[10] = replacement
            _check(handle, logical)
        assert handle.search(QUERIES[:1], k=1).results[0].ids.tolist() == [10]
        handle.delete([10])  # the delta copy goes; the base copy must stay struck
        logical[10] = []
        assert 10 in handle.manifest.tombstones and handle.manifest.describe()["delta_objects"] == 0
        _check(handle, logical)
        assert handle.compact()
        _check(handle, logical)

    def test_k_above_the_corpus_on_every_tombstoned_base(self, kind):
        handle, logical = _build(kind, dirty=True)
        logical = [row.tolist() for row in logical]
        survivors = [5, 64, int(len(logical) - 1)]
        dead = [gid for gid in range(len(logical)) if gid not in survivors and logical[gid]]
        handle.delete(dead)  # base widths grow to k + ~120 tombstones; almost every candidate is struck
        for gid in dead:
            logical[gid] = []
        _check(handle, logical, ks=(2, 500))
