"""Compaction: threshold triggers, atomic swap, and cache scoping."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.plan.nodes import DeltaScanNode
from repro.stream import StreamConfig

CORPUS = [[i % 7, (i + 1) % 7] for i in range(20)]

NO_COMPACT = StreamConfig(auto_compact=False)


def make(session, **kwargs):
    kwargs.setdefault("stream_config", NO_COMPACT)
    return session.create_index(CORPUS, model="raw", name="x", **kwargs)


class TestManualCompact:
    def test_compact_on_a_clean_index_is_a_no_op(self):
        session = GenieSession()
        handle = make(session)
        assert handle.compact() is False  # never mutated: no stream at all
        handle.insert([[50]])
        assert handle.compact() is True
        assert handle.compact() is False  # already clean
        session.close()

    def test_compact_folds_deltas_into_a_fresh_base(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[50], [51]])
        handle.delete([0, 3])
        handle.update(5, [52])
        before = handle.search([[50], [5], [52]], k=4)
        assert handle.compact() is True
        manifest = handle.manifest
        assert manifest.dirty is False
        assert manifest.base_objects == manifest.next_gid == 22
        assert manifest.delta_postings == 0 and not manifest.tombstones.size
        assert manifest.compactions == 1
        after = handle.search([[50], [5], [52]], k=4)
        for a, b in zip(before.results, after.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.counts, b.counts)
            assert a.threshold == b.threshold
        session.close()

    def test_compacted_plan_has_no_delta_scan(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[50]])
        assert handle.explain([[50]], k=2).find(DeltaScanNode) is not None
        handle.compact()
        assert handle.explain([[50]], k=2).find(DeltaScanNode) is None
        session.close()

    def test_compact_preserves_ids_of_dead_slots(self):
        # gid 20 is inserted then deleted pre-compaction; ids past it must
        # not shift down when the base is rewritten.
        session = GenieSession()
        handle = make(session)
        (dead,) = handle.insert([[60]])
        (alive,) = handle.insert([[61]])
        handle.delete([dead])
        handle.compact()
        assert np.array_equal(
            handle.search([[61]], k=2).results[0].ids, [alive]
        )
        assert handle.search([[60]], k=2).results[0].ids.size == 0
        session.close()

    def test_mutations_continue_after_compact(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[70]])
        handle.compact()
        gids = handle.insert([[71]])
        assert gids[0] == 21  # next_gid carried through the swap
        assert np.array_equal(
            handle.search([[71]], k=2).results[0].ids, gids
        )
        session.close()


class TestAutoCompact:
    def test_triggers_on_delta_posting_ratio(self):
        session = GenieSession()
        handle = make(session, stream_config=StreamConfig(compact_ratio=0.25))
        # Base holds 40 postings; ratio 0.25 -> compact once deltas > 10.
        handle.insert([[i] for i in range(11)])
        assert handle.manifest.compactions == 1
        assert handle.manifest.dirty is False
        session.close()

    def test_triggers_on_tombstone_ratio(self):
        session = GenieSession()
        handle = make(session, stream_config=StreamConfig(compact_ratio=0.25))
        # 20 base objects; ratio 0.25 -> compact once tombstones > 5.
        handle.delete([0, 1, 2, 3, 4])
        assert handle.manifest.compactions == 0
        handle.delete([5])
        assert handle.manifest.compactions == 1
        assert not handle.manifest.tombstones.size
        session.close()

    def test_stays_put_below_threshold(self):
        session = GenieSession()
        handle = make(session, stream_config=StreamConfig(compact_ratio=0.5))
        handle.insert([[90]])
        assert handle.manifest.compactions == 0
        assert handle.manifest.dirty
        session.close()


class TestCacheScoping:
    # The plan cache only serves clean sharded broadcast compiles, so
    # these use shards and force the broadcast route.

    def test_compact_invalidates_plans_but_not_results(self):
        session = GenieSession()
        handle = make(session, shards=2)
        handle.search([[50]], k=2, route="broadcast")  # caches the clean plan
        handle.insert([[50]])
        handle.search([[50]], k=2, route="broadcast")  # dirty: compiled, not cached
        assert session.plan_cache.stats()["plan_cache_size"] == 1
        stale: list[str] = []
        session.add_invalidation_hook(stale.append)
        handle.compact()
        # Results stay valid (compaction is answer-preserving), so no
        # invalidation fires; the plan cache entry is dropped because the
        # shards it routed over were rebuilt.
        assert stale == []
        assert session.plan_cache.stats()["plan_cache_size"] == 0
        session.close()

    def test_plans_recompile_against_the_new_base(self):
        session = GenieSession()
        handle = make(session, shards=2)
        handle.search([[50]], k=2, route="broadcast")
        handle.insert([[50]])
        misses = session.plan_cache.stats()["misses"]
        handle.compact()
        result = handle.search([[50]], k=2, route="broadcast")
        stats = session.plan_cache.stats()
        assert stats["misses"] == misses + 1 and stats["hits"] == 0  # no false hit
        assert result.results[0].ids.tolist() == [20]
        session.close()

    def test_sharded_compact_rebuilds_every_shard(self):
        session = GenieSession()
        handle = session.create_index(
            [[i, i + 1] for i in range(40)], model="raw", name="s",
            shards=4, stream_config=NO_COMPACT,
        )
        handle.insert([[0, 100]])
        handle.delete([0])
        handle.compact()
        assert handle.manifest.dirty is False
        result = handle.search([[0], [100]], k=3)
        assert np.array_equal(result.results[0].ids, [40])
        assert np.array_equal(result.results[1].ids, [40])
        session.close()


class TestResidency:
    def test_compact_respects_the_residency_budget(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[95]])
        handle.compact()
        assert handle.device_bytes <= session.memory_budget
        result = handle.search([[95]], k=2)
        assert result.results[0].ids.size == 1
        session.close()
