"""Online insert/delete/update on a live IndexHandle.

Covers the mutation surface's visibility guarantees (a mutation is
searchable immediately), its validation errors, how the plan tree grows
a ``DeltaScan`` node, and how the epochs and invalidation hooks scope:
a mutation stales exactly one index's caches, without touching other
indexes or bumping the fit epoch.
"""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.errors import ConfigError, QueryError
from repro.plan.nodes import DeltaScanNode, MergeNode, ScanNode
from repro.stream import StreamConfig

OBJECTS = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]

NO_COMPACT = StreamConfig(auto_compact=False)


def make(session, **kwargs):
    kwargs.setdefault("stream_config", NO_COMPACT)
    return session.create_index(OBJECTS, model="raw", name="x", **kwargs)


class TestInsert:
    def test_inserts_are_searchable_immediately(self):
        session = GenieSession()
        handle = make(session)
        gids = handle.insert([[99], [99, 0]])
        assert np.array_equal(gids, [6, 7])
        result = handle.search([[99]], k=3)
        # Equal counts tie-break id-ascending, same as a refit would.
        assert np.array_equal(result.results[0].ids, [6, 7])
        assert np.array_equal(result.results[0].counts, [1, 1])
        session.close()

    def test_fit_required_before_mutating(self):
        session = GenieSession()
        handle = session.declare_index("raw", name="x")
        with pytest.raises(QueryError, match="fitted"):
            handle.insert([[1]])
        session.close()

    def test_empty_batch_rejected(self):
        session = GenieSession()
        handle = make(session)
        with pytest.raises(QueryError, match="empty insert"):
            handle.insert([])
        session.close()

    def test_segments_seal_and_rotate(self):
        session = GenieSession()
        handle = make(session, stream_config=StreamConfig(
            seal_objects=2, auto_compact=False))
        handle.insert([[1], [2], [3], [4], [5]])
        manifest = handle.manifest
        assert len(manifest.segments) == 3
        assert [len(s) for s in manifest.segments] == [2, 2, 1]
        assert [s.sealed for s in manifest.segments] == [True, True, False]
        session.close()

    def test_stateful_model_refuses_online_ingest(self):
        session = GenieSession()
        handle = session.create_index(
            ["gpu index search", "exact match counting"],
            model="document", name="docs", stream_config=NO_COMPACT,
        )
        with pytest.raises(ConfigError, match="does not support online ingest"):
            handle.insert(["new document"])
        session.close()


class TestDelete:
    def test_deleted_base_object_stops_matching(self):
        session = GenieSession()
        handle = make(session)
        before = handle.search([[1]], k=3).results[0]
        assert np.array_equal(before.ids, [0, 1])
        handle.delete([0])
        after = handle.search([[1]], k=3).results[0]
        assert np.array_equal(after.ids, [1])
        session.close()

    def test_deleted_delta_insert_is_removed_in_place(self):
        session = GenieSession()
        handle = make(session)
        (gid,) = handle.insert([[42]])
        handle.delete([gid])
        manifest = handle.manifest
        assert manifest.delta_objects == 0
        assert not manifest.tombstones.size  # segment edit, not a tombstone
        assert handle.search([[42]], k=2).results[0].ids.size == 0
        session.close()

    def test_delete_validates_all_or_nothing(self):
        session = GenieSession()
        handle = make(session)
        epoch = handle.mutation_epoch
        with pytest.raises(QueryError, match="not a live object"):
            handle.delete([0, 17])
        with pytest.raises(QueryError, match="duplicate"):
            handle.delete([0, 0])
        assert handle.mutation_epoch == epoch  # nothing applied
        assert handle.search([[1]], k=3).results[0].ids.size == 2
        session.close()

    def test_double_delete_rejected(self):
        session = GenieSession()
        handle = make(session)
        handle.delete([0])
        with pytest.raises(QueryError, match="not a live object"):
            handle.delete([0])
        session.close()

    @pytest.mark.parametrize(
        "bad, named",
        [(1.5, "1.5"), ("3", "'3'"), (2**63, str(2**63)), (float("nan"), "nan"), (None, "None"), (2**70, str(2**70))],
        ids=["fractional", "string", "2_63", "nan", "none", "python_int"],
    )
    def test_ids_are_validated_not_cast(self, bad, named):
        # 1.5 used to tombstone object 1, "3" object 3; 2**63 and nan raised raw errors.
        session = GenieSession()
        handle = make(session)
        (inserted,) = handle.insert([[42]])
        epoch = handle.mutation_epoch
        for ids in (bad, [bad], [0, bad], [inserted, bad]):
            with pytest.raises(QueryError, match="object ids must be integers") as error:
                handle.delete(ids)
            # Beside other numbers numpy may spell the value differently (2**63 as a float).
            assert named in str(error.value) or isinstance(ids, list) and len(ids) == 2
        with pytest.raises(QueryError, match="object ids must be integers") as error:
            handle.update(bad, [7])
        assert named in str(error.value)
        assert handle.mutation_epoch == epoch and not handle.manifest.tombstones.size  # nothing applied
        assert handle.manifest.delta_objects == 1
        assert handle.search([[1]], k=3).results[0].ids.size == 2
        session.close()

    def test_every_integer_spelling_of_an_id_still_works(self):
        session = GenieSession()
        handle = make(session)
        handle.delete([2.0])
        handle.delete(np.asarray([3], dtype=np.uint8))
        handle.delete(np.int32(4))
        handle.delete(5)
        handle.delete([True])
        handle.update(0.0, [9])
        assert handle.manifest.tombstones.tolist() == [0, 1, 2, 3, 4, 5]
        assert np.array_equal(handle.search([[9]], k=2).results[0].ids, [0])
        with pytest.raises(QueryError, match="non-negative integers; got -1"):
            handle.delete([5, -1])
        session.close()


class TestUpdate:
    def test_base_update_keeps_the_id(self):
        session = GenieSession()
        handle = make(session)
        handle.update(0, [50, 51])
        moved = handle.search([[50]], k=2).results[0]
        assert np.array_equal(moved.ids, [0])
        old = handle.search([[0]], k=2).results[0]
        assert old.ids.size == 0  # old keywords gone
        session.close()

    def test_delta_update_edits_in_place(self):
        session = GenieSession()
        handle = make(session)
        (gid,) = handle.insert([[60]])
        handle.update(gid, [61])
        manifest = handle.manifest
        assert not manifest.tombstones.size
        assert manifest.delta_objects == 1
        assert np.array_equal(handle.search([[61]], k=2).results[0].ids, [gid])
        session.close()

    def test_update_requires_a_live_object(self):
        session = GenieSession()
        handle = make(session)
        with pytest.raises(QueryError, match="not a live object"):
            handle.update(17, [1])
        session.close()


class TestPlans:
    def test_dirty_plan_grows_a_delta_scan(self):
        session = GenieSession()
        handle = make(session)
        clean = handle.explain([[1]], k=2)
        assert clean.find(DeltaScanNode) is None
        handle.insert([[1, 2], [3]])
        handle.delete([0])
        dirty = handle.explain([[1]], k=2)
        node = dirty.find(DeltaScanNode)
        assert node is not None
        assert node.segments == 1 and node.n_objects == 2
        assert node.postings == 3 and node.tombstones == 1
        assert isinstance(dirty, MergeNode) and dirty.strategy == "one-round"
        assert dirty.find(ScanNode) is not None
        rendered = dirty.render()
        assert "DeltaScan(index='x', segments=1" in rendered
        session.close()

    def test_sharded_dirty_plan_disables_two_round(self):
        session = GenieSession()
        handle = session.create_index(
            [[i, i + 1] for i in range(40)], model="raw", name="s",
            shards=4, stream_config=NO_COMPACT,
        )
        handle.insert([[0, 41]])
        plan = handle.explain([[0], [5]], k=4, plan="two-round")
        merge = plan.find(MergeNode)
        assert merge.strategy == "one-round"  # TPUT needs a clean base
        assert plan.find(DeltaScanNode) is not None
        session.close()

    def test_results_report_tombstone_filter_stage(self):
        session = GenieSession()
        handle = make(session)
        handle.delete([0])
        result = handle.search([[1]], k=2)
        assert result.profile.get("tombstone_filter") > 0.0
        session.close()


class TestEpochsAndInvalidation:
    def test_mutation_epoch_separate_from_fit_epoch(self):
        session = GenieSession()
        handle = make(session)
        fit_epoch = handle.fit_epoch
        handle.insert([[9]])
        handle.delete([0])
        assert handle.mutation_epoch == 2
        assert handle.fit_epoch == fit_epoch
        session.close()

    def test_mutation_invalidates_only_this_index(self):
        session = GenieSession()
        handle = make(session)
        session.create_index([[7]], model="raw", name="other",
                             stream_config=NO_COMPACT)
        stale: list[str] = []
        session.add_invalidation_hook(stale.append)
        handle.insert([[1]])
        assert stale == ["x"]  # "other" untouched
        session.close()

    def test_refit_abandons_live_mutations(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[70]])
        handle.fit([[0, 1], [1, 2]])
        assert handle.manifest is None
        assert handle.mutation_epoch == 0
        assert handle.search([[70]], k=2).results[0].ids.size == 0
        session.close()

    def test_a_new_segment_never_inherits_an_emptied_segments_scan_index(self):
        # The per-segment cache is keyed by id(segment): a segment emptied by a
        # delete was freed, the next insert's segment could reuse its address and
        # reach the same version — and was served the dead one's index (whether
        # the address is reused is the allocator's choice: about every other
        # process before the cache entry held its segment).
        session = GenieSession()
        handle = make(session)
        found = []
        for keyword in range(100, 148):
            (gid,) = handle.insert([[keyword]])
            found.append((gid, handle.search([[keyword]], k=2).results[0].ids.tolist()))
            handle.delete([gid])  # no search before the next insert: nothing prunes the cache
        assert found == [(gid, [gid]) for gid, _ in found]
        session.close()

    def test_mutated_index_evicts_delta_parts(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[80]])
        handle.search([[80]], k=2)  # materializes the delta part
        assert handle.device_bytes > 0
        handle.evict()
        assert handle.resident_parts == 0
        assert session.resident_parts() == []
        session.close()
