"""Online insert/delete/update on a live IndexHandle.

Covers the mutation surface's visibility guarantees (a mutation is
searchable immediately), its validation errors, how the plan tree grows
a ``DeltaScan`` node, and how the epochs and invalidation hooks scope:
a mutation stales exactly one index's caches, without touching other
indexes or bumping the fit epoch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.core.inverted_index import InvertedIndex
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
        with pytest.raises(QueryError, match="objects must be iterable"):
            handle.insert(None)
        session.close()

    def test_every_insert_lands_in_the_one_run(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[1], [2], [3]])
        handle.update(2, [7])  # a base object's replacement: mid-run, by id
        handle.insert([[4], [5]])
        manifest = handle.manifest
        assert manifest.delta.global_ids.tolist() == [2, 6, 7, 8, 9, 10]
        assert manifest.delta_objects == 6 and manifest.delta_postings == 6
        trace = handle.search([[1]], k=2, trace=True).trace
        spans = [span for _, span in trace.walk() if span.name == "delta_scan"]
        assert len(spans) == 1  # however many mutation calls: one delta source
        session.close()

    def test_inserted_empty_object_takes_an_id_and_never_matches(self):
        session = GenieSession()
        handle = make(session)
        assert handle.insert([[], [99]]).tolist() == [6, 7]
        assert handle.manifest.delta_objects == 2 and handle.manifest.delta_postings == 1
        assert handle.search([[99]], k=3).results[0].ids.tolist() == [7]
        handle.compact()
        assert handle.search([[99]], k=3).results[0].ids.tolist() == [7]
        handle.update(6, [99])  # the empty slot is a live object like any other
        assert handle.search([[99]], k=3).results[0].ids.tolist() == [6, 7]
        session.close()

    def test_insert_into_an_index_created_empty(self):
        session = GenieSession()
        handle = session.create_index([], model="raw", name="empty", stream_config=NO_COMPACT)
        assert handle.search([[1]], k=2).results[0].ids.size == 0
        assert handle.insert([[1, 2], [2]]).tolist() == [0, 1]
        top = handle.search([[1, 2]], k=2).results[0]
        assert top.ids.tolist() == [0, 1] and top.counts.tolist() == [2, 1]
        handle.compact()
        assert handle.search([[1, 2]], k=2).results[0].ids.tolist() == [0, 1]
        session.close()

    def test_largest_keyword_survives_a_compaction(self):
        big = 2**63 - 1
        session = GenieSession()
        handle = make(session)
        (gid,) = handle.insert([[big, 1]])
        handle.update(0, [big])
        for _ in range(2):  # streamed, then folded into the base
            top = handle.search([[big]], k=3).results[0]
            assert top.ids.tolist() == [0, gid] and top.counts.tolist() == [1, 1]
            handle.compact()
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
        assert not manifest.tombstones.size  # an edit of the run, not a tombstone
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
        assert handle.compact()  # the slot stays in the rebuilt base, empty and dead
        with pytest.raises(QueryError, match="not a live object"):
            handle.delete([0])
        with pytest.raises(QueryError, match="not a live object"):
            handle.update(0, [7])
        session.close()

    def test_negative_duplicate_and_dead_ids_apply_nothing(self):
        session = GenieSession()
        handle = make(session)
        (inserted,) = handle.insert([[42]])
        handle.delete([1, inserted])  # one dead base id, one dead delta id
        state = handle.manifest.describe()
        for ids, message in [
            ([-1], "non-negative integers; got -1"),
            ([0, -3], "non-negative integers; got -3"),
            ([2, 2], "duplicate ids"),
            ([1], "cannot delete id 1: not a live object"),
            ([0, inserted], f"cannot delete id {inserted}: not a live object"),
            ([0, 99], "cannot delete id 99: not a live object"),
        ]:
            with pytest.raises(QueryError, match=message):
                handle.delete(ids)
        for gid, message in [
            (-1, "non-negative integers; got -1"),
            (1, "cannot update id 1: not a live object"),
            (inserted, f"cannot update id {inserted}: not a live object"),
            (99, "cannot update id 99: not a live object"),
        ]:
            with pytest.raises(QueryError, match=message):
                handle.update(gid, [5])
        assert handle.manifest.describe() == state
        assert handle.search([[1]], k=3).results[0].ids.tolist() == [0]
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

    @pytest.mark.parametrize("ids", [[], [0], [0, 1], np.array([0, 1]), np.array([0])], ids=["empty", "one", "two", "array", "one_array"])
    def test_update_takes_one_id(self, ids):
        session = GenieSession()
        handle = make(session)
        handle.insert([[42]])
        state, epoch = handle.manifest.describe(), handle.mutation_epoch
        with pytest.raises(QueryError, match=r"update takes one object id; got (\[|array)"):
            handle.update(ids, [7])
        assert handle.manifest.describe() == state and handle.mutation_epoch == epoch  # nothing applied
        assert handle.search([[7]], k=3).results[0].ids.size == 0
        session.close()


class TestIndexMaintenance:
    def test_search_after_mutations_builds_no_index(self, monkeypatch):
        """The run's index is merged forward; only a compaction sorts postings again."""
        builds = []
        build = InvertedIndex.build.__func__

        def counting_build(cls, corpus, load_balance=None):
            builds.append(len(corpus))
            return build(cls, corpus, load_balance)

        monkeypatch.setattr(InvertedIndex, "build", classmethod(counting_build))
        rng = np.random.default_rng(5)
        session = GenieSession()
        handle = session.create_index(
            [rng.integers(0, 40, size=5).tolist() for _ in range(60)], model="raw", name="x",
            shards=3, shard_strategy="range", stream_config=NO_COMPACT,
        )
        assert len(builds) == 3  # the fit: one per shard
        del builds[:]
        spent = session.host.timings.get("index_build")
        for step in range(6):
            gids = handle.insert([rng.integers(0, 40, size=5).tolist() for _ in range(4)])
            handle.delete([step, int(gids[0])])  # one base object, one delta object
            handle.update(20 + step, [1, 2])  # a base object's replacement lands mid-run
            handle.update(int(gids[1]), [3])  # a delta object edited in place
            handle.search([[1, 2, 3]], k=3)
            assert session.host.timings.get("index_build") > spent  # the merge is charged...
            spent = session.host.timings.get("index_build")
            handle.search([[1, 2, 3]], k=3)
            assert session.host.timings.get("index_build") == spent  # ...once per edit, not per search
        assert builds == []
        assert handle.compact()
        assert len(builds) == 3  # compaction rebuilds the base: one per shard
        session.close()


    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["insert", "delete", "update", "search", "compact"]),
                              st.integers(0, 10**6)), max_size=14))
    def test_marks_and_gauges_follow_every_edit(self, steps):
        """The per-id marks answer what the sorted tombstones and a shadow of the live ids say,
        ``delta_postings`` is the folded run's size, and a search leaves the run's index current."""
        rng = np.random.default_rng(steps[0][1] if steps else 0)
        session = GenieSession()
        handle = make(session)
        shadow = dict(enumerate(OBJECTS))
        for kind, pick in steps:
            live = sorted(shadow)
            if kind == "insert":
                objects = [rng.integers(0, 9, size=rng.integers(0, 4)).tolist() for _ in range(1 + pick % 3)]
                shadow.update(zip(handle.insert(objects).tolist(), objects))
            elif kind == "delete" and live:
                victims = sorted({live[(pick + i) % len(live)] for i in range(1 + pick % 2)})
                handle.delete(victims)
                for gid in victims:
                    del shadow[gid]
            elif kind == "update" and live:
                shadow[live[pick % len(live)]] = [pick % 9]
                handle.update(live[pick % len(live)], [pick % 9])
            elif kind == "search":
                handle.search([[1, 2]], k=2)
            elif kind == "compact":
                handle.compact()
            manifest, stream = handle.manifest, handle._stream
            if manifest is None:
                continue
            ids = np.arange(manifest.next_gid + 3)
            assert np.array_equal(manifest.is_tombstoned(ids), np.isin(ids, manifest.tombstones))
            alive = stream._is_live(ids, manifest.delta.rows_of(ids))
            assert alive.tolist() == [gid in shadow for gid in ids.tolist()]
            assert manifest.delta_postings == manifest.delta.corpus.total_entries
            if kind == "search" and len(manifest.delta):
                run = manifest.delta
                built = InvertedIndex.build(run.corpus, handle.config.load_balance)
                assert np.array_equal(run.index.list_array, built.list_array)
                assert np.array_equal(run.index.keyword_array, built.keyword_array)
                assert [sorted(set(shadow[g])) for g in run.global_ids.tolist()] == [r.tolist() for r in run.corpus]
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
        assert node.n_objects == 2
        assert node.postings == 3 and node.tombstones == 1
        assert isinstance(dirty, MergeNode) and dirty.strategy == "one-round"
        assert dirty.find(ScanNode) is not None
        rendered = dirty.render()
        assert "DeltaScan(index='x', objects=2, postings=3, tombstones=1, queries=1, k=2)" in rendered
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

    def test_a_refilled_run_never_serves_the_emptied_runs_scan_index(self):
        # Once a per-segment cache keyed by id(segment) served a freed
        # segment's index to its successor; the one run keeps its part by the
        # identity of the index it scans, and drops it when the run empties.
        session = GenieSession()
        handle = make(session)
        found = []
        for keyword in range(100, 148):
            (gid,) = handle.insert([[keyword]])
            found.append((gid, handle.search([[keyword]], k=2).results[0].ids.tolist()))
            handle.delete([gid])  # no search before the next insert: the part outlives the row
        assert found == [(gid, [gid]) for gid, _ in found]
        session.close()

    def test_mutated_index_evicts_the_delta_part(self):
        session = GenieSession()
        handle = make(session)
        handle.insert([[80]])
        handle.search([[80]], k=2)  # materializes the delta part
        assert handle.device_bytes > 0
        handle.evict()
        assert handle.resident_parts == 0
        assert session.resident_parts() == []
        session.close()
