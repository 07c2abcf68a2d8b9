"""Unit behavior of the stream primitives: the delta run, config, manifest."""

import numpy as np
import pytest

from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import Corpus
from repro.errors import ConfigError
from repro.stream import DeltaRun, SegmentManifest, StreamConfig


def kw(*keywords):
    return np.asarray(keywords, dtype=np.int64)


class TestStreamConfig:
    def test_defaults(self):
        config = StreamConfig()
        assert not hasattr(config, "seal_objects")  # one run: nothing to seal
        assert config.compact_ratio == 0.25
        assert config.auto_compact is True

    def test_validation(self):
        with pytest.raises(TypeError, match="seal_objects"):
            StreamConfig(seal_objects=0)
        with pytest.raises(ConfigError, match="compact_ratio"):
            StreamConfig(compact_ratio=0.0)
        with pytest.raises(ConfigError, match="compact_ratio"):
            StreamConfig(compact_ratio=-1.0)


def added(run, gid, *keywords):
    run.add(kw(gid), Corpus([keywords]))
    return run


class TestDeltaRun:
    def test_add_and_introspect(self):
        run = DeltaRun()
        added(run, 7, 1, 2, 3)
        added(run, 3, 4)
        assert len(run) == 2
        assert run.corpus.total_entries == 4
        assert run.global_ids.tolist() == [3, 7]  # ascending gather-map order
        assert run.rows_of([7, 5, 3]).tolist() == [1, -1, 0]
        assert np.array_equal(run.corpus[1], kw(1, 2, 3))

    def test_duplicate_add_rejected(self):
        run = added(DeltaRun(), 1, 0)
        with pytest.raises(ConfigError, match="already holds object 1"):
            added(run, 1, 9)

    def test_remove(self):
        run = added(DeltaRun(), 1, 5, 6)
        assert run.rows_of(kw(1, 2)).tolist() == [0, -1]
        run.remove(kw(0))
        assert run.rows_of(kw(1)).tolist() == [-1]
        assert len(run) == 0 and run.corpus.total_entries == 0

    def test_replace_adjusts_postings(self):
        run = added(added(DeltaRun(), 1, 5, 6, 7), 2, 9)
        run.replace(int(run.rows_of(1)), Corpus([[8]]))
        assert run.corpus.total_entries == 2
        assert [row.tolist() for row in run.corpus] == [[8], [9]]

    def test_every_edit_bumps_version(self):
        """The corpus object is the version: whatever was built from an earlier one is stale."""
        run = DeltaRun()
        versions = [run.corpus]
        added(run, 1, 0)
        versions.append(run.corpus)
        run.replace(0, Corpus([[1]]))
        versions.append(run.corpus)
        run.remove(kw(0))
        versions.append(run.corpus)
        assert len({id(corpus) for corpus in versions}) == len(versions)  # all held, all distinct

    def test_rows_land_at_their_sorted_position_without_a_resort(self):
        run = DeltaRun()
        run.add(kw(10, 11, 12), Corpus([[3, 1], [], [5]]))
        added(run, 4, 9, 8)  # an updated base object: a lower id than every insert
        assert run.global_ids.tolist() == [4, 10, 11, 12]
        assert [row.tolist() for row in run.corpus] == [[8, 9], [1, 3], [], [5]]
        run.remove(run.rows_of(kw(11, 4)))
        assert run.global_ids.tolist() == [10, 12]
        assert [row.tolist() for row in run.corpus] == [[1, 3], [5]]


INDEX_ARRAYS = ("list_array", "keyword_array", "kw_span_offsets", "span_starts", "span_ends")


def assert_index_current(run, load_balance=None):
    """``run.index`` is, array for array, a from-scratch build of ``run.corpus``."""
    built = InvertedIndex.build(run.corpus, load_balance)
    for name in INDEX_ARRAYS:
        assert np.array_equal(getattr(run.index, name), getattr(built, name)), name
    assert run.index.n_objects == len(run) and run.index.load_balance == load_balance
    run.index.validate()


class TestDeltaRunIndex:
    def test_refresh_follows_every_kind_of_edit(self):
        run = DeltaRun()
        assert run.refresh() == 0.0 and run.index.n_objects == 0
        run.add(kw(10, 11, 12), Corpus([[3, 1], [], [5, 1]]))
        assert run.index.n_objects == 0  # the index lags until a search asks
        assert run.refresh() > 0.0
        assert_index_current(run)
        added(run, 4, 9, 1)  # a base object's replacement lands mid-run (here: first)
        run.replace(int(run.rows_of(12)), Corpus([[7]]))
        run.remove(run.rows_of(kw(10)))
        added(run, 13, 3)
        assert run.refresh() > 0.0
        assert run.global_ids.tolist() == [4, 11, 12, 13]
        assert_index_current(run)

    def test_refresh_without_an_edit_keeps_the_index_object(self):
        run = added(DeltaRun(), 1, 5, 6)
        run.refresh()
        index = run.index
        assert run.refresh() == 0.0 and run.index is index
        run.replace(0, Corpus([[6, 7]]))  # same ids, new contents: still an edit
        assert run.refresh() > 0.0 and run.index is not index
        assert_index_current(run)

    def test_added_then_removed_before_a_search_never_reaches_the_index(self):
        run = added(DeltaRun(), 1, 5)
        run.refresh()
        added(run, 2, 6)
        run.remove(run.rows_of(kw(2)))
        run.refresh()
        assert_index_current(run)
        assert run.index.keyword_array.tolist() == [5]

    def test_emptied_run_indexes_nothing(self):
        run = added(added(DeltaRun(), 1, 5), 2, 5, 6)
        run.refresh()
        run.remove(kw(0, 1))
        run.refresh()
        assert_index_current(run)
        assert run.index.total_entries == 0 and run.index.n_objects == 0

    def test_load_balance_splits_the_run_like_the_base(self):
        balance = LoadBalanceConfig(max_sublist_len=2)
        run = DeltaRun(balance)
        run.add(kw(0, 1, 2, 3, 4), Corpus([[1], [1], [1, 2], [1], [1]]))
        run.refresh()
        assert_index_current(run, balance)
        assert run.index.num_lists == 4  # keyword 1: 5 postings in sublists of <= 2
        run.remove(kw(1, 3))
        run.refresh()
        assert_index_current(run, balance)

    def test_refresh_price_is_the_merge_not_a_rebuild(self):
        rng = np.random.default_rng(0)
        run = DeltaRun()
        run.add(np.arange(400), Corpus(rng.integers(0, 50, size=(400, 6))))
        run.refresh()
        run.add(np.arange(400, 410), Corpus(rng.integers(0, 50, size=(10, 6))))
        ops = run.refresh()
        assert ops == run.index.build_ops < InvertedIndex.build(run.corpus).build_ops


class TestSegmentManifest:
    def test_clean_at_birth(self):
        manifest = SegmentManifest(10)
        assert manifest.dirty is False
        assert manifest.next_gid == manifest.base_objects == 10
        assert manifest.delta_objects == manifest.delta_postings == 0

    def test_dirty_on_delta_or_tombstones(self):
        manifest = SegmentManifest(10)
        added(manifest.delta, 10, 1)
        assert manifest.dirty and manifest.delta_objects == 1 and manifest.delta_postings == 1
        manifest.delta.remove(kw(0))
        assert not manifest.dirty
        manifest.add_tombstones(np.asarray([3]))
        assert manifest.dirty

    def test_the_run_inherits_the_index_load_balance(self):
        balance = LoadBalanceConfig(max_sublist_len=3)
        assert SegmentManifest(4, balance).delta.index.load_balance == balance

    def test_dirty_on_dead_id_slots_past_the_base(self):
        # An inserted-then-deleted object leaves no run or tombstone,
        # but its id slot still shifts the logical corpus size: a refit
        # would index the empty slot, so searches must stay on the
        # streamed path until compaction folds it in.
        manifest = SegmentManifest(10)
        manifest.next_gid = 12
        assert manifest.dirty

    def test_describe_is_deterministic(self):
        manifest = SegmentManifest(5)
        described = manifest.describe()
        assert described == {
            "base_objects": 5, "next_gid": 5,
            "delta_objects": 0, "delta_postings": 0, "tombstones": 0,
            "mutation_epoch": 0, "compactions": 0,
        }
        assert "SegmentManifest(" in repr(manifest)
