"""Unit behavior of the stream primitives: segments, config, manifest."""

import numpy as np
import pytest

from repro.core.types import Corpus
from repro.errors import ConfigError
from repro.stream import DeltaSegment, SegmentManifest, StreamConfig


def kw(*keywords):
    return np.asarray(keywords, dtype=np.int64)


class TestStreamConfig:
    def test_defaults(self):
        config = StreamConfig()
        assert config.seal_objects == 512
        assert config.compact_ratio == 0.25
        assert config.auto_compact is True

    def test_validation(self):
        with pytest.raises(ConfigError, match="seal_objects"):
            StreamConfig(seal_objects=0)
        with pytest.raises(ConfigError, match="compact_ratio"):
            StreamConfig(compact_ratio=0.0)
        with pytest.raises(ConfigError, match="compact_ratio"):
            StreamConfig(compact_ratio=-1.0)


def added(segment, gid, *keywords):
    segment.add(kw(gid), Corpus([keywords]))
    return segment


class TestDeltaSegment:
    def test_add_and_introspect(self):
        segment = DeltaSegment()
        added(segment, 7, 1, 2, 3)
        added(segment, 3, 4)
        assert len(segment) == 2
        assert segment.postings == 4
        assert segment.global_ids.tolist() == [3, 7]  # ascending gather-map order
        assert 7 in segment and 5 not in segment
        assert segment.rows_of([7, 5, 3]).tolist() == [1, -1, 0]
        assert np.array_equal(segment.corpus[1], kw(1, 2, 3))

    def test_duplicate_add_rejected(self):
        segment = added(DeltaSegment(), 1, 0)
        with pytest.raises(ConfigError, match="already holds object 1"):
            added(segment, 1, 9)

    def test_remove(self):
        segment = added(DeltaSegment(), 1, 5, 6)
        assert segment.rows_of(kw(1, 2)).tolist() == [0, -1]
        segment.remove(kw(0))
        assert segment.rows_of(kw(1)).tolist() == [-1]
        assert len(segment) == 0 and segment.postings == 0

    def test_replace_adjusts_postings(self):
        segment = added(added(DeltaSegment(), 1, 5, 6, 7), 2, 9)
        segment.replace(int(segment.rows_of(1)), Corpus([[8]]))
        assert segment.postings == 2
        assert [row.tolist() for row in segment.corpus] == [[8], [9]]

    def test_every_edit_bumps_version(self):
        """The corpus object is the version: whatever was built from an earlier one is stale."""
        segment = DeltaSegment()
        versions = [segment.corpus]
        added(segment, 1, 0)
        versions.append(segment.corpus)
        segment.replace(0, Corpus([[1]]))
        versions.append(segment.corpus)
        segment.remove(kw(0))
        versions.append(segment.corpus)
        assert len({id(corpus) for corpus in versions}) == len(versions)  # all held, all distinct

    def test_rows_land_at_their_sorted_position_without_a_resort(self):
        segment = DeltaSegment()
        segment.add(kw(10, 11, 12), Corpus([[3, 1], [], [5]]))
        added(segment, 4, 9, 8)  # an updated base object: a lower id than every insert
        assert segment.global_ids.tolist() == [4, 10, 11, 12]
        assert [row.tolist() for row in segment.corpus] == [[8, 9], [1, 3], [], [5]]
        segment.remove(segment.rows_of(kw(11, 4)))
        assert segment.global_ids.tolist() == [10, 12]
        assert [row.tolist() for row in segment.corpus] == [[1, 3], [5]]


class TestSegmentManifest:
    def test_clean_at_birth(self):
        manifest = SegmentManifest(10)
        assert manifest.dirty is False
        assert manifest.next_gid == manifest.base_objects == 10
        assert manifest.delta_objects == manifest.delta_postings == 0

    def test_dirty_on_segments_or_tombstones(self):
        manifest = SegmentManifest(10)
        manifest.segments.append(added(DeltaSegment(), 10, 1))
        assert manifest.dirty
        manifest.segments.clear()
        manifest.add_tombstones(np.asarray([3]))
        assert manifest.dirty

    def test_dirty_on_dead_id_slots_past_the_base(self):
        # An inserted-then-deleted object leaves no segment or tombstone,
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
            "base_objects": 5, "next_gid": 5, "segments": 0,
            "delta_objects": 0, "delta_postings": 0, "tombstones": 0,
            "mutation_epoch": 0, "base_epoch": 0, "compactions": 0,
        }
        assert "SegmentManifest(" in repr(manifest)
