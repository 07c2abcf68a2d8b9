"""Tests for ShardPlan: partitioning, id maps, determinism, validation."""

import numpy as np
import pytest

from repro.cluster import PARTITION_STRATEGIES, ShardPlan
from repro.core.types import Corpus
from repro.errors import ConfigError


def _corpus(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return Corpus([rng.integers(0, 30, size=rng.integers(1, 6)) for _ in range(n)])


class TestBuild:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7, 25])
    def test_partitions_exactly_once(self, strategy, n_shards):
        corpus = _corpus(n=20)
        plan = ShardPlan.build(corpus, n_shards, strategy=strategy)
        plan.validate()
        assert plan.n_shards == n_shards
        assert sum(plan.sizes()) == len(corpus)

    def test_range_shards_are_contiguous_and_balanced(self):
        plan = ShardPlan.build(_corpus(n=10), 4, strategy="range")
        for shard in plan.shards:
            ids = shard.global_ids
            assert np.array_equal(ids, np.arange(ids[0], ids[0] + ids.size))
        sizes = plan.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_global_ids_sorted_ascending(self):
        for strategy in PARTITION_STRATEGIES:
            plan = ShardPlan.build(_corpus(n=40), 5, strategy=strategy)
            for shard in plan.shards:
                assert np.all(np.diff(shard.global_ids) > 0) or shard.global_ids.size <= 1

    def test_shard_corpora_match_global_objects(self):
        corpus = _corpus(n=30)
        plan = ShardPlan.build(corpus, 3, strategy="hash", seed=5)
        for shard in plan.shards:
            for local, global_id in enumerate(shard.global_ids):
                assert np.array_equal(
                    shard.corpus.keyword_arrays[local],
                    np.unique(corpus.keyword_arrays[int(global_id)]),
                )

    def test_hash_partition_is_deterministic_per_seed(self):
        corpus = _corpus(n=50)
        a = ShardPlan.build(corpus, 4, strategy="hash", seed=1)
        b = ShardPlan.build(corpus, 4, strategy="hash", seed=1)
        c = ShardPlan.build(corpus, 4, strategy="hash", seed=2)
        for sa, sb in zip(a.shards, b.shards):
            assert np.array_equal(sa.global_ids, sb.global_ids)
        assert any(
            not np.array_equal(sa.global_ids, sc.global_ids)
            for sa, sc in zip(a.shards, c.shards)
        )

    def test_more_shards_than_objects_leaves_empty_shards(self):
        plan = ShardPlan.build(_corpus(n=3), 8, strategy="range")
        plan.validate()
        assert sum(plan.sizes()) == 3
        assert plan.n_shards == 8

    def test_raw_object_lists_are_adopted(self):
        plan = ShardPlan.build([[1, 2], [3]], 2)
        plan.validate()
        assert plan.n_objects == 2


class TestBounds:
    """Range cuts are a stored field of the plan, and what a rebuild keeps is decided here."""

    def test_bounds_are_stored_not_rediscovered(self):
        assert ShardPlan.build(_corpus(n=10), 4, strategy="range").bounds == [0, 2, 5, 7, 10]
        assert ShardPlan.build(_corpus(n=10), 1).bounds == [0, 10]
        assert ShardPlan.build(_corpus(n=10), 4, strategy="hash").bounds is None
        plan = ShardPlan.build_ranges(_corpus(n=10), np.asarray([0, 1, 1, 10]))
        assert plan.bounds == [0, 1, 1, 10] and plan.sizes() == [1, 0, 9]

    def test_a_recut_partition_carries_its_interior_cuts(self):
        recut = ShardPlan.build_ranges(_corpus(n=10), [0, 1, 3, 10])
        assert recut.carried_bounds(14) == [0, 1, 3, 14]
        ShardPlan.build_ranges(_corpus(n=14), recut.carried_bounds(14)).validate()

    def test_an_equal_or_hash_partition_is_cut_again(self):
        assert ShardPlan.build(_corpus(n=10), 4).carried_bounds(14) is None
        assert ShardPlan.build(_corpus(n=10), 1).carried_bounds(14) is None
        assert ShardPlan.build(_corpus(n=10), 4, strategy="hash").carried_bounds(14) is None

    def test_part_bounds(self):
        from repro.cluster.plan import part_bounds

        assert part_bounds(10, 4) == [0, 4, 8, 10]
        assert part_bounds(8, 4) == [0, 4, 8]
        assert part_bounds(0, 4) == [0, 0]  # an empty corpus is one empty part


class TestValidationAndStats:
    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigError, match="n_shards"):
            ShardPlan.build(_corpus(), 0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="unknown shard strategy"):
            ShardPlan.build(_corpus(), 2, strategy="modulo")

    @pytest.mark.parametrize("seed", [float("nan"), 1.5, True, "3"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match="shard seed must be an integer"):
            ShardPlan.build(_corpus(), 2, strategy="hash", seed=seed)

    def test_zero_seed_accepted(self):
        ShardPlan.build(_corpus(), 2, strategy="hash", seed=0).validate()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_seed_rejected(self, seed):
        # np.uint64(seed) would raise a raw OverflowError deep in the mix.
        with pytest.raises(ConfigError, match="seed must fit in 64 bits"):
            ShardPlan.build(_corpus(), 2, strategy="hash", seed=seed)

    def test_max_valid_seed_accepted(self):
        ShardPlan.build(_corpus(), 2, strategy="hash", seed=2**64 - 1).validate()

    def test_validate_catches_broken_partition(self):
        plan = ShardPlan.build(_corpus(n=10), 2)
        plan.shards[0].global_ids = plan.shards[0].global_ids + 1  # overlap + gap
        with pytest.raises(ConfigError, match="partition"):
            plan.validate()

    def test_entries_and_imbalance(self):
        # All heavy objects first: range splits them unevenly, hash evens out.
        objects = [list(range(12)) for _ in range(10)] + [[0] for _ in range(10)]
        range_plan = ShardPlan.build(objects, 2, strategy="range")
        hash_plan = ShardPlan.build(objects, 2, strategy="hash", seed=0)
        assert sum(range_plan.entries()) == sum(hash_plan.entries())
        assert range_plan.size_imbalance() > hash_plan.size_imbalance()

    def test_empty_corpus_imbalance_is_zero(self):
        plan = ShardPlan.build(Corpus([]), 2)
        assert plan.size_imbalance() == 0.0


class TestShardKeywords:
    """ShardSlice.keywords(): the plan-level routing bounds.

    The planner routes against each slice's keyword table — its fitted
    index's ``keyword_array`` — and the table of a slice nobody indexed
    (``Corpus.distinct_keywords``) must stay bit-identical to it: the same
    partition-bounds surface, usable before any index is built (e.g. by
    rebalancing tooling).
    """

    def test_matches_fitted_index_keyword_array(self):
        from repro.core.inverted_index import InvertedIndex

        objects = [[0, 5], [5, 9], [2], [], [9, 11, 3]]
        plan = ShardPlan.build(objects, 3, strategy="hash", seed=1)
        for shard in plan.shards:
            index = InvertedIndex.build(shard.corpus)
            assert np.array_equal(shard.keywords(), index.keyword_array)
            shard.index = index  # what ``_install`` does: the tables are now the index's
            assert shard.keywords() is index.keyword_array

    def test_cached_and_empty_slice(self):
        plan = ShardPlan.build(Corpus([[1, 2]]), 2)  # second shard empty
        empty = [s for s in plan.shards if len(s) == 0][0]
        assert empty.keywords().size == 0
        full = [s for s in plan.shards if len(s)][0]
        assert full.keywords() is full.keywords()  # cached after first call

    def test_routes_like_the_session_planner(self):
        from repro.core.types import Query, QueryBatch
        from repro.plan import route_queries

        objects = [[0, 1], [1, 2], [4, 5], [5, 6]]
        plan = ShardPlan.build(objects, 2, strategy="range")
        routes = route_queries(
            QueryBatch.from_queries([Query.from_keywords([0]), Query.from_keywords([6])]),
            tuple(shard.keywords() for shard in plan.shards),
        )
        assert routes[0].tolist() == [0]
        assert routes[1].tolist() == [1]
