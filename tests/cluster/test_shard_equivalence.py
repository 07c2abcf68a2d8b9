"""Property test: sharded execution is bit-identical to one unsharded index.

Shards partition the objects, so every match count is complete within its
shard and the candidate merge must reproduce the unsharded top-k exactly:
same ids, same counts, same count-desc / id-asc tie order, same threshold
— for any corpus, query batch, shard count and partition strategy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.types import Corpus, Query

corpora = st.lists(st.lists(st.integers(0, 15), max_size=6), min_size=1, max_size=25)

query_batches = st.lists(
    st.lists(  # one query = a list of items
        st.lists(st.integers(0, 25), max_size=4),  # items may be empty or miss the index
        max_size=4,  # queries may have no items at all
    ),
    min_size=1,
    max_size=5,
)


def _sharded_search(raw_objects, queries, k, n_shards, strategy="range", seed=0):
    handle = GenieSession(config=GenieConfig(k=k)).create_index(
        Corpus(raw_objects), model="raw",
        shards=n_shards, shard_strategy=strategy, shard_seed=seed,
    )
    return handle.search(queries, k=k).results


@settings(max_examples=60, deadline=None)
@given(
    raw_objects=corpora,
    raw_queries=query_batches,
    n_shards=st.integers(1, 5),
    strategy=st.sampled_from(["range", "hash"]),
    seed=st.integers(0, 3),
    k=st.integers(1, 8),
)
def test_sharded_equals_unsharded(raw_objects, raw_queries, n_shards, strategy, seed, k):
    corpus = Corpus(raw_objects)
    queries = [Query(items=items) for items in raw_queries]
    config = GenieConfig(k=k)

    reference = GenieEngine(config=config).fit(corpus).query(queries, k=k)
    sharded = _sharded_search(raw_objects, queries, k, n_shards, strategy, seed)

    assert len(sharded) == len(reference)
    for ref, got in zip(reference, sharded):
        assert np.array_equal(ref.ids, got.ids)          # same ids, same tie order
        assert np.array_equal(ref.counts, got.counts)    # same counts
        assert got.ids.dtype == ref.ids.dtype
        assert ref.threshold == got.threshold


@settings(max_examples=25, deadline=None)
@given(
    raw_objects=corpora,
    raw_queries=query_batches,
    n_shards=st.integers(2, 4),
)
def test_shard_count_never_changes_answers(raw_objects, raw_queries, n_shards):
    # Different shard counts of the same corpus agree with each other too.
    queries = [Query(items=items) for items in raw_queries]
    one = _sharded_search(raw_objects, queries, 4, 1)
    many = _sharded_search(raw_objects, queries, 4, n_shards, "hash", 7)
    for a, b in zip(one, many):
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.counts, b.counts)
