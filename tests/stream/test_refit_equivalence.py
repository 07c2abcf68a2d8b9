"""The streaming correctness property, exercised exhaustively.

Random interleavings of insert / delete / update / compact applied to a
live handle must answer every query **bit-identically** — ids, counts,
tie order, *and* thresholds — to a session that refits the final logical
corpus from scratch, across serial and sharded handles, both partition
strategies, and several ``k`` (including ``k`` larger than the corpus).

The reference corpus is maintained side by side as plain Python state:
one keyword-list slot per assigned global id, dead slots empty (a refit
indexes them as never-matching empty objects, keeping ids stable).
"""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.plan import COEFFICIENT_NAMES
from repro.stream import StreamConfig


def random_corpus(rng, n_objects, vocab):
    return [
        rng.integers(0, vocab, size=int(rng.integers(1, 6))).tolist()
        for _ in range(n_objects)
    ]


def apply_random_ops(rng, handle, reference, vocab, n_ops, search_between=False):
    """Mutate ``handle`` and the plain-state ``reference`` in lockstep.

    ``search_between`` runs a search after every operation, so the delta
    run's index is caught up edit by edit (one ``without`` + one ``merged``
    each time) instead of once at the end.
    """
    for _ in range(n_ops):
        if search_between:
            handle.search([[1, 2]], k=3)
        live = [gid for gid, kws in enumerate(reference) if kws is not None]
        op = rng.choice(["insert", "delete", "update", "compact"],
                        p=[0.45, 0.2, 0.25, 0.1])
        if op == "insert" or not live:
            batch = random_corpus(rng, int(rng.integers(1, 4)), vocab)
            handle.insert(batch)
            reference.extend(batch)
        elif op == "delete":
            victims = rng.choice(live, size=min(2, len(live)), replace=False)
            handle.delete(victims)
            for gid in victims:
                reference[int(gid)] = None
        elif op == "update":
            gid = int(rng.choice(live))
            keywords = rng.integers(0, vocab, size=int(rng.integers(1, 6))).tolist()
            handle.update(gid, keywords)
            reference[gid] = keywords
        else:
            handle.compact()


def final_corpus(reference):
    return [kws if kws is not None else [] for kws in reference]


def assert_bit_identical(streamed, refit, context):
    assert len(streamed.results) == len(refit.results)
    for qi, (a, b) in enumerate(zip(streamed.results, refit.results)):
        note = f"{context} query={qi}"
        assert np.array_equal(a.ids, b.ids), f"{note}: ids {a.ids} != {b.ids}"
        assert np.array_equal(a.counts, b.counts), (
            f"{note}: counts {a.counts} != {b.counts}"
        )
        assert a.threshold == b.threshold, (
            f"{note}: threshold {a.threshold} != {b.threshold}"
        )


VOCAB = 30


def run_trial(seed, shards, strategy, auto_compact, search_between=False):
    rng = np.random.default_rng(seed)
    corpus = random_corpus(rng, 120, VOCAB)
    reference = [list(kws) for kws in corpus]
    stream_config = StreamConfig(compact_ratio=0.5, auto_compact=auto_compact)
    session = GenieSession()
    handle = session.create_index(
        corpus, model="raw", name="live", shards=shards,
        shard_strategy=strategy, stream_config=stream_config,
    )
    apply_random_ops(rng, handle, reference, VOCAB, n_ops=30, search_between=search_between)

    refit_session = GenieSession()
    refit_handle = refit_session.create_index(
        final_corpus(reference), model="raw", name="refit",
        shards=shards, shard_strategy=strategy,
    )
    queries = [
        rng.integers(0, VOCAB, size=int(rng.integers(1, 4))).tolist()
        for _ in range(6)
    ]
    for k in (1, 3, 10, 500):  # 500 > corpus: threshold rank must cap
        streamed = handle.search(queries, k=k)
        refit = refit_handle.search(queries, k=k)
        assert_bit_identical(
            streamed, refit,
            f"seed={seed} shards={shards} strategy={strategy} "
            f"auto={auto_compact} k={k}",
        )
    session.close()
    refit_session.close()


class TestStreamedEqualsRefit:
    @pytest.mark.parametrize("seed", range(4))
    def test_serial(self, seed):
        run_trial(seed, shards=None, strategy="range", auto_compact=False)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_range_sharded(self, seed, shards):
        run_trial(seed + 10, shards=shards, strategy="range", auto_compact=False)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("shards", [2, 3])
    def test_hash_sharded(self, seed, shards):
        run_trial(seed + 20, shards=shards, strategy="hash", auto_compact=False)

    @pytest.mark.parametrize("seed", range(2))
    def test_with_auto_compaction(self, seed):
        # Threshold-driven compactions interleave with the mutations and
        # must stay invisible to every answer.
        run_trial(seed + 30, shards=None, strategy="range", auto_compact=True)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("shards, strategy", [(None, "range"), (3, "range"), (3, "hash")])
    def test_with_a_search_after_every_mutation(self, seed, shards, strategy):
        # The run's index is then merged forward edit by edit, never rebuilt.
        run_trial(seed + 40, shards=shards, strategy=strategy, auto_compact=False, search_between=True)

    @pytest.mark.parametrize("shards, strategy", [(None, "range"), (3, "range"), (3, "hash")])
    def test_a_replacement_that_ties_the_kth_count_ranks_by_its_id(self, shards, strategy):
        # Every object counts 1 for the query, so rank is id order alone. The
        # replacement of base object 3 enters the run *after* five inserts with
        # higher ids; were the run kept in arrival order its top-4 would be the
        # inserts and object 3 would lose its tie against base objects 4, 5, ...
        corpus = [[5, i + 10] for i in range(10)]
        session = GenieSession()
        handle = session.create_index(
            corpus, model="raw", name="live", shards=shards, shard_strategy=strategy,
            stream_config=StreamConfig(auto_compact=False),
        )
        fresh = [[5, 30 + i] for i in range(5)]
        handle.insert(fresh)
        handle.update(3, [5, 99])
        assert handle.manifest.delta.global_ids.tolist() == [3, 10, 11, 12, 13, 14]
        final = [*corpus, *fresh]
        final[3] = [5, 99]
        refit_session = GenieSession()
        refit = refit_session.create_index(
            final, model="raw", name="refit", shards=shards, shard_strategy=strategy
        )
        for k in (3, 4, 5, 11, 12):
            streamed = handle.search([[5]], k=k)
            assert streamed.results[0].ids.tolist() == list(range(k))
            assert_bit_identical(streamed, refit.search([[5]], k=k), f"tie k={k} shards={shards} {strategy}")
        session.close()
        refit_session.close()

    @pytest.mark.parametrize("shards", [None, 2])
    def test_with_plan_cache_and_cost_model(self, shards):
        # The cached / costed planning paths must not bend results either.
        rng = np.random.default_rng(99)
        corpus = random_corpus(rng, 100, VOCAB)
        reference = [list(kws) for kws in corpus]
        session = GenieSession()
        handle = session.create_index(
            corpus, model="raw", name="live", shards=shards,
            stream_config=StreamConfig(auto_compact=False),
        )
        session.cost_coefficients = {name: 1e-7 for name in COEFFICIENT_NAMES}
        apply_random_ops(rng, handle, reference, VOCAB, n_ops=20)
        refit_session = GenieSession()
        refit_handle = refit_session.create_index(
            final_corpus(reference), model="raw", name="refit", shards=shards,
        )
        queries = [[1, 2], [7], [12, 25, 3]]
        for _ in range(2):  # the second pass searches the same shapes again
            streamed = handle.search(queries, k=5)
            refit = refit_handle.search(queries, k=5)
            assert_bit_identical(streamed, refit, f"costed shards={shards}")
        session.close()
        refit_session.close()
