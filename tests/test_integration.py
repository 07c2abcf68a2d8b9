"""Cross-module integration tests.

These exercise whole pipelines end to end and check that independent
implementations of the same semantics (GENIE fast path, reference c-PQ,
GPU-SPQ full scan, CPU-Idx) agree on real workloads.
"""

import numpy as np
import pytest

from repro.api import AnnModel, GenieSession
from repro.baselines.cpu_idx import CpuIdx
from repro.baselines.gen_spq import make_gen_spq
from repro.baselines.gpu_spq import GpuSpq
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.load_balance import LoadBalanceConfig
from repro.core.types import Corpus, Query
from repro.datasets.synthetic import make_sift_like, true_knn
from repro.errors import QueryError
from repro.gpu.device import Device
from repro.lsh import E2Lsh, MinHash, SimHash
from repro.lsh.transform import LshTransformer


def _count_lists(results):
    return [sorted(r.counts.tolist(), reverse=True) for r in results]


class TestSystemsAgree:
    """GENIE, GEN-SPQ, GPU-SPQ and CPU-Idx must return identical counts."""

    def setup_method(self):
        rng = np.random.default_rng(11)
        self.corpus = Corpus([rng.integers(0, 60, size=8) for _ in range(300)])
        self.queries = [Query.from_keywords(rng.integers(0, 60, size=8)) for _ in range(10)]

    def test_four_way_agreement(self):
        k = 7
        genie = GenieEngine(config=GenieConfig(k=k)).fit(self.corpus)
        gen_spq = make_gen_spq(config=GenieConfig(k=k)).fit(self.corpus)
        gpu_spq = GpuSpq(device=Device()).fit(self.corpus)
        cpu_idx = CpuIdx().fit(self.corpus)

        expected = _count_lists(genie.query(self.queries))
        assert _count_lists(gen_spq.query(self.queries)) == expected
        assert _count_lists(gpu_spq.query(self.queries, k=k)) == expected
        assert _count_lists(cpu_idx.query(self.queries, k=k)) == expected

    def test_load_balance_and_multiload_agree(self):
        k = 5
        plain = GenieEngine(config=GenieConfig(k=k)).fit(self.corpus)
        balanced = GenieEngine(
            config=GenieConfig(k=k, load_balance=LoadBalanceConfig(max_sublist_len=16))
        ).fit(self.corpus)
        multi = GenieSession(config=GenieConfig(k=k)).create_index(
            self.corpus, model="raw", part_size=77, swap_parts=True
        )
        expected = _count_lists(plain.query(self.queries))
        assert _count_lists(balanced.query(self.queries)) == expected
        assert _count_lists(multi.search(self.queries).results) == expected


class TestQueryBatched:
    def test_matches_single_batch(self):
        rng = np.random.default_rng(2)
        corpus = Corpus([rng.integers(0, 40, size=6) for _ in range(150)])
        queries = [Query.from_keywords(rng.integers(0, 40, size=6)) for _ in range(20)]
        engine = GenieEngine(config=GenieConfig(k=4)).fit(corpus)
        whole = _count_lists(engine.query(queries))
        batched = _count_lists(engine.query_batched(queries, batch_size=3))
        assert batched == whole

    def test_auto_batch_size(self):
        corpus = Corpus([[i % 5] for i in range(50)])
        engine = GenieEngine(config=GenieConfig(k=2)).fit(corpus)
        results = engine.query_batched([Query.from_keywords([0])] * 7)
        assert len(results) == 7

    def test_empty_rejected(self):
        corpus = Corpus([[0]])
        engine = GenieEngine(config=GenieConfig(k=1)).fit(corpus)
        with pytest.raises(QueryError):
            engine.query_batched([])


class TestAnnQualityEndToEnd:
    def test_e2lsh_recall_beats_random(self):
        dataset = make_sift_like(n=1500, n_queries=30, seed=3)
        family = E2Lsh(64, dim=dataset.dim, width=4.0, seed=4)
        index = GenieSession().create_index(dataset.data, model=AnnModel(family, domain=67))
        true_ids, _ = true_knn(dataset.data, dataset.queries, 10)
        hits = 0
        for result, tids in zip(index.search(dataset.queries, k=10).results, true_ids):
            hits += len(set(result.ids.tolist()) & set(tids.tolist()))
        recall = hits / (30 * 10)
        assert recall > 0.5  # far above the ~0.7% random baseline

    def test_minhash_jaccard_ann(self):
        """End-to-end Jaccard search: MinHash -> re-hash -> GENIE."""
        rng = np.random.default_rng(5)
        sets = [set(map(int, rng.choice(200, size=25, replace=False))) for _ in range(120)]
        family = MinHash(num_functions=48, seed=6)
        transformer = LshTransformer(family, domain=512, seed=7)
        corpus = Corpus(list(transformer.rehasher.keywords(family.hash_points(sets))))
        engine = GenieEngine(config=GenieConfig(k=3, count_bound=48)).fit(corpus)

        probe = set(list(sets[11])[:20]) | {999}  # high-Jaccard variant of set 11
        signature = family.hash_points([probe])
        query = Query.from_keywords(transformer.rehasher.keywords(signature)[0])
        result = engine.query([query])[0]
        assert int(result.ids[0]) == 11

    def test_simhash_angular_ann(self):
        """End-to-end angular search: SimHash -> GENIE."""
        rng = np.random.default_rng(8)
        points = rng.standard_normal((150, 24))
        family = SimHash(num_functions=96, dim=24, seed=9)
        index = GenieSession().create_index(points, model=AnnModel(family, domain=8, seed=10))
        probe = 3.0 * points[42]  # same direction, different norm
        result = index.search(probe[None, :], k=1)[0]
        assert int(result.ids[0]) == 42


class TestProfilesConsistent:
    def test_device_total_is_sum_of_profiles(self):
        corpus = Corpus([[i % 9] for i in range(60)])
        device = Device()
        engine = GenieEngine(device=device, config=GenieConfig(k=3)).fit(corpus)
        fit_total = device.timings.total
        engine.query([Query.from_keywords([1])])
        first = engine.last_profile.query_total()
        engine.query([Query.from_keywords([2])])
        second = engine.last_profile.query_total()
        assert device.timings.total == pytest.approx(fit_total + first + second)
