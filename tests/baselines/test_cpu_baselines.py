"""Tests for the CPU baselines: CPU-Idx, CPU-LSH, AppGram, GEN-SPQ factory."""

import numpy as np
import pytest

from paper.baselines.appgram import AppGram
from paper.baselines.cpu_idx import CpuIdx
from paper.baselines.cpu_lsh import CpuLsh
from paper.baselines.gen_spq import make_gen_spq
from paper.reference.count_table import count_table_batch_bytes
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus, Query
from repro.errors import QueryError
from repro.gpu.device import Device
from repro.gpu.specs import small_device
from repro.sa.edit_distance import edit_distance

CORPUS = Corpus([[i % 7, 7 + (i * 3) % 5] for i in range(40)])


class TestCpuIdx:
    def test_matches_brute_force(self):
        baseline = CpuIdx().fit(CORPUS)
        query = Query.from_keywords([0, 7, 9])
        result = baseline.query([query], k=5)[0]
        expected = [(i, c) for i, c in brute_force_topk(query, CORPUS, 5) if c > 0]
        assert result.as_pairs() == expected

    def test_sequential_time_scales_linearly(self):
        baseline = CpuIdx().fit(CORPUS)
        baseline.query([Query.from_keywords([0])] * 2, k=3)
        two = baseline.last_profile.query_total()
        baseline.query([Query.from_keywords([0])] * 8, k=3)
        eight = baseline.last_profile.query_total()
        assert eight == pytest.approx(4 * two, rel=0.05)

    def test_query_before_fit(self):
        with pytest.raises(QueryError):
            CpuIdx().query([Query.from_keywords([0])], k=1)


class TestCpuLsh:
    def test_finds_exact_duplicate(self):
        points = np.random.default_rng(0).standard_normal((80, 8))
        baseline = CpuLsh(num_functions=32, width=4.0).fit(points)
        result = baseline.query(points[9][None, :], k=1)[0]
        assert int(result.ids[0]) == 9

    def test_results_sorted_by_distance(self):
        points = np.random.default_rng(1).standard_normal((80, 8)) * 2
        baseline = CpuLsh(num_functions=32, width=8.0).fit(points)
        qp = points[0]
        result = baseline.query(qp[None, :], k=5)[0]
        d = np.linalg.norm(points[result.ids] - qp[None, :], axis=1)
        assert (np.diff(d) >= -1e-12).all()

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            CpuLsh(num_functions=4, width=4.0, collision_fraction=0.0)

    def test_query_before_fit(self):
        with pytest.raises(QueryError):
            CpuLsh(num_functions=4, width=4.0).query(np.zeros((1, 4)), k=1)


class TestAppGram:
    TITLES = [
        "approximate string matching",
        "exact string matching",
        "graph pattern mining",
        "parallel query processing",
    ]

    def test_exact_knn(self):
        baseline = AppGram(n=3).fit(self.TITLES)
        query = "exact string matchin"
        matches = baseline.search(query, k=2)
        true = sorted(range(len(self.TITLES)), key=lambda i: (edit_distance(query, self.TITLES[i]), i))
        assert [m.sequence_id for m in matches] == true[:2]
        assert matches[0].distance == edit_distance(query, self.TITLES[true[0]])

    def test_batch_profiles(self):
        baseline = AppGram(n=3).fit(self.TITLES)
        baseline.search_batch(["graph patern mining"], k=1)
        assert baseline.last_profile.query_total() > 0

    def test_exactness_on_random_queries(self):
        rng = np.random.default_rng(5)
        titles = ["".join("abc"[int(c)] for c in rng.integers(0, 3, size=10)) for _ in range(20)]
        baseline = AppGram(n=2).fit(titles)
        for _ in range(5):
            query = "".join("abc"[int(c)] for c in rng.integers(0, 3, size=9))
            best = baseline.search(query, k=1)[0]
            assert best.distance == min(edit_distance(query, t) for t in titles)

    def test_query_before_fit(self):
        with pytest.raises(QueryError):
            AppGram().search("abc")


class TestGenSpqFactory:
    def test_charges_a_count_table_and_spq_selection(self):
        engine = make_gen_spq(config=GenieConfig(k=4)).fit(CORPUS)
        engine.query([Query.from_keywords([0, 7]), Query.from_keywords([1])])
        names = [stats.name for stats in engine.device.kernel_log]
        assert names == ["genie_match_counttable", "spq_select", "spq_select"]
        match = engine.device.kernel_log[0]
        assert match.uncoalesced_bytes == match.atomic_ops == match.divergent_warps == 0
        assert list(engine.last_profile.seconds) == ["query_transfer", "match", "select"]

    def test_oom_batch_size_is_the_count_tables(self):
        device = Device(small_device(16 * 1024))
        engine = make_gen_spq(device=device, config=GenieConfig(k=4)).fit(CORPUS)
        assert engine.per_query_bytes() == count_table_batch_bytes(len(CORPUS), 1)
        fits = device.memory.free // engine.per_query_bytes(count_bound=2)
        assert fits == device.memory.free // count_table_batch_bytes(len(CORPUS), 1)

    def test_results_agree_with_genie(self):
        query = Query.from_keywords([0, 7])
        genie = GenieEngine(config=GenieConfig(k=4)).fit(CORPUS)
        gen_spq = make_gen_spq(config=GenieConfig(k=4)).fit(CORPUS)
        a = genie.query([query])[0]
        b = gen_spq.query([query])[0]
        assert sorted(a.counts.tolist()) == sorted(b.counts.tolist())
