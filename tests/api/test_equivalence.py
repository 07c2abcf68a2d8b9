"""API equivalence: every modality through GenieSession == the legacy path.

Each test builds the same workload twice on fresh simulated devices — once
through the unified session layer, once through the engine-level path the
legacy wrappers used — and asserts value-identical ids, counts, tie-break
order and per-stage StageTimings.
"""

import numpy as np

from repro.api import GenieSession
from repro.api.models import AnnModel
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.types import Corpus, Query
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.transform import LshTransformer, TauAnnIndex
from repro.sa.document import DocumentIndex, WordVocabulary, tokenize
from repro.sa.relational import AttributeSpec, RelationalIndex
from repro.sa.sequence import SequenceIndex


def assert_results_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a.ids, b.ids), (a.ids, b.ids)
        assert np.array_equal(a.counts, b.counts)


def assert_timings_identical(lhs, rhs):
    assert lhs is not None and rhs is not None
    assert lhs.seconds == rhs.seconds, (lhs.seconds, rhs.seconds)


DOCS = [
    "the quick brown fox jumps over anything",
    "a lazy dog sleeps all day long",
    "quick dog runs in the big park",
    "brown bears eat sweet honey",
    "gpu systems index documents quickly",
]


class TestDocumentEquivalence:
    def test_session_matches_engine_path(self):
        # Reference: the historical DocumentIndex implementation, inlined
        # against a raw engine on its own device.
        vocab = WordVocabulary()
        engine = GenieEngine(device=Device(), host=HostCpu(), config=GenieConfig())
        engine.fit(Corpus([vocab.encode(tokenize(d), grow=True) for d in DOCS]))
        texts = ["quick brown dog", "honey bears"]
        legacy = engine.query(
            [Query.from_keywords(vocab.encode(tokenize(t), grow=False)) for t in texts], k=3
        )
        legacy_profile = engine.last_profile

        session = GenieSession(device=Device(), host=HostCpu())
        handle = session.create_index(DOCS, model="document")
        result = handle.search(texts, k=3)

        assert_results_identical(legacy, result.results)
        assert_timings_identical(legacy_profile, result.profile)

    def test_wrapper_delegates_unchanged(self):
        wrapper = DocumentIndex().fit(DOCS)
        session = GenieSession()
        handle = session.create_index(DOCS, model="document")
        texts = ["quick brown dog"]
        assert_results_identical(wrapper.query_batch(texts, k=4), handle.search(texts, k=4).results)
        assert_timings_identical(wrapper.engine.last_profile, handle.last_result.profile)


class TestRelationalEquivalence:
    COLUMNS = {
        "age": np.array([20.0, 35.0, 50.0, 65.0, 35.0]),
        "job": np.array([0, 1, 2, 1, 0]),
    }
    SCHEMA = [AttributeSpec("age", "numeric", bins=16), AttributeSpec("job", "categorical")]
    RANGES = [{"age": (30, 60), "job": (0, 1)}, {"age": (18, 40)}]

    def test_session_matches_wrapper(self):
        wrapper = RelationalIndex(self.SCHEMA).fit(self.COLUMNS)
        legacy = wrapper.query(self.RANGES, k=5)
        legacy_profile = wrapper.engine.last_profile

        session = GenieSession()
        handle = session.create_index(self.COLUMNS, model="relational", schema=self.SCHEMA)
        result = handle.search(self.RANGES, k=5)

        assert_results_identical(legacy, result.results)
        assert_timings_identical(legacy_profile, result.profile)


class TestSequenceEquivalence:
    TITLES = [
        "approximate string matching on gpus",
        "inverted index frameworks for search",
        "similarity search with priority queues",
        "approximate string matching algorithms",
    ]

    def test_session_matches_wrapper(self):
        wrapper = SequenceIndex(n=3).fit(self.TITLES)
        legacy = wrapper.search("approximate string matcing", k=2, n_candidates=4)

        session = GenieSession()
        handle = session.create_index(self.TITLES, model="sequence", n=3)
        ours = handle.search(["approximate string matcing"], k=2, n_candidates=4).payload[0]

        assert [(m.sequence_id, m.distance, m.count) for m in legacy.matches] == [
            (m.sequence_id, m.distance, m.count) for m in ours.matches
        ]
        assert legacy.certified == ours.certified
        assert legacy.candidates_verified == ours.candidates_verified
        assert legacy.shortlist_size == ours.shortlist_size

    def test_verify_cost_charged_identically(self):
        wrapper = SequenceIndex(n=3).fit(self.TITLES)
        wrapper.search("approximate string matcing", k=1, n_candidates=4)
        session = GenieSession()
        handle = session.create_index(self.TITLES, model="sequence", n=3)
        result = handle.search(["approximate string matcing"], k=1, n_candidates=4)
        assert result.profile.get("verify") == wrapper.host.timings.get("verify")


class TestAnnEquivalence:
    def test_session_matches_wrapper(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((60, 8))
        family_kwargs = dict(num_functions=16, dim=8, width=4.0, seed=0)

        wrapper = TauAnnIndex(E2Lsh(**family_kwargs), domain=67, seed=0).fit(points)
        legacy = wrapper.query(points[:4], k=3)
        legacy_profile = wrapper.engine.last_profile

        session = GenieSession()
        handle = session.create_index(
            points, model=AnnModel(E2Lsh(**family_kwargs), domain=67, seed=0)
        )
        result = handle.search(points[:4], k=3)

        assert_results_identical(legacy, result.results)
        assert_timings_identical(legacy_profile, result.profile)
        for (ids, counts, estimates), top in zip(result.payload, result.results):
            assert np.allclose(estimates, counts / 16.0)


class TestMultiLoadEquivalence:
    def _workload(self):
        rng = np.random.default_rng(5)
        family = E2Lsh(8, 4, 4.0, seed=0)
        transformer = LshTransformer(family, domain=67, seed=0)
        corpus = transformer.to_corpus(rng.standard_normal((40, 4)))
        queries = transformer.to_queries(rng.standard_normal((6, 4)))
        return corpus, queries

    def test_wrapper_vs_session_residency(self):
        corpus, queries = self._workload()
        config = GenieConfig(k=4, count_bound=8)

        # The paper's explicit protocol: every part is evicted right after
        # its batch.
        swapped = GenieSession(device=Device(), host=HostCpu(), config=config).create_index(
            corpus, model="raw", part_size=9, swap_parts=True
        ).search(queries, k=4)

        session = GenieSession(device=Device(), host=HostCpu(), config=config)
        # Budget sized to a single part forces the same swap-through-memory
        # protocol the paper's multi-loader uses.
        handle = session.create_index(corpus, model="raw", name="big", part_size=9)
        session.memory_budget = max(part.device_bytes for part in handle._parts)
        result = handle.search(queries, k=4)

        assert_results_identical(swapped.results, result.results)
        assert_timings_identical(swapped.profile, result.profile)
        assert len(result.evicted) >= handle.num_parts - 1

    def test_multipart_matches_single_index(self):
        corpus, queries = self._workload()
        config = GenieConfig(k=3, count_bound=8)
        single = GenieEngine(device=Device(), host=HostCpu(), config=config).fit(corpus)
        single_results = single.query(queries, k=3)

        session = GenieSession(device=Device(), host=HostCpu(), config=config)
        handle = session.create_index(corpus, model="raw", part_size=7)
        merged = handle.search(queries, k=3)

        for s, m in zip(single_results, merged.results):
            assert sorted(s.counts.tolist(), reverse=True) == sorted(m.counts.tolist(), reverse=True)
