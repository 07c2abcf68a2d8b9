"""API equivalence: every modality through GenieSession == the engine path.

Each test builds the same workload twice on fresh simulated devices — once
through the unified session layer, once by encoding by hand and driving a
raw :class:`GenieEngine` — and asserts value-identical ids, counts,
tie-break order and per-stage StageTimings.
"""

import numpy as np

from repro.api import GenieSession
from repro.api.models import AnnModel, SequenceModel
from repro.core.engine import GenieConfig, GenieEngine
from repro.core.types import Corpus, Query
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.transform import LshTransformer
from repro.sa.document import WordVocabulary, tokenize
from repro.sa.edit_distance import edit_distance
from repro.sa.relational import AttributeSpec, Discretizer


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
        # Reference: the document encoding inlined against a raw engine on
        # its own device.
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


class TestRelationalEquivalence:
    COLUMNS = {
        "age": np.array([20.0, 35.0, 50.0, 65.0, 35.0]),
        "job": np.array([0, 1, 2, 1, 0]),
    }
    SCHEMA = [AttributeSpec("age", "numeric", bins=16), AttributeSpec("job", "categorical")]
    RANGES = [{"age": (30, 60), "job": (0, 1)}, {"age": (18, 40)}]

    def test_session_matches_wrapper(self):
        # Reference: the (attribute, value) encoding inlined — age takes
        # keywords [0, 16), job [16, 19) — against a raw engine.
        age = Discretizer(16).fit(self.COLUMNS["age"])

        def age_range(lo, hi):
            lo_code, hi_code = age.transform(np.array([lo, hi]))
            return np.arange(lo_code, hi_code + 1)

        engine = GenieEngine(device=Device(), host=HostCpu(), config=GenieConfig())
        engine.fit(Corpus(list(np.column_stack(
            [age.transform(self.COLUMNS["age"]), self.COLUMNS["job"] + 16]
        ))))
        legacy = engine.query(
            [
                Query(items=[age_range(30, 60), np.arange(0, 2) + 16]),
                Query(items=[age_range(18, 40)]),
            ],
            k=5,
        )
        legacy_profile = engine.last_profile

        session = GenieSession(device=Device(), host=HostCpu())
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

    QUERY = "approximate string matcing"

    def _engine_path(self, k, n_candidates):
        """Retrieve-and-verify by hand: encoders + raw engine + Algorithm 2.

        Returns ``(shortlist, verified, engine, host)``.
        """
        model = SequenceModel(n=3)
        host = HostCpu()
        engine = GenieEngine(device=Device(), host=host, config=GenieConfig())
        engine.fit(model.encode_corpus(self.TITLES))
        shortlist = engine.query(model.encode_queries([self.QUERY]), k=n_candidates)[0]
        verified = model.verify(
            self.QUERY, shortlist.ids, shortlist.counts, k, n_candidates, host
        )
        return shortlist, verified, engine, host

    def test_session_matches_wrapper(self):
        shortlist, legacy, _, _ = self._engine_path(k=2, n_candidates=4)

        session = GenieSession(device=Device(), host=HostCpu())
        handle = session.create_index(self.TITLES, model="sequence", n=3)
        result = handle.search([self.QUERY], k=2, n_candidates=4)
        ours = result.payload[0]

        assert_results_identical([shortlist], result.results)
        assert [(m.sequence_id, m.distance, m.count) for m in legacy.matches] == [
            (m.sequence_id, m.distance, m.count) for m in ours.matches
        ]
        for match in ours.matches:
            assert match.distance == edit_distance(self.QUERY, self.TITLES[match.sequence_id])
        assert legacy.certified == ours.certified
        assert legacy.candidates_verified == ours.candidates_verified
        assert legacy.shortlist_size == ours.shortlist_size

    def test_verify_cost_charged_identically(self):
        _, _, engine, host = self._engine_path(k=1, n_candidates=4)
        session = GenieSession(device=Device(), host=HostCpu())
        handle = session.create_index(self.TITLES, model="sequence", n=3)
        result = handle.search([self.QUERY], k=1, n_candidates=4)
        assert result.profile.get("verify") == host.timings.get("verify") > 0
        for stage, seconds in engine.last_profile.seconds.items():
            assert result.profile.get(stage) == seconds, stage


class TestAnnEquivalence:
    def test_session_matches_wrapper(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((60, 8))
        family_kwargs = dict(num_functions=16, dim=8, width=4.0, seed=0)

        # Reference: hash + re-hash by hand, raw engine with count_bound = m.
        transformer = LshTransformer(E2Lsh(**family_kwargs), domain=67, seed=0)
        engine = GenieEngine(
            device=Device(), host=HostCpu(), config=GenieConfig(count_bound=16)
        ).fit(transformer.to_corpus(points))
        legacy = engine.query(transformer.to_queries(points[:4]), k=3)
        legacy_profile = engine.last_profile

        session = GenieSession(device=Device(), host=HostCpu())
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
