"""Tests for the MatchModel protocol and the model registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.models import (
    AnnModel,
    BaseMatchModel,
    DocumentModel,
    MatchModel,
    NgramModel,
    RawModel,
    RelationalModel,
    SequenceModel,
    available_models,
    register_model,
    resolve_model,
)
from repro.core.types import Corpus, Query
from repro.errors import ConfigError, QueryError
from repro.lsh.e2lsh import E2Lsh
from repro.lsh.rbh import RandomBinningHash
from repro.lsh.simhash import SimHash
from repro.sa.relational import AttributeSpec


class TestRegistry:
    def test_paper_modalities_registered(self):
        names = available_models()
        for expected in ("relational", "document", "sequence", "ngram", "raw"):
            assert expected in names
        assert any(name.startswith("ann-") for name in names)

    def test_resolve_by_name_with_kwargs(self):
        model = resolve_model("sequence", n=4)
        assert isinstance(model, SequenceModel)
        assert model.n == 4

    def test_resolve_ann_family(self):
        model = resolve_model("ann-e2lsh", num_functions=8, dim=4, width=4.0, domain=67)
        assert isinstance(model, AnnModel)
        assert model.num_functions == 8

    def test_ann_factory_routes_seeds_consistently(self):
        # `seed` reaches the LSH family; `rehash_seed` reaches the re-hash
        # projections — in both the family-building and instance spellings.
        built = resolve_model(
            "ann-e2lsh", num_functions=4, dim=4, width=4.0, seed=7, rehash_seed=3
        )
        assert built.transformer.family.seed == 7
        wrapped = resolve_model("ann", family=E2Lsh(4, 4, 4.0, seed=7), rehash_seed=3)
        assert wrapped.transformer.family.seed == 7
        pts = np.random.default_rng(0).standard_normal((3, 4))
        assert np.array_equal(built.transformer.keyword_matrix(pts),
                              wrapped.transformer.keyword_matrix(pts))

    def test_resolve_instance_passthrough(self):
        model = DocumentModel()
        assert resolve_model(model) is model

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown model"):
            resolve_model("nope")

    def test_kwargs_with_instance_raise(self):
        with pytest.raises(ConfigError):
            resolve_model(DocumentModel(), n=3)

    def test_non_model_rejected(self):
        with pytest.raises(ConfigError, match="MatchModel"):
            resolve_model(object())

    def test_custom_registration(self):
        @register_model("test-custom")
        class Custom(BaseMatchModel):
            name = "test-custom"

            def encode_corpus(self, data):
                return Corpus(data)

            def encode_queries(self, data):
                return [Query.from_keywords(q) for q in data]

        try:
            assert isinstance(resolve_model("test-custom"), Custom)
        finally:
            from repro.api.models import MODEL_REGISTRY

            del MODEL_REGISTRY["test-custom"]

    def test_models_satisfy_protocol(self):
        instances = [
            RawModel(),
            RelationalModel([AttributeSpec("x", "categorical")]),
            DocumentModel(),
            SequenceModel(),
            NgramModel(),
            AnnModel(E2Lsh(4, 4, 4.0, seed=0)),
        ]
        for model in instances:
            assert isinstance(model, MatchModel)


class TestRawModel:
    def test_corpus_passthrough_and_wrap(self):
        corpus = Corpus([[1, 2], [3]])
        model = RawModel()
        assert model.encode_corpus(corpus) is corpus
        assert len(model.encode_corpus([[0], [1, 2]])) == 2

    def test_queries_accept_query_or_keywords(self):
        model = RawModel()
        q = Query.from_keywords([1, 2])
        out = model.encode_queries([q, [3, 4]])
        assert [item.tolist() for item in out[0].items] == [[1], [2]]
        assert out[1].num_items == 2

    def test_keyword_queries_take_the_flat_door_to_the_same_batch(self, monkeypatch):
        """No ``Query`` in the list: one flat array, field for field the per-``Query`` batch."""
        raw = [[3, 1, 3], np.asarray([7, 2**63 - 1]), (), np.asarray([[4, 5], [6, 4]]), [2.0, True], range(2)]
        model = RawModel()
        per_query = model.encode_queries([Query.from_keywords(q) for q in raw])  # every element a Query
        mixed = model.encode_queries([Query.from_keywords(raw[0]), *raw[1:]])
        built = []
        monkeypatch.setattr(Query, "from_keywords", classmethod(lambda cls, keywords: built.append(keywords)))
        flat = model.encode_queries(raw)
        assert built == []  # no python object per query
        for batch in (flat, mixed):
            for field in ("keywords", "item_offsets", "query_offsets"):
                ours, theirs = getattr(batch, field), getattr(per_query, field)
                assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist(), field
            assert not batch.keywords.flags.writeable
        assert flat.items_per_query.tolist() == [3, 2, 0, 4, 2, 2]
        assert len(model.encode_queries([])) == 0

    @pytest.mark.parametrize(
        "bad, message",
        [([[1], [2, -4]], "non-negative integers; got -4"), ([[1.5]], "must be integers"),
         ([[1], 5], "must be an iterable of integers; got 5"), ([[2**53 + 1], [2.0, 1.0]], None)],
        ids=["negative", "fractional", "not_iterable", "mixed_dtypes_keep_precision"],
    )
    def test_flat_door_validates_like_the_per_query_one(self, bad, message):
        model = RawModel()
        if message is None:
            assert model.encode_queries(bad).keywords.tolist() == [2**53 + 1, 2, 1]
            return
        with pytest.raises(QueryError, match=message):
            model.encode_queries(bad)
        with pytest.raises(QueryError, match=message):
            model.encode_queries([Query.from_keywords(q) for q in bad])


class TestAnnModel:
    def test_adapt_config_pins_count_bound(self):
        from repro.core.engine import GenieConfig

        model = AnnModel(E2Lsh(16, 8, 4.0, seed=0), domain=67)
        assert model.adapt_config(GenieConfig(k=3)).count_bound == 16

    def test_empty_fit_rejected(self):
        model = AnnModel(E2Lsh(4, 8, 4.0, seed=0))
        with pytest.raises(ConfigError):
            model.encode_corpus(np.zeros((0, 8)))

    def test_points_before_fit_raise(self):
        model = AnnModel(E2Lsh(4, 8, 4.0, seed=0))
        with pytest.raises(QueryError):
            _ = model.points

    def test_name_includes_family(self):
        assert AnnModel(E2Lsh(4, 8, 4.0, seed=0)).name == "ann-e2lsh"


NUMERIC_ANN = {
    "ann-e2lsh": dict(num_functions=8, dim=8, width=4.0),
    "ann-rbh": dict(num_functions=8, dim=8, sigma=2.0),
    "ann-simhash": dict(num_functions=8, dim=8),
}


@pytest.mark.parametrize("model", sorted(NUMERIC_ANN))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFinitePoints:
    """A NaN/inf coordinate has no LSH signature. It used to be hashed anyway
    (``INT64_MIN`` grid cells after a ``RuntimeWarning``; SimHash silently
    took the sign bit) and answered with a confident top-k."""

    def _points(self):
        return np.random.default_rng(0).standard_normal((30, 8))

    def test_encode_queries_rejects(self, model, bad):
        ann = resolve_model(model, **NUMERIC_ANN[model])
        ann.encode_corpus(self._points())
        queries = self._points()[:4]
        queries[2, 5] = bad
        with pytest.raises(QueryError, match="point 2 has a non-finite coordinate"):
            ann.encode_queries(queries)
        with pytest.raises(QueryError, match="point 0 has a non-finite"):
            ann.encode_queries(queries[2])  # a single (d,) point
        assert len(ann.encode_queries(queries[:2])) == 2

    def test_encode_corpus_rejects(self, model, bad):
        ann = resolve_model(model, **NUMERIC_ANN[model])
        points = self._points()
        points[[17, 21], 0] = bad
        with pytest.raises(ConfigError, match="point 17 has a non-finite coordinate"):
            ann.encode_corpus(points)
        with pytest.raises(QueryError):
            _ = ann.points  # the rejected corpus was not kept

    def test_session_entry_points_reject(self, model, bad, recwarn):
        from repro.api import GenieSession

        session = GenieSession()
        points = self._points()
        handle = session.create_index(points, model=model, name="ok", **NUMERIC_ANN[model])
        query = points[:3].copy()
        query[1, 0] = bad
        with pytest.raises(QueryError, match="point 1 has a non-finite"):
            handle.search(query, k=3)
        corrupt = points.copy()
        corrupt[4, 4] = bad
        with pytest.raises(ConfigError, match="point 4 has a non-finite"):
            session.create_index(corrupt, model=model, name="bad", **NUMERIC_ANN[model])
        with pytest.raises(ConfigError, match="point 4 has a non-finite"):
            handle.fit(corrupt)
        # Rejected up front: no cast warning, and the good index still answers.
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
        assert int(handle.search(points[:1], k=1).results[0].ids[0]) == 0


@pytest.mark.parametrize(
    "family",
    [RandomBinningHash(8, dim=8, sigma=2.0), E2Lsh(8, dim=8, width=4.0), SimHash(8, dim=8)],
    ids=["rbh", "e2lsh", "simhash"],
)
def test_family_instance_search_names_the_non_finite_row(family):
    """``model="ann"`` over a family instance: a search with a NaN or inf
    coordinate is a ``QueryError`` naming the row, and the families raise
    the same one on their own (``hash_points``)."""
    from repro.api import GenieSession

    points = np.random.default_rng(1).standard_normal((20, 8))
    handle = GenieSession().create_index(points, model="ann", family=family, domain=97)
    query = points[:3].copy()
    query[2] = [np.nan, np.inf, -np.inf, 0, 0, 0, 0, 0]
    with pytest.raises(QueryError, match="point 2 has a non-finite coordinate"):
        handle.search(query, k=2)
    with pytest.raises(QueryError, match="point 2 has a non-finite coordinate"):
        family.hash_points(query)
    assert handle.search(query[:2], k=1).results[1].ids.tolist() == [1]


def test_integer_set_input_is_exempt_from_the_finite_check():
    model = resolve_model("ann-minhash", num_functions=8)
    sets = [[1, 2, 3], [2, 3, 4], [7, 8, 9]]
    assert len(model.encode_corpus(sets)) == 3
    assert len(model.encode_queries(sets[:1])) == 1


class TestSequenceModel:
    def test_shortlist_validation(self):
        model = SequenceModel()
        with pytest.raises(QueryError):
            model.shortlist_k(5, n_candidates=2)
        assert model.shortlist_k(1, n_candidates=8) == 8

    def test_unknown_search_option_rejected(self):
        model = NgramModel()
        with pytest.raises(QueryError, match="search options"):
            model.shortlist_k(1, bogus=2)


class TestResolveShortlistK:
    """The one shared shortlist-width helper (session search + server admission)."""

    def test_model_without_hook_returns_k(self):
        from repro.api.models import resolve_shortlist_k

        class Bare:
            def encode_corpus(self, data):
                return Corpus(data)

            def encode_queries(self, data):
                return [Query.from_keywords(q) for q in data]

        assert resolve_shortlist_k(Bare(), 7, {}) == 7

    def test_model_without_hook_rejects_options(self):
        from repro.api.models import resolve_shortlist_k

        class Bare:
            pass

        with pytest.raises(QueryError, match="unsupported search options"):
            resolve_shortlist_k(Bare(), 3, {"n_candidates": 10})

    def test_hook_widens_and_validates(self):
        from repro.api.models import resolve_shortlist_k

        model = SequenceModel()
        assert resolve_shortlist_k(model, 3, {"n_candidates": 12}) == 12
        with pytest.raises(QueryError, match="n_candidates >= k"):
            resolve_shortlist_k(model, 5, {"n_candidates": 2})

    def test_base_model_rejects_unknown_options(self):
        from repro.api.models import resolve_shortlist_k

        with pytest.raises(QueryError, match="does not accept search options"):
            resolve_shortlist_k(RawModel(), 3, {"bogus": 1})


class TestBatchEncoding:
    """``encode_queries`` hands the search path one ``QueryBatch``, whatever the model."""

    @staticmethod
    def _session_with_every_model():
        from repro.api import GenieSession

        session = GenieSession()
        rng = np.random.default_rng(0)
        points = rng.standard_normal((30, 6))
        cases = {
            "raw": (session.create_index([[1, 2], [2, 3]], model="raw"), [[2], Query(items=[[3, 1]])]),
            "document": (
                session.create_index(["gpu index search", "cat dog"], model="document"),
                ["gpu cat", "search"],
            ),
            "ngram": (session.create_index(["abcdef", "cdefgh"], model="ngram", n=3), ["abcd", "zzzz"]),
            "sequence": (session.create_index(["abcdef", "cdefgh"], model="sequence", n=3), ["abcd", "defg"]),
            "relational": (
                session.create_index(
                    {"age": np.arange(10.0), "sex": np.arange(10) % 2}, model="relational",
                    schema=[AttributeSpec("age", bins=4), AttributeSpec("sex", "categorical")],
                ),
                [{"age": (2.0, 7.0), "sex": (1, 1)}, {"age": (0.0, 1.0)}],
            ),
            "ann-e2lsh": (
                session.create_index(points, model="ann-e2lsh", num_functions=5, dim=6, width=4.0, domain=11),
                points[:3],
            ),
        }
        return session, cases

    def test_every_bundled_model_returns_one_batch(self):
        from repro.core.types import QueryBatch

        _, cases = self._session_with_every_model()
        for name, (handle, raw) in cases.items():
            batch = handle.encode_queries(raw)
            assert isinstance(batch, QueryBatch), name
            assert isinstance(handle.model.encode_queries(list(raw)), QueryBatch), name
            assert len(batch) == len(raw)
            # The shapes the benchmark's oracle and model hooks read.
            for query, _ in zip(batch, raw):
                assert all(isinstance(item, np.ndarray) and item.ndim == 1 for item in query.items)
            # Encoded batches search like the raw queries they came from.
            direct = handle.search(raw, k=2)
            encoded = handle.search_encoded(raw, batch, k=2)
            listed = handle.search_encoded(raw, list(batch), k=2)  # the list[Query] door
            for a, b, c in zip(direct.results, encoded.results, listed.results):
                assert a.as_pairs() == b.as_pairs() == c.as_pairs()

    def test_relational_items_are_whole_ranges(self):
        _, cases = self._session_with_every_model()
        handle, raw = cases["relational"]
        batch = handle.encode_queries(raw)
        assert [[item.tolist() for item in q.items] for q in batch] == [[[0, 1, 2, 3], [5]], [[0]]]
        assert batch.keywords_per_query.tolist() == [5, 1]
        with pytest.raises(QueryError, match="at least one attribute"):
            handle.encode_queries([{}])

    def test_zero_item_query_is_elided_for_ngram_and_rejected_for_document(self):
        from repro.plan.nodes import EncodeNode

        _, cases = self._session_with_every_model()
        ngram, raw = cases["ngram"]
        assert ngram.encode_queries(raw).items_per_query.tolist() == [2, 0]
        result = ngram.search(raw, k=2)
        assert len(result.results[0]) > 0 and len(result.results[1]) == 0
        assert ngram.explain(raw, k=2).find(EncodeNode).elided == (1,)
        document, _ = cases["document"]
        with pytest.raises(QueryError, match=r"queries \[1\] contain no indexed words"):
            document.encode_queries(["gpu", "unseen words only"])

    def test_third_party_list_of_queries_is_converted_once(self):
        from repro.api import GenieSession
        from repro.core.types import QueryBatch

        seen = []

        class Listy:
            name = "listy"

            def encode_corpus(self, data):
                return Corpus(data)

            def encode_queries(self, data):
                return [Query(items=[q, q[:1]]) for q in data]

            def validate_queries(self, raw, queries):
                seen.append(queries)

        handle = GenieSession().create_index([[1, 2], [2, 3], [3]], model=Listy())
        batch = handle.encode_queries([[3, 2]])
        assert isinstance(batch, QueryBatch) and seen[0] is batch
        assert [item.tolist() for item in batch[0].items] == [[2, 3], [3]]
        assert handle.search([[3, 2]], k=1).results[0].as_pairs() == [(1, 3)]

    def test_encoding_a_batch_retains_no_python_object_per_keyword(self):
        import gc
        import sys

        from repro.api import GenieSession

        rng = np.random.default_rng(3)
        handle = GenieSession().create_index(
            rng.standard_normal((200, 16)), model="ann-e2lsh", num_functions=64, dim=16,
            width=4.0, domain=67,
        )
        points = rng.standard_normal((256, 16))
        handle.encode_queries(points)  # first-call allocations (lazy caches) settle
        gc.collect()
        before = sys.getallocatedblocks()
        batch = handle.encode_queries(points)  # 256 x 64 keywords
        gc.collect()
        retained = sys.getallocatedblocks() - before
        assert batch.keywords.size == 256 * 64
        assert retained < 200  # 17 421 when every keyword was its own array


def _assert_trusted(batch):
    """``batch`` equals the validated constructor's batch built from the same parts."""
    from repro.core.types import QueryBatch

    validated = QueryBatch(batch.keywords, batch.item_offsets, batch.query_offsets)
    for part in ("keywords", "item_offsets", "query_offsets"):
        got, want = getattr(batch, part), getattr(validated, part)
        assert got.dtype == np.int64 and want.dtype == np.int64, part
        assert np.array_equal(got, want), part
    assert not batch.keywords.flags.writeable


_WORDS = ["gpu", "index", "search", "cat", "dog", "tree", "Gpu", "zebra", "quux", "the", "and", "a"]
_documents = st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)
_sequences = st.text(alphabet="abcd", max_size=8)


class TestTrustedDoor:
    """The SA encoders build their batches with ``QueryBatch._of``; what they hand
    over must be exactly what the validated constructor makes of the same parts."""

    @staticmethod
    def _handles():
        from repro.api import GenieSession

        session = GenieSession()
        return {
            "document": session.create_index(["gpu index search", "cat dog tree", "gpu cat"], model="document"),
            "ngram": session.create_index(["abcab", "bcabc", "cccab"], model="ngram", n=2),
            "sequence": session.create_index(["abcab", "bcabc", "cccab"], model="sequence", n=2),
        }

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_documents, max_size=5), st.lists(_sequences, max_size=5))
    def test_vocabulary_encoders(self, texts, sequences):
        from repro.sa.document import tokenize

        for name, handle in self._handles().items():
            raw = texts if name == "document" else sequences
            batch = handle.model.encode_queries(raw)
            _assert_trusted(batch)
            vocabulary = handle.model.vocabulary
            expected = [
                vocabulary.encode(tokenize(q) if name == "document" else q, grow=False).tolist() for q in raw
            ]
            assert [[int(item[0]) for item in query.items] for query in batch] == expected
            assert all(len(item) == 1 for query in batch for item in query.items)
            if name == "document" and not all(expected):
                with pytest.raises(QueryError, match="contain no indexed words"):
                    handle.encode_queries(raw)
            else:
                _assert_trusted(handle.encode_queries(raw))

    @settings(max_examples=100, deadline=None)
    @given(
        st.booleans(), st.integers(1, 16),
        st.lists(
            st.dictionaries(
                st.sampled_from(["x", "c"]),
                st.tuples(
                    st.floats(-50, 150, allow_nan=False) | st.sampled_from([-np.inf, np.inf, -1e300, 1e300]),
                    st.floats(-50, 150, allow_nan=False) | st.sampled_from([-np.inf, np.inf, -1e300, 1e300]),
                ).map(sorted),
                min_size=1,
            ),
            max_size=5,
        ),
    )
    def test_relational_encoder(self, constant, bins, ranges_batch):
        from repro.api import GenieSession

        column = np.full(6, 7.0) if constant else np.linspace(0.0, 100.0, 6)
        handle = GenieSession().create_index(
            {"x": column, "c": np.arange(6) % 3}, model="relational",
            schema=[AttributeSpec("x", bins=bins), AttributeSpec("c", "categorical")],
        )
        batch = handle.encode_queries(ranges_batch)
        _assert_trusted(batch)
        assert batch.items_per_query.tolist() == [len(ranges) for ranges in ranges_batch]
        for query, ranges in zip(batch, ranges_batch):
            for item, name in zip(query.items, ranges):
                offset, top = (0, bins - 1) if name == "x" else (bins, 2)
                assert item[0] >= offset and item[-1] <= offset + top  # past the domain clamps
                assert np.array_equal(item, np.arange(item[0], item[-1] + 1))
        # The keywords are the per-range runs, one ``arange`` per range end to end.
        runs = [handle.model._code_range(position, name, bounds)
                for position, ranges in enumerate(ranges_batch) for name, bounds in ranges.items()]
        expected = np.concatenate([np.empty(0, dtype=np.int64), *(np.arange(start, start + n) for start, n in runs)])
        assert np.array_equal(batch.keywords, expected)
        assert batch.item_offsets.tolist() == np.cumsum([0] + [n for _, n in runs]).tolist()

    def test_empty_batch_is_as_before(self):
        from repro.api import GenieSession

        handles = self._handles()
        handles["relational"] = GenieSession().create_index(
            {"x": np.arange(4.0)}, model="relational", schema=[AttributeSpec("x", bins=4)]
        )
        for name, handle in handles.items():
            batch = handle.encode_queries([])
            _assert_trusted(batch)
            assert batch.keywords.size == 0 and batch.item_offsets.tolist() == batch.query_offsets.tolist() == [0]
            with pytest.raises(QueryError, match="empty query batch"):
                handle.search([], k=1)
