"""Match models: raw data -> GENIE keywords, one adapter per modality.

GENIE is *generic* because every workload reduces to the same match-count
query (Section II-A): front-ends only differ in how they encode raw data
into keyword sets. A :class:`MatchModel` captures exactly that seam:

* ``encode_corpus(data)`` turns raw data items into a
  :class:`~repro.core.types.Corpus`,
* ``encode_queries(data)`` turns raw queries into one
  :class:`~repro.core.types.QueryBatch`,
* optional hooks adapt the engine configuration (``adapt_config``), widen
  the retrieval (``shortlist_k``) and verify/rerank the raw shortlist
  (``finalize``) — the sequence adapter uses the last two for Algorithm 2's
  edit-distance verification.

Models are stateful: vocabularies, discretizers and LSH projections are
learned in ``encode_corpus`` and reused by ``encode_queries``.

The string-keyed registry maps the paper's workloads onto models:
``"relational"`` (Section V-C), ``"document"`` (V-B), ``"sequence"`` /
``"ngram"`` (V-A), ``"ann-e2lsh"`` / ``"ann-rbh"`` / ``"ann-minhash"`` /
``"ann-simhash"`` (Section IV, building the family from kwargs) and
``"ann"`` (wrapping an existing family instance), plus ``"raw"`` for
pre-encoded keyword data (the multi-loading shim and core-level
workloads).
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.engine import GenieConfig
from repro.core.types import ID_DTYPE, Corpus, Query, QueryBatch, csr_offsets, flat_keyword_sets, ragged_slices
from repro.errors import ConfigError, QueryError
from repro.gpu.host import HostCpu
from repro.lsh.family import LshFamily, finite_points
from repro.lsh.transform import DEFAULT_DOMAIN, LshTransformer
from repro.sa.document import DEFAULT_STOPWORDS, WordVocabulary, tokenize
from repro.sa.edit_distance import edit_distance, edit_distance_ops
from repro.sa.ngram import NgramVocabulary
from repro.sa.relational import AttributeSpec, Discretizer, bin_code
from repro.sa.sequence import (
    PAPER_K_CANDIDATES,
    SequenceMatch,
    SequenceSearchResult,
)


@runtime_checkable
class MatchModel(Protocol):
    """The encoding contract every modality adapter satisfies.

    Required: ``name``, ``encode_corpus`` and ``encode_queries``.
    ``encode_queries`` returns a :class:`~repro.core.types.QueryBatch`
    (every bundled model does) or a list of
    :class:`~repro.core.types.Query` objects, which
    :meth:`IndexHandle.encode_queries <repro.api.session.IndexHandle.encode_queries>`
    converts with :meth:`QueryBatch.from_queries
    <repro.core.types.QueryBatch.from_queries>` before anything else sees
    it. The ``queries`` the hooks below receive are therefore always the
    batch: read its arrays, or iterate / index it for per-query
    :class:`~repro.core.types.Query` views. Optional hooks (provided with
    safe defaults by :class:`BaseMatchModel`):

    * ``adapt_config(config) -> GenieConfig`` — per-model engine tweaks
      (the ANN model pins ``count_bound`` to ``m``),
    * ``validate_queries(raw, queries)`` — reject malformed raw queries,
    * ``shortlist_k(k, **opts) -> int`` — retrieval width when the model
      reranks a wider shortlist (sequence search retrieves ``n_candidates``),
    * ``finalize(raw, queries, results, *, k, host, **opts)`` — the
      verify/rerank hook; its return value becomes
      :attr:`repro.api.session.SearchResult.payload`.
    """

    name: str

    def encode_corpus(self, data) -> Corpus: ...

    def encode_queries(self, data) -> QueryBatch | list[Query]: ...


class BaseMatchModel:
    """Default hook implementations shared by the bundled models.

    Attributes:
        name: Registry-style model name (used for auto index names).
        skip_empty: When ``True`` the session skips zero-item queries
            instead of sending them to the engine (sequence semantics);
            the model's ``finalize`` sees an empty result in their place.
        finalize: ``None`` means no verify/rerank stage.
        finalize_uses_raw: ``True`` when ``finalize`` reads the *raw*
            queries (not just their encodings). Encoding is not always
            injective (e.g. unseen n-grams are dropped), so result caches
            must then key on the raw query too — the serve layer's
            exact-match cache checks this flag.
    """

    name = "base"
    skip_empty = False
    finalize: Callable | None = None
    finalize_uses_raw = False

    def adapt_config(self, config: GenieConfig) -> GenieConfig:
        """Engine configuration this model needs; identity by default."""
        return config

    def validate_queries(self, raw_queries, queries: QueryBatch) -> None:
        """Reject raw queries the model cannot search; no-op by default."""

    def shortlist_k(self, k: int, **opts) -> int:
        """Retrieval width for a user-facing ``k``; rejects unknown opts."""
        if opts:
            raise QueryError(
                f"model {self.name!r} does not accept search options: {sorted(opts)}"
            )
        return k

    def encode_increment(self, data) -> Corpus:
        """Encode an online-ingest batch against the *fitted* state.

        Streaming insert/update (:mod:`repro.stream`) must not refit the
        encoders — a delta batch has to land in the same keyword space as
        the base corpus. Only models whose corpus encoding is stateless
        (or can reuse frozen fitted state) support this; the default
        refuses, which is the correct answer for models that learn
        vocabulary/discretizers/points from the full corpus.
        """
        raise ConfigError(
            f"model {self.name!r} does not support online ingest; refit instead"
        )


# ----------------------------------------------------------------------
# registry


MODEL_REGISTRY: dict[str, Callable[..., MatchModel]] = {}


def register_model(name: str):
    """Class/function decorator registering a model factory under ``name``."""

    def decorate(factory):
        MODEL_REGISTRY[name] = factory
        return factory

    return decorate


def available_models() -> tuple[str, ...]:
    """Registered model names, sorted."""
    return tuple(sorted(MODEL_REGISTRY))


def resolve_model(model, **model_kwargs) -> MatchModel:
    """Resolve a model spec into a :class:`MatchModel` instance.

    Args:
        model: A registry name (e.g. ``"document"``, ``"ann-e2lsh"``) or an
            object already satisfying the protocol.
        model_kwargs: Forwarded to the registry factory; invalid for
            instances.

    Raises:
        ConfigError: Unknown name, kwargs passed with an instance, or an
            object that does not satisfy the protocol.
    """
    if isinstance(model, str):
        factory = MODEL_REGISTRY.get(model)
        if factory is None:
            raise ConfigError(
                f"unknown model {model!r}; available: {list(available_models())}"
            )
        return factory(**model_kwargs)
    if model_kwargs:
        raise ConfigError(
            "model keyword arguments only apply to registry names, "
            f"not {type(model).__name__} instances"
        )
    for attr in ("encode_corpus", "encode_queries"):
        if not callable(getattr(model, attr, None)):
            raise ConfigError(
                f"{type(model).__name__} does not satisfy MatchModel: missing {attr}()"
            )
    return model


def resolve_shortlist_k(model, k: int, search_opts: dict) -> int:
    """Resolve a model's retrieval width for a user-facing ``k``.

    The one shared implementation for every execution surface: the
    session's search compiles with the width it returns, and the server
    calls it at admission so bad options fail the submitting request
    instead of a coalesced batch. Models with a ``shortlist_k`` hook
    widen the retrieval (and validate their options); models without one
    retrieve exactly ``k`` and accept no options.

    Args:
        model: A :class:`MatchModel` (hooks are optional, so the protocol
            minimum is enough).
        k: User-facing result width.
        search_opts: Model-specific search options (e.g. the sequence
            model's ``n_candidates``).

    Raises:
        QueryError: Options passed to a model without a ``shortlist_k``
            hook, or rejected by the hook itself.
    """
    shortlist = getattr(model, "shortlist_k", None)
    if shortlist is None:
        if search_opts:
            raise QueryError(f"unsupported search options: {sorted(search_opts)}")
        return int(k)
    return int(shortlist(k, **search_opts))


# ----------------------------------------------------------------------
# raw keywords


@register_model("raw")
class RawModel(BaseMatchModel):
    """Identity model: data are already GENIE keyword sets / queries.

    ``encode_corpus`` accepts a :class:`~repro.core.types.Corpus` or any
    iterable of keyword iterables; ``encode_queries`` accepts
    :class:`~repro.core.types.Query` objects or keyword iterables (each
    becoming a one-keyword-per-item query).
    """

    name = "raw"

    def encode_corpus(self, data) -> Corpus:
        return data if isinstance(data, Corpus) else Corpus(data)

    def encode_increment(self, data) -> Corpus:
        # Identity encoding carries no fitted state: a delta batch lands
        # in the same keyword space as the base corpus by construction.
        return self.encode_corpus(data)

    def encode_queries(self, data) -> QueryBatch:
        data = list(data)
        if not any(isinstance(q, Query) for q in data):
            # One flat array, no python object per query: every keyword its own item.
            keywords, query_offsets = flat_keyword_sets(data)
            return QueryBatch(keywords, None, query_offsets)
        return QueryBatch.from_queries(
            [q if isinstance(q, Query) else Query.from_keywords(q) for q in data]
        )


def _one_item_per_keyword(id_lists) -> QueryBatch:
    """One query per list of vocabulary ids, every id its own item (the SA shape).

    Through the trusted door: ids are non-negative, a one-keyword item is a set.
    """
    ids, query_offsets = [], [0]
    for query_ids in id_lists:
        ids += query_ids
        query_offsets.append(len(ids))
    keywords = np.array(ids, dtype=ID_DTYPE)
    item_offsets = np.arange(keywords.size + 1, dtype=ID_DTYPE)
    return QueryBatch._of(keywords, item_offsets, np.array(query_offsets, dtype=ID_DTYPE))


# ----------------------------------------------------------------------
# relational tables (Section V-C)

#: What a range bound may be: a real number.
_REAL = (int, float, np.integer, np.floating)


@register_model("relational")
class RelationalModel(BaseMatchModel):
    """Mixed categorical/numeric tables -> ``(attribute, value)`` keywords.

    Numeric columns are discretized into equal-width bins at encode time;
    keyword ranges are laid out attribute after attribute (Fig. 1's
    ``(d, v)`` pair encoding). Raw queries are ``{attribute: (lo, hi)}``
    range dictionaries; each range expands into one query item. Bounds are
    real numbers, ``-inf`` / ``inf`` for an open side, and clamp to the
    column's domain. A malformed query or range (``None`` and NaN bounds
    included) raises :class:`~repro.errors.QueryError` naming the query
    position and the attribute.

    Args:
        schema: One :class:`~repro.sa.relational.AttributeSpec` per column.
    """

    name = "relational"

    def __init__(self, schema: list[AttributeSpec]):
        if not schema:
            raise ConfigError("schema must have at least one attribute")
        self.schema = list(schema)
        # name -> (keyword offset, top code, the discretizer's (lo, span, bins) or None if categorical)
        self._attributes: dict[str, tuple] = {}
        self.n_rows = 0

    def encode_corpus(self, columns: dict[str, np.ndarray]) -> Corpus:
        missing = [spec.name for spec in self.schema if spec.name not in columns]
        if missing:
            raise ConfigError(f"columns missing from data: {missing}")
        lengths = {name: len(np.asarray(col)) for name, col in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ConfigError(f"ragged columns: {lengths}")
        self.n_rows = next(iter(lengths.values()))

        encoded: dict[str, np.ndarray] = {}
        offset = 0
        for spec in self.schema:
            values = np.asarray(columns[spec.name])
            if spec.kind == "numeric":
                disc = Discretizer(spec.bins).fit(values)
                codes = disc.transform(values)
                top, fit = spec.bins - 1, (disc.lo, disc.hi - disc.lo, spec.bins)
            else:
                codes = np.asarray(values, dtype=np.int64)
                if codes.size and codes.min() < 0:
                    raise ConfigError(f"categorical column {spec.name} has negative codes")
                top, fit = (int(codes.max()) if codes.size else 0), None
            self._attributes[spec.name] = (offset, top, fit)
            encoded[spec.name] = codes + offset
            offset += top + 1

        return Corpus(np.column_stack([encoded[spec.name] for spec in self.schema]))

    def _code_range(self, position: int, name, bounds) -> tuple[int, int]:
        """First keyword and keyword count of query ``position``'s item ``lo <= name <= hi``."""
        attribute = self._attributes.get(name)
        if attribute is None:
            raise QueryError(f"query {position}: unknown attribute: {name}")
        offset, top, fit = attribute
        try:
            lo, hi = bounds
            valid = isinstance(lo, _REAL) and isinstance(hi, _REAL) and lo == lo and hi == hi  # NaN != NaN
            if valid and fit is not None:
                lo, hi = float(lo), float(hi)
        except (TypeError, ValueError, OverflowError):  # not a pair; an int past float range
            valid = False
        if not valid:
            raise QueryError(
                f"query {position}, attribute {name!r}: a range is a (lo, hi) pair of numbers, "
                f"-inf / inf for an open side; got {bounds!r}"
            )
        if fit is None:  # categorical: a bound is a code
            lo_code, hi_code = int(min(max(lo, 0), top)), int(min(max(hi, 0), top))
        else:
            lo_code, hi_code = bin_code(lo, *fit), bin_code(hi, *fit)
        if hi_code < lo_code:
            raise QueryError(f"query {position}: empty range on {name}: [{lo}, {hi}]")
        return offset + lo_code, hi_code - lo_code + 1

    def encode_queries(self, ranges_batch: list[dict[str, tuple]]) -> QueryBatch:
        """One query per ``{attribute: (lo, hi)}`` dict, one item per range.

        Through the trusted door: an item is a run of clamped codes plus the
        attribute's offset, so it is ascending and distinct; every run is
        laid out by one ``ragged_slices``.
        """
        starts, counts, items_per_query = [], [], []
        for position, ranges in enumerate(ranges_batch):
            if not isinstance(ranges, dict):
                raise QueryError(
                    f"query {position}: expected an {{attribute: (lo, hi)}} dict; got {type(ranges).__name__}"
                )
            if not ranges:
                raise QueryError(f"query {position} must constrain at least one attribute")
            for name, bounds in ranges.items():
                start, count = self._code_range(position, name, bounds)
                starts.append(start)
                counts.append(count)
            items_per_query.append(len(ranges))
        return QueryBatch._of(ragged_slices(starts, counts), csr_offsets(counts), csr_offsets(items_per_query))


# ----------------------------------------------------------------------
# short documents (Section V-B)


@register_model("document")
class DocumentModel(BaseMatchModel):
    """Short texts -> binary word-vector keywords (match count = inner product).

    Args:
        stopwords: Words dropped at tokenization time.
    """

    name = "document"

    def __init__(self, stopwords: frozenset[str] = DEFAULT_STOPWORDS):
        self.vocabulary = WordVocabulary()
        self.stopwords = stopwords
        self.documents: list[str] = []

    def encode_corpus(self, documents: list[str]) -> Corpus:
        self.documents = list(documents)
        return Corpus(
            [self.vocabulary.encode(tokenize(doc, self.stopwords), grow=True) for doc in self.documents]
        )

    def encode_queries(self, texts: list[str]) -> QueryBatch:
        def ids(position, text):
            if not isinstance(text, str):
                raise QueryError(f"query {position}: a document query is a str; got {type(text).__name__}")
            return self.vocabulary.lookup(tokenize(text, self.stopwords))

        return _one_item_per_keyword(ids(position, text) for position, text in enumerate(texts))

    def validate_queries(self, raw_queries, queries: QueryBatch) -> None:
        offsets = queries.query_offsets
        empty = offsets[1:] == offsets[:-1]
        if np.count_nonzero(empty):
            raise QueryError(f"queries {np.flatnonzero(empty).tolist()} contain no indexed words")


# ----------------------------------------------------------------------
# sequences (Section V-A)


@register_model("ngram")
class NgramModel(BaseMatchModel):
    """Sequences -> ordered n-gram keywords, *without* verification.

    Match counts are common-gram counts (Lemma 5.1). Queries whose grams
    are all unseen are skipped and return empty results instead of raising.

    Args:
        n: Gram length.
    """

    name = "ngram"
    skip_empty = True

    def __init__(self, n: int = 3):
        self.n = int(n)
        self.vocabulary = NgramVocabulary(self.n)
        self.sequences: list[str] = []

    def encode_corpus(self, sequences: list[str]) -> Corpus:
        self.sequences = list(sequences)
        return Corpus([self.vocabulary.encode(s, grow=True) for s in self.sequences])

    def encode_queries(self, sequences: list[str]) -> QueryBatch:
        return _one_item_per_keyword(map(self.vocabulary.lookup, sequences))


@register_model("sequence")
class SequenceModel(NgramModel):
    """N-gram retrieval plus Algorithm 2's edit-distance verification.

    The verify hook retrieves an ``n_candidates``-wide shortlist, verifies
    it with exact edit distance (cost charged to the host's ``verify``
    stage) and certifies the answer per Theorem 5.2. The per-query payload
    is a :class:`~repro.sa.sequence.SequenceSearchResult`.

    ``finalize_uses_raw``: edit distances are computed against the raw
    query string, and two different strings can share an n-gram encoding
    (unseen grams are dropped) — result caches must not conflate them.
    """

    name = "sequence"
    finalize_uses_raw = True

    def shortlist_k(self, k: int, n_candidates: int = PAPER_K_CANDIDATES) -> int:
        if k < 1 or n_candidates < k:
            raise QueryError("need n_candidates >= k >= 1")
        return int(n_candidates)

    def finalize(
        self,
        raw_queries,
        queries: QueryBatch,
        results,
        *,
        k: int,
        host: HostCpu,
        n_candidates: int = PAPER_K_CANDIDATES,
    ) -> list[SequenceSearchResult]:
        payload = []
        for raw, n_items, result in zip(raw_queries, queries.items_per_query.tolist(), results):
            if n_items == 0:
                payload.append(SequenceSearchResult(shortlist_size=n_candidates))
            else:
                payload.append(
                    self.verify(raw, result.ids, result.counts, k, n_candidates, host)
                )
        return payload

    def verify(
        self, query: str, ids, counts, k: int, n_candidates: int, host: HostCpu
    ) -> SequenceSearchResult:
        """Algorithm 2 generalized to top-k, with cost charged to the host."""
        n = self.n
        matches: list[SequenceMatch] = []
        verified = 0

        def kth_distance() -> int:
            return matches[k - 1].distance if len(matches) >= k else np.iinfo(np.int64).max

        def filter_threshold() -> float:
            tau = kth_distance()
            if tau == np.iinfo(np.int64).max:
                return -np.inf
            return len(query) - n + 1 - n * (tau - 1)

        for j, (sid, count) in enumerate(zip(ids, counts)):
            if j > 0 and matches and filter_threshold() > count:
                break  # Theorem 5.1: no later candidate can beat the k-th best.
            candidate = self.sequences[int(sid)]
            if len(matches) >= k and abs(len(query) - len(candidate)) > kth_distance():
                continue  # length filter
            distance = edit_distance(query, candidate)
            host.charge_ops(edit_distance_ops(len(query), len(candidate)), stage="verify")
            verified += 1
            matches.append(SequenceMatch(sequence_id=int(sid), distance=distance, count=int(count)))
            matches.sort(key=lambda match: (match.distance, match.sequence_id))
            del matches[k:]

        certified = False
        if matches and len(ids) > 0:
            # Theorem 5.2: compare the K-th candidate's count with the bound
            # derived from the k-th verified distance.
            c_last = int(counts[-1])
            tau_k = matches[min(k, len(matches)) - 1].distance
            certified = (len(ids) < n_candidates) or (
                c_last < len(query) - n + 1 - tau_k * n
            )
        return SequenceSearchResult(
            matches=matches,
            certified=certified,
            candidates_verified=verified,
            shortlist_size=n_candidates,
        )


# ----------------------------------------------------------------------
# LSH-transformed high-dimensional data (Section IV)


class AnnModel(BaseMatchModel):
    """Points -> re-hashed LSH signature keywords (tau-ANN search).

    ``adapt_config`` pins the engine's ``count_bound`` to the number of
    hash functions ``m`` (a count can never exceed the number of colliding
    functions). The payload of a search is the ``(ids, counts, counts/m)``
    triple per query — ``c/m`` is the MLE similarity estimate (Eqn. 7).

    Args:
        family: The LSH family supplying ``h_1 .. h_m``.
        domain: Re-hash bucket domain ``D``.
        seed: Seed for the re-hash projections.
    """

    def __init__(self, family: LshFamily, domain: int = DEFAULT_DOMAIN, seed: int = 0):
        self.transformer = LshTransformer(family, domain=domain, seed=seed)
        self.name = f"ann-{type(family).__name__.lower()}"
        self._points: np.ndarray | None = None

    @property
    def num_functions(self) -> int:
        """Number of LSH functions ``m``."""
        return self.transformer.num_functions

    @property
    def points(self) -> np.ndarray:
        """The indexed points (used by evaluations for true distances)."""
        if self._points is None:
            raise QueryError("index is not fitted")
        return self._points

    def adapt_config(self, config: GenieConfig) -> GenieConfig:
        return config.with_(count_bound=self.num_functions)

    def encode_corpus(self, points) -> Corpus:
        points = finite_points(points, error=ConfigError)
        if points.shape[0] == 0:
            raise ConfigError("cannot fit an empty point set")
        self._points = points
        return self.transformer.to_corpus(points)

    def encode_queries(self, points) -> QueryBatch:
        return self.transformer.to_queries(finite_points(points))

    def finalize(self, raw_queries, queries, results, *, k: int, host: HostCpu) -> list[tuple]:
        m = float(self.num_functions)
        return [(r.ids, r.counts, r.counts / m) for r in results]


def _register_ann_family(key: str, family_cls):
    @register_model(key)
    def factory(
        family: LshFamily | None = None,
        domain: int = DEFAULT_DOMAIN,
        rehash_seed: int = 0,
        **family_kwargs,
    ):
        # ``seed`` inside family_kwargs seeds the LSH family itself;
        # ``rehash_seed`` seeds the re-hash projections (the ``seed``
        # argument of AnnModel).
        if family is None:
            family = family_cls(**family_kwargs)
        elif family_kwargs:
            raise ConfigError("pass either a family instance or family kwargs, not both")
        return AnnModel(family, domain=domain, seed=rehash_seed)

    return factory


def _ann_factories():
    # Imported here: the lsh subpackage's family modules are leaves, but
    # keeping the coupling local makes the registry listing self-contained.
    from repro.lsh.e2lsh import E2Lsh
    from repro.lsh.minhash import MinHash
    from repro.lsh.rbh import RandomBinningHash
    from repro.lsh.simhash import SimHash

    _register_ann_family("ann-e2lsh", E2Lsh)
    _register_ann_family("ann-rbh", RandomBinningHash)
    _register_ann_family("ann-minhash", MinHash)
    _register_ann_family("ann-simhash", SimHash)


_ann_factories()


@register_model("ann")
def _make_ann(family: LshFamily, domain: int = DEFAULT_DOMAIN, rehash_seed: int = 0) -> AnnModel:
    """Plain ``"ann"`` entry: wrap an existing LSH family instance.

    ``rehash_seed`` seeds the re-hash projections, matching the
    ``"ann-<family>"`` factories (family seeding belongs to the instance).
    """
    return AnnModel(family, domain=domain, seed=rehash_seed)
