"""Core data model: keywords, objects, corpora, query batches and result batches.

GENIE's match-count model (Section II-A of the paper) is defined over a
universe of *elements*; this implementation encodes every element as a
non-negative integer **keyword**. Front-ends (LSH, SA, relational) own the
mapping from raw data to keywords:

* LSH: keyword = ``function_index * domain + bucket``,
* sequences: keyword = id of an ordered n-gram,
* relational: keyword = id of an ``(attribute, discretized value)`` pair.

An *object* is the set of keywords describing one data item. A *query* is a
list of *items*, each item being the set of keywords it matches (a range
item on a relational table expands to many keywords; an LSH item is a single
keyword).

One ragged container, three roles. Objects and query items are the same
thing — sets of keywords (Definition 2.1) — and are stored the same way: one
flat, owned, read-only ``keywords`` array plus CSR offsets, validated by
:func:`as_keyword_array` and made ascending and distinct per set by
:func:`canonical_segments`, once, where the data enters. :class:`Corpus` is
that container for the build side (``offsets`` delimit objects);
:class:`QueryBatch` is it for the search side, with the one thing only a
query has — *items*, so two offset levels (``item_offsets`` delimit the sets,
``query_offsets`` group them into queries). :class:`TopKBatch` is it for the
answers: flat ``ids`` and ``counts`` whose ``offsets`` delimit each query's
ranked candidates, plus one Theorem-3.1 threshold per query. All three slice
by ``take`` (a contiguous range shares storage), glue by ``concat`` and hand
out read-only per-row views (``corpus[i]``, ``batch[i]``); every layer behind
the public doors moves rows with those instead of re-deriving them.

The unit of work is the *batch*: a :class:`QueryBatch` is the format the
paper's device receives in its "query transfer" stage, what the encoders
build straight from their keyword matrices and what the scan, the planner
and the caches read; a :class:`TopKBatch` is what the selection step hands
back for the whole batch and what scan sources, the tombstone strike and the
host merge pass on. :class:`Query` and :class:`TopKResult` are the per-query
views of them: what users, model hooks, the specification and the
baselines (the repository's ``paper/``) handle, converted at the
public doors — once on the way in by :meth:`QueryBatch.from_queries`, once
per answered query on the way out by iterating the final batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigError, QueryError

#: Dtype used for keyword and object identifiers throughout the package.
ID_DTYPE = np.int64


def _raw_array(values, what: str) -> np.ndarray:
    """``values`` as numpy sees them: dtype and shape are judged by the caller."""
    if isinstance(values, np.ndarray):
        return values
    try:
        listed = list(values)
        raw = np.asarray(listed)
        # A string beside numbers promotes them all to text; keep the values as given.
        return raw if raw.dtype.kind in "biufO" else np.asarray(listed, dtype=object)
    except (TypeError, ValueError):  # not iterable, or ragged nesting
        raise QueryError(f"{what} must be an iterable of integers; got {values!r}") from None


def as_keyword_array(keywords, what: str = "keywords") -> np.ndarray:
    """Normalize raw keyword (or object id) input to a validated int64 array.

    Args:
        keywords: Any iterable of non-negative integers (``2.0`` counts as
            one, as do bools and every integer dtype).
        what: The plural noun error messages use for the values.

    Returns:
        A 1-D ``int64`` array.

    Raises:
        QueryError: Naming the input when it is not iterable, else the first
            value that is not a number, is negative, non-finite, ``>= 2**63``,
            or a float with a fractional part (a cast would silently name
            another element).
    """
    raw = _raw_array(keywords, what)
    kind = raw.dtype.kind
    if kind not in "bi":
        if kind == "f":
            bad = ~(np.isfinite(raw) & (raw == np.trunc(raw)) & (raw < 2.0**63))
        elif kind == "u":
            bad = raw >= 2**63
        elif kind == "O":  # python ints no fixed-width dtype holds
            bad = np.asarray(
                [not (isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63) for v in raw.flat]
            ).reshape(raw.shape)
        else:  # text, bytes, complex, dates: numpy would cast some of them
            bad = np.ones(raw.shape, dtype=bool)
        if bad.any():
            raise QueryError(f"{what} must be integers below 2**63; got {raw[bad].tolist()[0]!r}")
    arr = raw.astype(ID_DTYPE, copy=False).reshape(-1)
    if arr.size and arr.min() < 0:
        raise QueryError(f"{what} must be non-negative integers; got {int(arr[arr < 0][0])}")
    return arr


def flat_keyword_sets(sets) -> tuple[np.ndarray, np.ndarray]:
    """``(keywords, offsets)`` of ragged keyword iterables laid end to end, validated once.

    The flat door of :class:`Corpus` and of the one-keyword-per-item query models.
    """
    parts = [_raw_array(one, "keywords") for one in sets]
    offsets = csr_offsets([part.size for part in parts])
    parts = [part.reshape(-1) for part in parts if part.size]
    if len({part.dtype for part in parts}) > 1:
        # Validate before numpy promotes: int64 beside float64
        # concatenates to float64, which rounds keywords above 2**53.
        parts = [as_keyword_array(part) for part in parts]
    return as_keyword_array(np.concatenate(parts) if parts else ()), offsets


def ragged_slices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the concatenation ``[arange(s, s + l) for s, l in ...]``.

    The workhorse of the vectorized gathers: expanding many variable-length
    slices into one flat fancy-index array without a Python loop.

    Args:
        starts: Start of each slice.
        lengths: Length of each slice (non-negative).

    Returns:
        A flat ``int64`` index array of ``lengths.sum()`` entries.
    """
    starts = np.asarray(starts, dtype=ID_DTYPE)
    lengths = np.asarray(lengths, dtype=ID_DTYPE)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=ID_DTYPE)
    # Each output position i belongs to segment s and should hold
    # starts[s] + (i - first_output_of_s); fold the correction into repeat.
    seg_offsets = np.zeros(lengths.size, dtype=ID_DTYPE)
    lengths[:-1].cumsum(out=seg_offsets[1:])
    return np.arange(total, dtype=ID_DTYPE) + (starts - seg_offsets).repeat(lengths)


def csr_offsets(sizes) -> np.ndarray:
    """CSR offsets ``[0, s0, s0 + s1, ...]`` of a sequence of segment sizes."""
    sizes = np.asarray(sizes, dtype=ID_DTYPE)
    offsets = np.zeros(sizes.size + 1, dtype=ID_DTYPE)
    sizes.cumsum(out=offsets[1:])
    return offsets


def _joined(arrays) -> np.ndarray:
    """``arrays`` end to end as fresh int64 storage — an empty array of it for none."""
    return np.concatenate([np.empty(0, dtype=ID_DTYPE), *arrays])


def stacked_offsets(offset_arrays) -> np.ndarray:
    """One CSR offsets array for containers laid end to end, each given by its own."""
    sizes = [offsets.size - 1 for offsets in offset_arrays]
    stacked = np.concatenate([np.zeros(1, dtype=ID_DTYPE)] + [offsets[1:] for offsets in offset_arrays])
    stacked[1:] += np.repeat(csr_offsets([offsets.item(-1) for offsets in offset_arrays])[:-1], sizes)
    return stacked


def take_segments(flat: np.ndarray, offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, offsets)`` of the segments at ``rows`` (valid, non-negative), in that order.

    A contiguous ascending range is offset arithmetic over shared storage;
    anything else gathers into fresh arrays.
    """
    if rows.size and (rows[1:] - rows[:-1] == 1).all():
        bounds = offsets[rows[0] : rows[-1] + 2]
        return flat[bounds[0] : bounds[-1]], bounds - bounds[0]
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    return flat[ragged_slices(starts, sizes)], csr_offsets(sizes)


def canonical_segments(flat: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Make every segment ``flat[offsets[i]:offsets[i + 1]]`` ascending and distinct.

    The one canonicalization of ragged keyword sets — an object and a query
    item are both *sets* of elements (Definition 2.1) — equal, segment for
    segment, to ``np.unique`` of each. Input whose segments already ascend
    strictly (LSH and relational rows, ranges laid out in keyword order,
    one-keyword items) is returned as is; anything else takes one sort of
    fused ``(segment, keyword)`` keys, or a ``lexsort`` when the fused key
    would not fit 63 bits (keywords up to ``2**63 - 1`` are legal).

    Args:
        flat: Validated keywords (:func:`as_keyword_array`), segment after segment.
        offsets: CSR offsets of the segments, rising from 0 to ``flat.size``.

    Returns:
        ``(flat, offsets)``: the inputs themselves when nothing had to move.
    """
    if flat.size < 2:
        return flat, offsets
    rising = flat[1:] > flat[:-1]
    if rising.all():
        return flat, offsets
    starts = offsets[1:-1]
    rising[starts[(starts > 0) & (starts < flat.size)] - 1] = True  # across a boundary anything goes
    if rising.all():
        return flat, offsets
    sizes = offsets[1:] - offsets[:-1]
    segment = np.repeat(np.arange(sizes.size, dtype=ID_DTYPE), sizes)
    bits = int(flat.max()).bit_length()
    if (sizes.size - 1).bit_length() + bits <= 63:
        fused = (segment << bits) | flat
        fused.sort()
        flat = fused & ((1 << bits) - 1)
    else:
        flat = flat[np.lexsort((flat, segment))]
    fresh = np.ones(flat.size, dtype=bool)
    fresh[1:] = (flat[1:] != flat[:-1]) | (segment[1:] != segment[:-1])
    if not fresh.all():
        flat = flat[fresh]
        offsets = csr_offsets(np.bincount(segment[fresh], minlength=sizes.size))
    return flat, offsets


class Corpus:
    """An ordered collection of objects, each a set of keywords, in CSR form.

    Invariants, established once at construction: keywords are validated by
    :func:`as_keyword_array`'s rules, every object's keywords are ascending
    and distinct (:func:`canonical_segments`), and the storage is owned and
    read-only — caller arrays are never aliased, and the per-object views
    handed out cannot write through. :meth:`take`, :meth:`concat` and
    :meth:`by_global_id` move canonical rows between corpora without
    looking at them again.

    Args:
        objects: One iterable of keywords per object, or an ``(n, m)`` keyword
            matrix (row ``i`` is object ``i``). Duplicate keywords within an
            object are dropped (an object is a *set* of elements).

    Attributes:
        keywords: Every object's keywords, concatenated in object order.
        offsets: Object ``i`` owns ``keywords[offsets[i]:offsets[i + 1]]``.

    Raises:
        QueryError: Invalid keywords, or an object that is not iterable.
    """

    def __init__(self, objects):
        if isinstance(objects, np.ndarray) and objects.ndim == 2:
            flat = as_keyword_array(objects)
            offsets = np.arange(objects.shape[0] + 1, dtype=ID_DTYPE) * objects.shape[1]
        else:
            flat, offsets = flat_keyword_sets(objects)
        flat, offsets = canonical_segments(flat, offsets)
        if isinstance(objects, np.ndarray) and np.may_share_memory(flat, objects):
            flat = flat.copy()
        self._set(flat, offsets)

    def _set(self, keywords: np.ndarray, offsets: np.ndarray) -> None:
        keywords.flags.writeable = False
        self.keywords = keywords
        self.offsets = offsets

    @classmethod
    def _of(cls, keywords: np.ndarray, offsets: np.ndarray) -> "Corpus":
        """A corpus over parts that already satisfy the invariants."""
        corpus = object.__new__(cls)
        corpus._set(keywords, offsets)
        return corpus

    @classmethod
    def concat(cls, corpora) -> "Corpus":
        """The objects of ``corpora``, in order, as one corpus."""
        corpora = list(corpora)
        return cls._of(
            _joined(corpus.keywords for corpus in corpora), stacked_offsets([corpus.offsets for corpus in corpora])
        )

    @classmethod
    def by_global_id(cls, sources, n_objects: int) -> "Corpus":
        """Rows gathered from several corpora into one global id space.

        Args:
            sources: ``(corpus, global_ids)`` pairs, applied in order: row
                ``i`` of ``corpus`` becomes object ``global_ids[i]``,
                replacing what an earlier source put there; ``corpus`` may
                be ``None`` to empty the ids instead (tombstones).
            n_objects: Size of the id space; ids no source names stay empty.
        """
        pool, row_of, n_rows = [], np.full(n_objects, -1, dtype=ID_DTYPE), 0
        for corpus, global_ids in sources:
            if corpus is None:
                row_of[global_ids] = -1
            else:
                row_of[global_ids] = np.arange(n_rows, n_rows + len(corpus), dtype=ID_DTYPE)
                n_rows += len(corpus)
                pool.append(corpus)
        row_of[row_of < 0] = n_rows  # the one empty row every dead slot points at
        pool.append(cls._of(_joined(()), np.zeros(2, dtype=ID_DTYPE)))
        return cls.concat(pool).take(row_of)

    def take(self, ids) -> "Corpus":
        """The objects at ``ids``, in that order (:func:`take_segments`: a range shares storage)."""
        ids = np.asarray(ids, dtype=ID_DTYPE).reshape(-1)
        return self._of(*take_segments(self.keywords, self.offsets, ids))

    # ------------------------------------------------------------------
    # per-object views

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> np.ndarray:
        """Object ``i``'s keywords as a zero-copy (read-only) view."""
        i = range(len(self))[i]
        return self.keywords[self.offsets[i] : self.offsets[i + 1]]

    def __iter__(self):
        return iter(self.keyword_arrays)

    @cached_property
    def keyword_arrays(self) -> list[np.ndarray]:
        """Per-object sorted, de-duplicated keyword arrays (views, built on first use)."""
        bounds = self.offsets.tolist()
        return [self.keywords[a:b] for a, b in zip(bounds, bounds[1:])]

    @cached_property
    def distinct_keywords(self) -> np.ndarray:
        """The sorted distinct keywords of this corpus: what routing asks of a corpus no index was built for."""
        keywords = np.sort(self.keywords)
        return keywords[np.flatnonzero(np.diff(keywords, prepend=-1))]

    @property
    def max_keyword(self) -> int:
        """Largest keyword present (-1 for an empty corpus)."""
        return int(self.keywords.max()) if self.keywords.size else -1

    @property
    def total_entries(self) -> int:
        """Total number of (object, keyword) pairs — the index size."""
        return int(self.keywords.size)

    def max_object_size(self) -> int:
        """Keywords in the largest object; a valid match-count bound."""
        return int(np.diff(self.offsets).max()) if len(self) else 0


@dataclass
class Query:
    """One match-count query: a list of items, each a set of keywords.

    The per-query type of users, model hooks, the specification and the
    baselines; the search path carries whole :class:`QueryBatch` es and
    hands out ``Query`` views of them.

    Attributes:
        items: One sorted, duplicate-free keyword array per query item.
    """

    items: list = field(default_factory=list)

    def __post_init__(self):
        # A query item is a *set* of elements (Definition 2.1): duplicates
        # within one item must not double-count an object. ``np.unique``
        # also returns fresh storage, so caller arrays are never aliased.
        self.items = [np.unique(as_keyword_array(item)) for item in self.items]

    @classmethod
    def _view(cls, items: list) -> "Query":
        """Wrap already-canonical item arrays without copying them."""
        query = object.__new__(cls)
        query.items = items
        return query

    @classmethod
    def from_keywords(cls, keywords) -> "Query":
        """Build a query with one single-keyword item per keyword.

        This is the shape LSH- and SA-transformed queries take: each hash
        signature / n-gram is its own item.
        """
        return cls._view(list(np.array(as_keyword_array(keywords)).reshape(-1, 1)))

    @property
    def num_items(self) -> int:
        """Number of query items."""
        return len(self.items)

    def all_keywords(self) -> np.ndarray:
        """Concatenation of all items' keywords (with repeats across items)."""
        if not self.items:
            return np.empty(0, dtype=ID_DTYPE)
        return np.concatenate(self.items)


class QueryBatch:
    """A batch of match-count queries in CSR form: the search path's input.

    Invariants, established once at construction: keywords are validated by
    :func:`as_keyword_array`'s rules, every item's keywords are ascending
    and distinct (an item is a *set*; exactly what ``np.unique`` per item
    yields), and the storage is owned and read-only — caller arrays are
    copied, and the :class:`Query` views handed out cannot write through.

    Args:
        keywords: Every item's keywords, concatenated in (query, item) order.
        item_offsets: Item ``i`` owns ``keywords[item_offsets[i]:item_offsets[i + 1]]``;
            ``None`` makes every keyword its own item (the LSH / SA shape).
        query_offsets: Query ``q`` owns items ``query_offsets[q]:query_offsets[q + 1]``.

    Raises:
        QueryError: Invalid keywords, or offsets that do not rise from 0 to
            the size of what they index.
    """

    def __init__(self, keywords, item_offsets, query_offsets):
        flat = as_keyword_array(keywords)
        if item_offsets is None:
            item_offsets = np.arange(flat.size + 1, dtype=ID_DTYPE)
        else:
            item_offsets = self._checked_offsets(item_offsets, flat.size, "item_offsets")
            flat, item_offsets = canonical_segments(flat, item_offsets)
        query_offsets = self._checked_offsets(query_offsets, item_offsets.size - 1, "query_offsets")
        if isinstance(keywords, np.ndarray) and np.may_share_memory(flat, keywords):
            flat = flat.copy()
        self._set(flat, item_offsets, query_offsets)

    @staticmethod
    def _checked_offsets(offsets, total: int, name: str) -> np.ndarray:
        offsets = np.array(offsets, dtype=ID_DTYPE).reshape(-1)  # an owned copy
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total or (offsets[1:] < offsets[:-1]).any():
            raise QueryError(f"{name} must rise from 0 to {total}")
        return offsets

    def _set(self, keywords, item_offsets, query_offsets) -> None:
        keywords.flags.writeable = False
        self.keywords = keywords
        self.item_offsets = item_offsets
        self.query_offsets = query_offsets

    @classmethod
    def _of(cls, keywords, item_offsets, query_offsets) -> "QueryBatch":
        """A batch over parts that already satisfy the invariants."""
        batch = object.__new__(cls)
        batch._set(keywords, item_offsets, query_offsets)
        return batch

    @classmethod
    def from_queries(cls, queries) -> "QueryBatch":
        """The one boundary conversion: ``list[Query]`` in, batch out.

        A :class:`QueryBatch` passes through untouched, so every public
        door (``RawModel.encode_queries``, ``IndexHandle.encode_queries``
        for third-party models, ``IndexHandle.search_encoded``,
        ``GenieEngine.query``) calls this once on entry.

        Raises:
            QueryError: If an element is not a :class:`Query`.
        """
        if isinstance(queries, cls):
            return queries
        queries = list(queries)
        if not all(isinstance(query, Query) for query in queries):
            raise QueryError("queries must be Query objects or one QueryBatch")
        items = [item for query in queries for item in query.items]
        return cls(
            np.concatenate(items) if items else (),
            csr_offsets([len(item) for item in items]),
            csr_offsets([len(query.items) for query in queries]),
        )

    @classmethod
    def concat(cls, batches) -> "QueryBatch":
        """The queries of ``batches``, in order, as one batch."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        return cls._of(
            _joined(b.keywords for b in batches),
            stacked_offsets([b.item_offsets for b in batches]),
            stacked_offsets([b.query_offsets for b in batches]),
        )

    def take(self, positions) -> "QueryBatch":
        """The queries at ``positions`` (valid, non-negative), in that order.

        A contiguous ascending range of queries is a contiguous range of
        items, so :func:`take_segments` shares its keyword storage.
        """
        positions = np.asarray(positions, dtype=ID_DTYPE).reshape(-1)
        first_item = self.query_offsets[positions]
        n_items = self.query_offsets[positions + 1] - first_item
        item_rows = ragged_slices(first_item, n_items)
        return self._of(*take_segments(self.keywords, self.item_offsets, item_rows), csr_offsets(n_items))

    # ------------------------------------------------------------------
    # per-query views

    def __len__(self) -> int:
        return self.query_offsets.size - 1

    def __getitem__(self, i: int) -> Query:
        """Query ``i`` as a zero-copy (read-only) :class:`Query` view."""
        i = range(len(self))[i]
        bounds = self.item_offsets[self.query_offsets[i] : self.query_offsets[i + 1] + 1].tolist()
        return Query._view([self.keywords[a:b] for a, b in zip(bounds, bounds[1:])])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def key_bytes(self) -> bytes:
        """Hashable identity of the batch: its keywords, then its item and query boundaries.

        Two batches share a key exactly when their queries have the same
        items in the same order (``[[1, 2], [3]]``, ``[[1], [2, 3]]`` and
        ``[[1], [2], [3]]`` are three keys). Query ``i``'s own key is
        ``batch.take([i]).key_bytes()``: offsets start at 0 in every batch.
        """
        return self.keywords.tobytes() + self.item_offsets.tobytes() + self.query_offsets.tobytes()

    # ------------------------------------------------------------------
    # batch arrays

    @property
    def num_items(self) -> int:
        """Items in the batch, over all queries."""
        return self.item_offsets.size - 1

    @property
    def items_per_query(self) -> np.ndarray:
        """``(n_queries,)`` item counts."""
        return self.query_offsets[1:] - self.query_offsets[:-1]

    @property
    def keywords_per_query(self) -> np.ndarray:
        """``(n_queries,)`` keyword counts, repeats across items included.

        Also each query's match-count bound: an item contributes at most
        its own size to any object's count (for one-keyword items that is
        the paper's "number of items" bound).
        """
        bounds = self.item_offsets[self.query_offsets]
        return bounds[1:] - bounds[:-1]

    @cached_property
    def keyword_item(self) -> np.ndarray:
        """Per keyword, the (batch-global) item that owns it."""
        return np.repeat(
            np.arange(self.num_items, dtype=ID_DTYPE), self.item_offsets[1:] - self.item_offsets[:-1]
        )

    @cached_property
    def item_query(self) -> np.ndarray:
        """Per item, the query that owns it."""
        return np.repeat(np.arange(len(self), dtype=ID_DTYPE), self.items_per_query)

    @cached_property
    def keyword_query(self) -> np.ndarray:
        """Per keyword, the query that owns it."""
        return self.item_query[self.keyword_item]


@dataclass
class TopKResult:
    """Top-k answer for one query, sorted by descending match count.

    Attributes:
        ids: Object identifiers.
        counts: Match counts aligned with ``ids``.
        threshold: The value ``AT - 1`` from c-PQ — by Theorem 3.1 this is
            exactly the match count of the k-th object.
    """

    ids: np.ndarray
    counts: np.ndarray
    threshold: int = 0

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=ID_DTYPE)
        self.counts = np.asarray(self.counts, dtype=ID_DTYPE)
        if self.ids.shape != self.counts.shape:
            raise ConfigError("ids and counts must align")

    def __len__(self) -> int:
        return int(self.ids.size)

    def as_pairs(self) -> list[tuple[int, int]]:
        """``(object_id, count)`` pairs in rank order."""
        return [(int(i), int(c)) for i, c in zip(self.ids, self.counts)]


class TopKBatch(Sequence):
    """Ranked candidates of a batch of queries in CSR form: the search path's output.

    A read-only sequence of :class:`TopKResult` views (``batch[i]``,
    iteration, ``len``) over flat arrays; what the selection step returns,
    what every scan source hands the merge and what the merge returns.

    Attributes:
        ids: Every query's object ids, concatenated in query order (int64).
        counts: Match counts aligned with ``ids`` (int64).
        offsets: Query ``i`` owns entries ``offsets[i]:offsets[i + 1]``,
            ranked count-desc / id-asc.
        thresholds: ``(n,)`` Theorem-3.1 thresholds (``AT - 1``).
    """

    def __init__(self, ids: np.ndarray, counts: np.ndarray, offsets: np.ndarray, thresholds: np.ndarray):
        ids = np.asarray(ids, dtype=ID_DTYPE)
        counts = np.asarray(counts, dtype=ID_DTYPE)
        if ids.shape != counts.shape or offsets.size != thresholds.size + 1:
            raise ConfigError("ids and counts must align, one threshold per segment")
        ids.flags.writeable = False
        counts.flags.writeable = False
        self.ids = ids
        self.counts = counts
        self.offsets = offsets
        self.thresholds = thresholds

    @classmethod
    def empty(cls, n: int) -> "TopKBatch":
        """``n`` queries without a candidate (what an unrouted source holds)."""
        nothing = np.empty(0, dtype=ID_DTYPE)
        return cls(nothing, nothing, np.zeros(n + 1, dtype=ID_DTYPE), np.zeros(n, dtype=ID_DTYPE))

    @classmethod
    def from_results(cls, results) -> "TopKBatch":
        """The batch of per-query results (``list(batch)`` is the way back)."""
        results = list(results)
        return cls(
            _joined(result.ids for result in results),
            _joined(result.counts for result in results),
            csr_offsets([len(result) for result in results]),
            np.asarray([result.threshold for result in results], dtype=ID_DTYPE),
        )

    @classmethod
    def concat(cls, batches) -> "TopKBatch":
        """The queries of ``batches``, in order, as one batch."""
        batches = list(batches)
        if len(batches) == 1:
            return batches[0]
        return cls(
            _joined(b.ids for b in batches),
            _joined(b.counts for b in batches),
            stacked_offsets([b.offsets for b in batches]),
            _joined(b.thresholds for b in batches),
        )

    def take(self, rows) -> "TopKBatch":
        """The queries at ``rows`` (valid, non-negative), in that order."""
        rows = np.asarray(rows, dtype=ID_DTYPE).reshape(-1)
        ids, offsets = take_segments(self.ids, self.offsets, rows)
        counts, _ = take_segments(self.counts, self.offsets, rows)
        return TopKBatch(ids, counts, offsets, self.thresholds[rows])

    def replace(self, rows, other: "TopKBatch") -> "TopKBatch":
        """This batch with query ``rows[i]`` answered by ``other``'s query ``i`` instead."""
        source = np.arange(len(self), dtype=ID_DTYPE)
        source[np.asarray(rows, dtype=ID_DTYPE)] = np.arange(len(self), len(self) + len(other), dtype=ID_DTYPE)
        return TopKBatch.concat([self, other]).take(source)

    def compress(self, keep: np.ndarray) -> "TopKBatch":
        """Only the entries whose ``keep`` flag is set, still grouped by query."""
        # An offset moves down by the struck entries before it.
        struck_before = np.flatnonzero(~keep).searchsorted(self.offsets)
        return TopKBatch(self.ids[keep], self.counts[keep], self.offsets - struck_before, self.thresholds)

    @property
    def sizes(self) -> np.ndarray:
        """``(n,)`` candidates per query."""
        return self.offsets[1:] - self.offsets[:-1]

    # ------------------------------------------------------------------
    # per-query views

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> TopKResult:
        """Query ``i``'s answer as a zero-copy (read-only) :class:`TopKResult` view."""
        i = range(len(self))[i]
        a, b = self.offsets[i], self.offsets[i + 1]
        return TopKResult(ids=self.ids[a:b], counts=self.counts[a:b], threshold=int(self.thresholds[i]))
