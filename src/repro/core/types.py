"""Core data model: keywords, objects, corpora, query batches and results.

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

The unit of work is the *batch*: :class:`QueryBatch` holds every query of a
batch in three flat arrays (keywords, item offsets, query offsets) — the
format the paper's device receives in its "query transfer" stage, what the
encoders build straight from their keyword matrices and what the scan, the
planner and the caches read. :class:`Query` is the per-query view of it:
what users, model hooks, the specification (:mod:`repro.core.reference`)
and the baselines handle, converted once at the public doors by
:meth:`QueryBatch.from_queries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigError, QueryError

#: Dtype used for keyword and object identifiers throughout the package.
ID_DTYPE = np.int64


def as_keyword_array(keywords) -> np.ndarray:
    """Normalize raw keyword input to a validated int64 array.

    Args:
        keywords: Any iterable of non-negative integers (``2.0`` counts as one).

    Returns:
        A 1-D ``int64`` array.

    Raises:
        QueryError: Naming the first keyword that is negative, non-finite,
            ``>= 2**63``, or a float with a fractional part (a cast would
            silently match another element).
    """
    raw = np.asarray(keywords if isinstance(keywords, np.ndarray) else list(keywords))
    kind = raw.dtype.kind
    bad = None
    if kind == "f":
        bad = ~(np.isfinite(raw) & (raw == np.trunc(raw)) & (raw < 2.0**63))
    elif kind == "u":
        bad = raw >= 2**63
    elif kind == "O":  # python ints no fixed-width dtype holds
        bad = np.asarray(
            [not (isinstance(v, (int, np.integer)) and -(2**63) <= v < 2**63) for v in raw.flat]
        ).reshape(raw.shape)
    if bad is not None and bad.any():
        raise QueryError(f"keywords must be integers below 2**63; got {raw[bad].tolist()[0]!r}")
    arr = raw.astype(ID_DTYPE, copy=False).reshape(-1)
    if arr.size and arr.min() < 0:
        raise QueryError(f"keywords must be non-negative integers; got {int(arr[arr < 0][0])}")
    return arr


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


class Corpus:
    """An ordered collection of objects, each a set of keywords.

    Args:
        objects: One iterable of keywords per object. Duplicate keywords
            within an object are dropped (an object is a *set* of elements).

    Attributes:
        keyword_arrays: Per-object sorted, de-duplicated keyword arrays.
    """

    def __init__(self, objects):
        self.keyword_arrays: list[np.ndarray] = []
        max_kw = -1
        total = 0
        max_size = 0
        for obj in objects:
            arr = np.unique(as_keyword_array(obj))
            self.keyword_arrays.append(arr)
            total += arr.size
            if arr.size:
                max_kw = max(max_kw, int(arr[-1]))
                max_size = max(max_size, arr.size)
        self._max_keyword = max_kw
        # Sizes are fixed at construction; the engine asks for them on every
        # batch (device-memory sizing), so they must not be O(n) generators.
        self._total_entries = total
        self._max_object_size = max_size

    def __len__(self) -> int:
        return len(self.keyword_arrays)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.keyword_arrays[i]

    def __iter__(self):
        return iter(self.keyword_arrays)

    @property
    def max_keyword(self) -> int:
        """Largest keyword present (-1 for an empty corpus)."""
        return self._max_keyword

    @property
    def total_entries(self) -> int:
        """Total number of (object, keyword) pairs — the index size."""
        return self._total_entries

    def max_object_size(self) -> int:
        """Keywords in the largest object; a valid match-count bound."""
        return self._max_object_size


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
            sizes = item_offsets[1:] - item_offsets[:-1]
            # Already canonical: one-keyword items, or a batch ascending end to
            # end (ranges laid out in keyword order). Else one segmented sort,
            # (item, keyword) order, then drop repeats.
            if sizes.size and sizes.max() > 1 and not (flat[1:] > flat[:-1]).all():
                item_of = np.repeat(np.arange(sizes.size), sizes)
                flat = flat[np.lexsort((flat, item_of))]
                fresh = np.ones(flat.size, dtype=bool)
                fresh[1:] = (flat[1:] != flat[:-1]) | (item_of[1:] != item_of[:-1])
                if not fresh.all():
                    flat = flat[fresh]
                    item_offsets = csr_offsets(np.bincount(item_of[fresh], minlength=sizes.size))
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
        ``GenieEngine.query`` / ``query_batched``) calls this once on entry.

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
        zero = np.zeros(1, dtype=ID_DTYPE)
        n_items = np.asarray([b.num_items for b in batches], dtype=ID_DTYPE)
        n_queries = [len(b) for b in batches]
        keyword_base = csr_offsets([b.keywords.size for b in batches])[:-1]
        item_base = csr_offsets(n_items)[:-1]
        item_offsets = np.concatenate([zero] + [b.item_offsets[1:] for b in batches])
        item_offsets[1:] += np.repeat(keyword_base, n_items)
        query_offsets = np.concatenate([zero] + [b.query_offsets[1:] for b in batches])
        query_offsets[1:] += np.repeat(item_base, n_queries)
        keywords = np.concatenate([zero[:0]] + [b.keywords for b in batches])
        return cls._of(keywords, item_offsets, query_offsets)

    def take(self, positions) -> "QueryBatch":
        """The queries at ``positions`` (valid, non-negative), in that order.

        A contiguous ascending range is offset arithmetic over shared
        keyword storage; anything else gathers into fresh arrays.
        """
        positions = np.asarray(positions, dtype=ID_DTYPE).reshape(-1)
        if positions.size and (positions[1:] - positions[:-1] == 1).all():
            items = self.query_offsets[positions[0] : positions[-1] + 2]
            bounds = self.item_offsets[items[0] : items[-1] + 1]
            return self._of(self.keywords[bounds[0] : bounds[-1]], bounds - bounds[0], items - items[0])
        first_item = self.query_offsets[positions]
        n_items = self.query_offsets[positions + 1] - first_item
        item_rows = ragged_slices(first_item, n_items)
        first_keyword = self.item_offsets[item_rows]
        n_keywords = self.item_offsets[item_rows + 1] - first_keyword
        return self._of(
            self.keywords[ragged_slices(first_keyword, n_keywords)],
            csr_offsets(n_keywords),
            csr_offsets(n_items),
        )

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

    def key_bytes(self, i: int) -> bytes:
        """Hashable identity of query ``i``: its keywords, then its item boundaries.

        Two queries share a key exactly when they have the same items in
        the same order (``[[1, 2], [3]]``, ``[[1], [2, 3]]`` and
        ``[[1], [2], [3]]`` are three keys).
        """
        bounds = self.item_offsets[self.query_offsets[i] : self.query_offsets[i + 1] + 1]
        return self.keywords[bounds[0] : bounds[-1]].tobytes() + (bounds - bounds[0]).tobytes()

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
