"""Core data model: keywords, objects, corpora, queries and results.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        QueryError: If any keyword is negative, non-finite, or a float with
            a fractional part (a cast would silently match another element).
    """
    raw = np.asarray(keywords if isinstance(keywords, np.ndarray) else list(keywords))
    if raw.dtype.kind == "f":
        bad = ~(np.isfinite(raw) & (raw == np.trunc(raw)))
        if bad.any():
            raise QueryError(f"keywords must be integers; got {raw[bad][0]!r}")
    arr = raw.astype(ID_DTYPE, copy=False).reshape(-1)
    if arr.size and arr.min() < 0:
        raise QueryError("keywords must be non-negative integers")
    return arr


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
    """A match-count query: a list of items, each a set of keywords.

    Attributes:
        items: One keyword array per query item.
    """

    items: list = field(default_factory=list)

    def __post_init__(self):
        # A query item is a *set* of elements (Definition 2.1): duplicates
        # within one item must not double-count an object. Single-keyword
        # int64 arrays (the LSH/SA shape, thousands per batch) are already
        # canonical — validate without the np.unique round-trip.
        items = []
        for item in self.items:
            if (
                isinstance(item, np.ndarray)
                and item.ndim == 1
                and item.size == 1
                and item.dtype == ID_DTYPE
            ):
                if item[0] < 0:
                    raise QueryError("keywords must be non-negative integers")
                items.append(item.copy())  # never alias caller-owned storage
            else:
                items.append(np.unique(as_keyword_array(item)))
        self.items = items
        self._count_bound: int | None = None

    @classmethod
    def from_keywords(cls, keywords) -> "Query":
        """Build a query with one single-keyword item per keyword.

        This is the shape LSH- and SA-transformed queries take: each hash
        signature / n-gram is its own item.
        """
        return cls(items=list(as_keyword_array(keywords).reshape(-1, 1)))

    @property
    def num_items(self) -> int:
        """Number of query items."""
        return len(self.items)

    @property
    def num_keywords(self) -> int:
        """Total keywords across all items (with repeats across items)."""
        return sum(item.size for item in self.items)

    def all_keywords(self) -> np.ndarray:
        """Concatenation of all items' keywords (with repeats across items)."""
        if not self.items:
            return np.empty(0, dtype=ID_DTYPE)
        return np.concatenate(self.items)

    def count_bound(self) -> int:
        """An upper bound on any object's match count for this query.

        Each item can contribute at most the item's own keyword-set size,
        but never more than the object's size; the number of items is the
        bound the paper uses for LSH/SA data (one keyword per item). The
        value is cached: items are fixed after construction and the engine
        asks once per batch.
        """
        if self._count_bound is None:
            self._count_bound = (
                int(sum(min(1, item.size) for item in self.items))
                if all(item.size == 1 for item in self.items)
                else int(sum(item.size for item in self.items))
            )
        return self._count_bound


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
