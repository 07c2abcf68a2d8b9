"""Shard planning: partition a corpus across simulated devices.

The paper has one way to outgrow a device (Section III-D, Fig. 6): split
the objects into parts, index each, merge the parts' top-k. A
:class:`ShardPlan` is that split — the one partition every fitted index
holds. Each :class:`ShardSlice` keeps a *local* id space (0..m-1, what its
inverted index and engine see), the map back to global object ids, and the
index itself; a :class:`SliceCopy` is one device-resident copy of a slice.
An unpartitioned index is a plan of one slice, multi-loading ``part_size``
parts are range slices whose copies share one device (time-multiplexed),
shards are slices on devices of their own (space-multiplexed), and the
stream's delta run is scanned as one more slice. Because the slices
partition the objects, an object's match count is computed entirely within
its slice and a candidate merge over the slices' top-k is exact.

Two partition strategies:

* ``"range"`` — contiguous object ranges of near-equal size. Cheapest
  remap (an offset), but inherits any ordering skew in the corpus: if
  heavy-postings objects cluster (Fig. 12's skewed Adult columns, sorted
  data), the shard holding them does most of the scan work while the
  rest idle.
* ``"hash"`` — objects are assigned by a seeded integer hash of their
  global id. Destroys ordering skew, so per-shard postings work evens
  out at the cost of a gather-style remap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.engine import count_option, integer_option
from repro.core.inverted_index import InvertedIndex
from repro.core.types import ID_DTYPE, Corpus
from repro.errors import ConfigError

#: Partition strategies understood by :meth:`ShardPlan.build`.
PARTITION_STRATEGIES = ("range", "hash")


def check_partition_args(strategy: str, seed: int) -> None:
    """Validate a partition strategy/seed pair.

    Shared by :meth:`ShardPlan.build` and :class:`Placement`, so
    misconfiguration fails at ``create_index`` time (before the index
    name is registered), not at fit.

    Raises:
        ConfigError: Unknown strategy, or a seed outside ``[0, 2**64)``
            (``np.uint64`` would raise a raw OverflowError).
    """
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigError(
            f"unknown shard strategy {strategy!r}; expected one of {PARTITION_STRATEGIES}"
        )
    if not 0 <= integer_option(seed, "shard seed", ConfigError) < 2**64:
        raise ConfigError("shard seed must fit in 64 bits (0 <= seed < 2**64)")


@dataclass(frozen=True)
class Placement:
    """Where a sharded index lives: shards x replicas over the device pool.

    The one value an :class:`~repro.api.session.IndexHandle` reads to
    partition, place, dispatch and heal (``handle.placement``; ``None``
    on an unsharded handle). ``create_index(..., shards=N)`` and
    ``shards=N, replicas=1`` build the same value.

    Attributes:
        shards: Slices the corpus is partitioned into (>= 1).
        replicas: Copies of every slice, on distinct pool devices (>= 1).
        strategy: Partition strategy (``"range"`` / ``"hash"``).
        seed: Hash-partition seed.
        layout: ``layout[s][r]`` is the pool position hosting replica
            ``r`` of shard ``s``. Starts as chained declustering —
            ``(s + r) % pool_size``, so every group spans ``replicas``
            distinct devices and any ``replicas - 1`` concurrent device
            failures leave every group a survivor — and is what every
            rebuild places from, so copies :meth:`moved` off a failed
            device stay off it.
    """

    shards: int
    replicas: int = 1
    strategy: str = "range"
    seed: int = 0
    layout: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        for name in ("shards", "replicas"):
            object.__setattr__(self, name, count_option(getattr(self, name), name, ConfigError))
        check_partition_args(self.strategy, self.seed)
        if not self.layout:
            pool = self.pool_size
            object.__setattr__(self, "layout", tuple(
                tuple((s + r) % pool for r in range(self.replicas))
                for s in range(self.shards)
            ))

    @property
    def pool_size(self) -> int:
        """Pool devices needed: enough for the shards *and* one group."""
        return max(self.shards, self.replicas)

    def moved(self, shard: int, replica: int, device: int) -> "Placement":
        """This placement with one copy re-homed on pool ``device``."""
        group = list(self.layout[shard])
        group[replica] = device
        layout = self.layout[:shard] + (tuple(group),) + self.layout[shard + 1:]
        return replace(self, layout=layout)


#: 64-bit Fibonacci-hashing multiplier (2^64 / golden ratio, odd).
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _hash_ids(ids: np.ndarray, seed: int) -> np.ndarray:
    """A seeded 64-bit mix of object ids (deterministic across platforms)."""
    mixed = (ids.astype(np.uint64) + np.uint64(seed)) * _HASH_MULTIPLIER
    mixed ^= mixed >> np.uint64(33)
    mixed *= _HASH_MULTIPLIER
    mixed ^= mixed >> np.uint64(29)
    return mixed


@dataclass
class ShardSlice:
    """One slice of a partition: rows in their own local id space, and their index.

    Attributes:
        position: Slice position within the plan.
        corpus: The slice's objects, locally numbered ``0..len-1`` (``None`` for the delta run).
        global_ids: Map from local object id to global object id
            (``global_ids[local]``); sorted ascending, so local id order
            preserves global id order and per-slice tie-breaks agree with
            the unpartitioned index.
        index: The inverted index over ``corpus`` (``None`` on a plan
            nobody fitted — partition tooling, tests).
    """

    position: int
    corpus: Corpus
    global_ids: np.ndarray
    index: InvertedIndex | None = None

    def __len__(self) -> int:
        return int(self.global_ids.size)

    def keywords(self) -> np.ndarray:
        """Sorted distinct keywords present in this slice.

        These are the slice's *partition bounds* for query routing: a
        query with no keyword in this set cannot produce a positive match
        count here, so the planner's shard-pruning rule may skip the
        slice without changing results (see
        :func:`repro.plan.planner.route_queries`). Read off the index's
        keyword table when there is one, else the corpus.
        """
        return self.corpus.distinct_keywords if self.index is None else self.index.keyword_array


class SliceCopy:
    """One device-resident copy of a slice: the session's residency / LRU unit.

    Every slice has one copy per replica (one when unreplicated), each
    with an engine on the device that hosts it; ``handle`` is the index
    handle the slice belongs to (its ``name`` labels residency events).
    """

    __slots__ = ("handle", "slice", "engine", "replica", "device_bytes")

    def __init__(self, handle, slice: ShardSlice, engine, replica: int = 0):
        self.handle = handle
        self.slice = slice
        self.engine = engine
        self.replica = replica
        # The device-resident List Array holds 32-bit ids (what
        # GenieEngine.attach_index actually transfers and allocates).
        self.device_bytes = 4 * int(slice.index.list_array.size)

    position = property(lambda self: self.slice.position)
    corpus = property(lambda self: self.slice.corpus)
    index = property(lambda self: self.slice.index)
    global_ids = property(lambda self: self.slice.global_ids)

    @property
    def resident(self) -> bool:
        return self.engine.index_resident

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Global object ids of this slice's ``local_ids`` (one gather)."""
        return self.slice.global_ids[local_ids]


def _equal_bounds(n_objects: int, n_shards: int) -> list[int]:
    """Cut points of ``n_shards`` contiguous ranges of near-equal size."""
    return np.linspace(0, n_objects, n_shards + 1).astype(np.int64).tolist()


def part_bounds(n_objects: int, part_size: int) -> list[int]:
    """Cut points of multi-loading parts: ``part_size`` objects each, the last one shorter."""
    return [*range(0, n_objects, part_size), n_objects] if n_objects else [0, 0]


class ShardPlan:
    """A disjoint partition of a corpus over ``n_shards`` shards.

    Build with :meth:`build` (or the strategy-specific constructors); do
    not construct directly unless the slices are known to partition the
    global id space.

    Attributes:
        strategy: ``"range"`` or ``"hash"``.
        n_objects: Global corpus size the plan covers.
        shards: One :class:`ShardSlice` per shard, in position order.
        bounds: The cut points of a range plan — shard ``s`` holds global
            ids ``[bounds[s], bounds[s + 1])`` — and ``None`` for a hash plan.
    """

    def __init__(
        self, shards: list[ShardSlice], strategy: str, n_objects: int, bounds: list[int] | None = None
    ):
        self.shards = list(shards)
        self.strategy = strategy
        self.n_objects = int(n_objects)
        self.bounds = bounds

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def build(
        cls,
        corpus: Corpus,
        n_shards: int,
        strategy: str = "range",
        seed: int = 0,
    ) -> "ShardPlan":
        """Partition ``corpus`` into ``n_shards`` slices.

        Args:
            corpus: The global corpus (anything accepted by
                :class:`~repro.core.types.Corpus` is adopted).
            n_shards: Number of shards (>= 1). Shards may end up empty
                when the corpus is smaller than the shard count.
            strategy: ``"range"`` or ``"hash"``.
            seed: Hash seed (``"hash"`` strategy only).

        Raises:
            ConfigError: Bad shard count or unknown strategy.
        """
        if int(n_shards) < 1:
            raise ConfigError("n_shards must be >= 1")
        check_partition_args(strategy, seed)
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        n_shards = int(n_shards)
        if strategy == "range":
            return cls.build_ranges(corpus, _equal_bounds(len(corpus), n_shards))
        shard_of = _hash_ids(np.arange(len(corpus), dtype=ID_DTYPE), seed) % np.uint64(n_shards)
        assignments = [np.nonzero(shard_of == np.uint64(s))[0].astype(ID_DTYPE) for s in range(n_shards)]
        return cls._cut(corpus, assignments, strategy)

    @classmethod
    def _cut(cls, corpus: Corpus, assignments: list[np.ndarray], strategy: str, bounds=None) -> "ShardPlan":
        """One slice per global-id array: rows move by ``take``, nothing is re-derived."""
        shards = [
            ShardSlice(position=s, corpus=corpus.take(global_ids), global_ids=global_ids)
            for s, global_ids in enumerate(assignments)
        ]
        return cls(shards, strategy, len(corpus), bounds)

    @classmethod
    def build_ranges(cls, corpus: Corpus, bounds) -> "ShardPlan":
        """Partition ``corpus`` into contiguous ranges at explicit bounds.

        The rebalancer's constructor: where :meth:`build` cuts equal-size
        ranges, this cuts at caller-chosen positions (equal *load* rather
        than equal size). The result keeps ``strategy == "range"``, so
        keyword-bounds query routing — and therefore shard pruning —
        keeps working on the rebalanced plan.

        Args:
            corpus: The global corpus.
            bounds: ``n_shards + 1`` non-decreasing ints with
                ``bounds[0] == 0`` and ``bounds[-1] == len(corpus)``;
                shard ``s`` holds global ids ``[bounds[s], bounds[s+1])``.

        Raises:
            ConfigError: Bounds that do not partition the corpus.
        """
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        bounds = [int(b) for b in bounds]
        n = len(corpus)
        if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != n:
            raise ConfigError(
                f"range bounds must run 0..{n}, got {bounds[:1]}..{bounds[-1:]}"
            )
        if any(b > c for b, c in zip(bounds, bounds[1:])):
            raise ConfigError(f"range bounds must be non-decreasing: {bounds}")
        return cls._cut(
            corpus, [np.arange(lo, hi, dtype=ID_DTYPE) for lo, hi in zip(bounds, bounds[1:])], "range", bounds
        )

    # ------------------------------------------------------------------
    # rebuilding and introspection

    def carried_bounds(self, n_objects: int) -> list[int] | None:
        """The cuts a rebuild over ``n_objects`` objects keeps, if any.

        Ranges somebody recut (``rebalance``) keep their interior cuts and
        the last bound moves to the new corpus length — new ids join the
        last shard until the next recut. ``None`` — the builder cuts again —
        for a hash plan and for ranges still at :meth:`build`'s equal-size
        cut, which stay equal-size as the corpus grows.
        """
        if self.bounds is None or self.bounds == _equal_bounds(self.n_objects, self.n_shards):
            return None
        return [*self.bounds[:-1], int(n_objects)]

    def reassemble(self, overlay=(), n_objects: int | None = None) -> Corpus:
        """The global corpus, rebuilt from the slices — with ``overlay`` applied on top.

        Exact inverse of construction: object ``g`` comes from whichever
        slice holds global id ``g``, so a fitted plan can be recut without
        the caller keeping the original corpus alive. ``overlay`` is more
        :meth:`Corpus.by_global_id <repro.core.types.Corpus.by_global_id>`
        sources over an id space of ``n_objects`` (default: this plan's) —
        a mutated index's tombstones and delta run, which make this the
        logical corpus a from-scratch refit would index: one slot per
        assigned id, dead slots empty. Empty objects never match (zero
        counts never enter a top-k), so indexing them changes no result
        while every surviving id stays stable across compactions.
        """
        self.validate()
        sources = [(shard.corpus, shard.global_ids) for shard in self.shards]
        return Corpus.by_global_id(
            [*sources, *overlay], self.n_objects if n_objects is None else n_objects
        )

    @property
    def n_shards(self) -> int:
        """Number of shards (including any empty ones)."""
        return len(self.shards)

    def sizes(self) -> list[int]:
        """Objects per shard, in position order."""
        return [len(shard) for shard in self.shards]

    def entries(self) -> list[int]:
        """Index entries (object, keyword pairs) per shard — scan work."""
        return [shard.corpus.total_entries for shard in self.shards]

    def size_imbalance(self) -> float:
        """``max / mean`` of per-shard entry counts (1.0 = balanced).

        Returns 0.0 for an empty corpus.
        """
        entries = self.entries()
        mean = sum(entries) / max(1, len(entries))
        return max(entries) / mean if mean > 0 else 0.0

    def validate(self) -> None:
        """Check the shards partition the global id space exactly once.

        Raises:
            ConfigError: Ids missing, duplicated, or out of range.
        """
        covered = (
            np.concatenate([s.global_ids for s in self.shards])
            if self.shards
            else np.empty(0, dtype=ID_DTYPE)
        )
        expected = np.arange(self.n_objects, dtype=ID_DTYPE)
        if not np.array_equal(np.sort(covered), expected):
            raise ConfigError("shard plan does not partition the corpus exactly once")
        for shard in self.shards:
            if len(shard.corpus) != shard.global_ids.size:
                raise ConfigError(f"shard {shard.position} corpus/global_ids misaligned")
