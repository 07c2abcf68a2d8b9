"""Shard planning: partition a corpus across simulated devices.

The paper's multi-loading scheme (Section III-D) time-multiplexes one GPU
over index parts; sharding is its space-multiplexed dual. A
:class:`ShardPlan` splits a corpus into N disjoint slices — one per
simulated device — with each slice keeping a *local* id space (0..m-1,
what its inverted index and engine see) plus the map back to global
object ids. Because the slices partition the objects, an object's match
count is computed entirely within its shard and a candidate merge over
the shards' top-k is exact (the same argument Fig. 6 makes for
multi-loading parts).

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

from dataclasses import dataclass, field, replace

import numpy as np

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
    if not 0 <= int(seed) < 2**64:
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
        if int(self.shards) < 1:
            raise ConfigError("shards must be >= 1")
        if int(self.replicas) < 1:
            raise ConfigError("replicas must be >= 1")
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
    """One shard of a plan: a corpus slice in its own local id space.

    Attributes:
        position: Shard position within the plan (device index).
        corpus: The shard's objects, locally numbered ``0..len-1``.
        global_ids: Map from local object id to global object id
            (``global_ids[local]``); sorted ascending, so local id order
            preserves global id order and per-shard tie-breaks agree with
            the unsharded index.
    """

    position: int
    corpus: Corpus
    global_ids: np.ndarray
    _tables: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.corpus)

    def seed_tables(self, keywords: np.ndarray, posting_counts: np.ndarray) -> None:
        """Adopt the fitted shard index's tables: no extra pass over the slice.

        The index builds one posting per (object, keyword) pair of the
        slice, so its keyword array and per-keyword posting lengths are
        exactly what :attr:`Corpus.keyword_table` would compute.
        """
        self._tables = (keywords, posting_counts)

    def _keyword_tables(self) -> tuple[np.ndarray, np.ndarray]:
        return self._tables if self._tables is not None else self.corpus.keyword_table

    def keywords(self) -> np.ndarray:
        """Sorted distinct keywords present in this shard's slice.

        These are the shard's *partition bounds* for query routing: a
        query with no keyword in this set cannot produce a positive match
        count here, so the planner's shard-pruning rule may skip the
        shard without changing results (see
        :func:`repro.plan.planner.route_queries`).
        """
        return self._keyword_tables()[0]

    def posting_counts(self) -> np.ndarray:
        """Posting-list length per :meth:`keywords` entry, aligned.

        The cost model's per-shard work features: a query's postings
        touched in this shard is the sum of counts over its keywords
        present here.
        """
        return self._keyword_tables()[1]


class ShardPlan:
    """A disjoint partition of a corpus over ``n_shards`` shards.

    Build with :meth:`build` (or the strategy-specific constructors); do
    not construct directly unless the slices are known to partition the
    global id space.

    Attributes:
        strategy: ``"range"`` or ``"hash"``.
        n_objects: Global corpus size the plan covers.
        shards: One :class:`ShardSlice` per shard, in position order.
    """

    def __init__(self, shards: list[ShardSlice], strategy: str, n_objects: int):
        self.shards = list(shards)
        self.strategy = strategy
        self.n_objects = int(n_objects)

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
            return cls.build_ranges(corpus, np.linspace(0, len(corpus), n_shards + 1).astype(np.int64))
        shard_of = _hash_ids(np.arange(len(corpus), dtype=ID_DTYPE), seed) % np.uint64(n_shards)
        assignments = [np.nonzero(shard_of == np.uint64(s))[0].astype(ID_DTYPE) for s in range(n_shards)]
        return cls._cut(corpus, assignments, strategy)

    @classmethod
    def _cut(cls, corpus: Corpus, assignments: list[np.ndarray], strategy: str) -> "ShardPlan":
        """One slice per global-id array: rows move by ``take``, nothing is re-derived."""
        shards = [
            ShardSlice(position=s, corpus=corpus.take(global_ids), global_ids=global_ids)
            for s, global_ids in enumerate(assignments)
        ]
        return cls(shards, strategy, len(corpus))

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
            corpus, [np.arange(lo, hi, dtype=ID_DTYPE) for lo, hi in zip(bounds, bounds[1:])], "range"
        )

    # ------------------------------------------------------------------
    # introspection

    def range_bounds(self) -> list[int] | None:
        """The cut points of a contiguous range partition, else ``None``.

        A valid result ``b`` satisfies ``shard s == [b[s], b[s+1])``;
        hash plans (and any non-contiguous layout) return ``None``.
        """
        bounds = [0]
        for shard in self.shards:
            ids = shard.global_ids
            if ids.size and (
                int(ids[0]) != bounds[-1]
                or not np.array_equal(
                    ids, np.arange(ids[0], ids[0] + ids.size, dtype=ID_DTYPE)
                )
            ):
                return None
            bounds.append(bounds[-1] + int(ids.size))
        if bounds[-1] != self.n_objects:
            return None
        return bounds

    def reassemble(self) -> Corpus:
        """The global corpus, rebuilt from the shard slices.

        Exact inverse of construction: object ``g`` comes from whichever
        shard holds global id ``g``. Lets the rebalancer recut a fitted
        plan without the caller keeping the original corpus alive.
        """
        self.validate()
        return Corpus.by_global_id(
            [(shard.corpus, shard.global_ids) for shard in self.shards], self.n_objects
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
