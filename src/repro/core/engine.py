"""The GENIE engine: batched top-k match-count search on the simulated GPU.

:class:`GenieEngine` ties the pieces together in the paper's pipeline order
(Fig. 3 / Table I):

1. ``fit`` — build the inverted index on the host, transfer it to device
   global memory,
2. ``query`` — per batch: transfer the queries, launch the match kernel
   (postings scan into c-PQ), launch the c-PQ selection step, and transfer
   results back.

A search is *computed*, then *charged*. The functional work of a batch has
one path: :func:`repro.core.batch_scan.plan_batch_scan` (a one-part
:func:`~repro.core.batch_scan.plan_scan_round`) resolves every query's
postings through the CSR position map, counts matches tile by tile
(``np.unique`` of fused keys where the postings stream is sparse; per-row
``bincount``, shared byte rows or bit planes where it is dense), and hands
back batch arrays (block sizes, update and Gate-pass totals, the count
histogram) plus every query's top-k. :meth:`GenieEngine.charge` then
allocates, transfers and launches what that scan lays out; the plan
executor calls it with the scans of its own round.
The per-query specification it is tested against, Algorithm-1 c-PQ run
included, lives outside the package in the repository's ``paper/reference``;
the GEN-SPQ ablation (plain Count Table + SPQ selection) is a baseline,
``paper/baselines/gen_spq.py``, built on that specification. The engine
builds none of the c-PQ structures: it prices them (the sizing helpers
:func:`bits_for_bound`, :func:`hash_table_capacity` and
:func:`per_query_device_bytes` below).

The engine is also the home of the memory accounting that reproduces
Table IV: per-batch structures are really allocated on the simulated
device, so an oversized batch raises
:class:`~repro.errors.GpuOutOfMemoryError` just as it would overflow a real
12 GB card.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.batch_scan import BatchScanPlan, plan_batch_scan
from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import LoadBalanceConfig
from repro.core.scan_kernel import build_match_launch, build_select_launch
from repro.core.types import Corpus, Query, QueryBatch, TopKBatch
from repro.errors import ConfigError, QueryError
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.gpu.stats import StageTimings, timings_delta

#: Modeled bytes per Hash-Table slot on the real device (4B key + 4B value).
_HT_SLOT_BYTES = 8

#: Hash-table slots per expected entry (headroom over the k*AT bound).
_HT_SLACK = 4

#: Bit widths a Bitmap-Counter counter may use; must divide the 32-bit word.
_ALLOWED_BITS = (1, 2, 4, 8, 16, 32)

#: Bytes per query keyword sent to the device (a 32-bit keyword id).
QUERY_KEYWORD_BYTES = 4

#: Result bytes per query entry sent back to the host (id + count).
RESULT_ENTRY_BYTES = 8


@dataclass(frozen=True)
class GenieConfig:
    """Engine configuration.

    Attributes:
        k: Default result size.
        bits: Bitmap-Counter width override (ablation knob).
        count_bound: Match-count upper bound; derived from each batch's
            queries when ``None``.
        load_balance: Postings-list splitting configuration, or ``None``.
        threads_per_block: Match-kernel launch configuration.
    """

    k: int = 100
    bits: int | None = None
    count_bound: int | None = None
    load_balance: LoadBalanceConfig | None = None
    threads_per_block: int = 256

    def with_(self, **changes) -> "GenieConfig":
        """A copy of this config with fields replaced.

        Raises:
            ConfigError: If a keyword does not name a config field.
        """
        unknown = [key for key in changes if key not in self.__dataclass_fields__]
        if unknown:
            raise ConfigError(
                f"unknown GenieConfig field(s): {', '.join(sorted(unknown))}; "
                f"valid fields: {', '.join(self.__dataclass_fields__)}"
            )
        return replace(self, **changes)


def integer_option(value, name: str, error: type = QueryError) -> int:
    """An integer option as an ``int``; integers and integral floats pass.

    Raises:
        error: Naming ``name``: a bool, NaN, ±inf, fractional or non-numeric value.
    """
    whole = isinstance(value, (int, np.integer)) or isinstance(value, (float, np.floating)) and float(value).is_integer()
    if isinstance(value, bool) or not whole:
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def count_option(value, name: str, error: type = QueryError) -> int:
    """A count option as an ``int`` >= 1 (see :func:`integer_option`).

    The one check behind ``k``, ``batch_size`` (per search: ``QueryError``)
    and constructor counts such as ``shards``, ``memory_budget`` or a
    cache's capacity (``ConfigError``), run before the value reaches any
    residency event or charge.

    Raises:
        error: Naming ``name``: not an integer, or < 1.
    """
    count = integer_option(value, name, error)
    if count < 1:
        raise error(f"{name} must be >= 1")
    return count


def listed(values, name: str) -> list:
    """``values`` as a list; a non-iterable such as ``None`` raises ``QueryError`` naming ``name``."""
    try:
        return list(values)
    except TypeError:
        raise QueryError(f"{name} must be iterable, got {type(values).__name__}") from None


def resolve_k(k, default: int) -> int:
    """``k`` (``default`` when ``None``) as an ``int`` (see :func:`count_option`)."""
    return count_option(default if k is None else k, "k")


def batch_count_bound(config: GenieConfig, queries: QueryBatch) -> int:
    """The match-count bound a batch's c-PQ structures are sized for.

    The configured bound when there is one, else the batch's largest
    per-query keyword count (no object can match more keywords than that).
    """
    if config.count_bound is not None:
        return max(1, int(config.count_bound))
    return max(1, int(queries.keywords_per_query.max(initial=1)))


def bits_for_bound(count_bound: int) -> int:
    """Smallest allowed Bitmap-Counter bit width whose max value reaches ``count_bound``.

    Args:
        count_bound: Largest count any object can attain (e.g. the number
            of hash functions for LSH data).

    Returns:
        A width from ``{1, 2, 4, 8, 16, 32}``.
    """
    if count_bound < 0:
        raise ConfigError("count bound must be non-negative")
    for bits in _ALLOWED_BITS:
        if (1 << bits) - 1 >= count_bound:
            return bits
    raise ConfigError(f"count bound {count_bound} exceeds 32-bit counters")


def hash_table_capacity(k: int, count_bound: int) -> int:
    """Slot count for the c-PQ hash table, ``O(k * count_bound)`` as in the paper."""
    return max(16, _HT_SLACK * k * max(1, count_bound))


def per_query_device_bytes(n_objects: int, k: int, count_bound: int, bits: int | None) -> int:
    """Device bytes one in-flight query occupies (Table IV's quantity).

    The bit-packed Bitmap Counter plus the ``O(k * count_bound)`` Hash
    Table and the ZipperArray.
    """
    width = bits if bits is not None else bits_for_bound(count_bound)
    bc_bytes = -(-n_objects * width // 8)  # ceil division
    ht_bytes = hash_table_capacity(k, count_bound) * _HT_SLOT_BYTES
    za_bytes = (count_bound + 2) * 4
    return bc_bytes + ht_bytes + za_bytes


class GenieEngine:
    """Batched GENIE similarity search on a simulated GPU.

    Args:
        device: Simulated GPU (a fresh default device when omitted).
        host: Simulated host CPU.
        config: Engine configuration.
    """

    def __init__(
        self,
        device: Device | None = None,
        host: HostCpu | None = None,
        config: GenieConfig | None = None,
    ):
        self.device = device if device is not None else Device()
        self.host = host if host is not None else HostCpu()
        self.config = config if config is not None else GenieConfig()
        self.index: InvertedIndex | None = None
        self.corpus: Corpus | None = None
        self._index_darray = None
        self.last_profile: StageTimings | None = None

    # ------------------------------------------------------------------
    # fitting

    def fit(self, corpus: Corpus) -> "GenieEngine":
        """Build the inverted index on the host and move it to the device."""
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        index = InvertedIndex.build(corpus, load_balance=self.config.load_balance)
        self.host.charge_ops(index.build_ops, stage="index_build")
        return self.attach_index(index, corpus)

    def attach_index(self, index: InvertedIndex, corpus: Corpus | None) -> "GenieEngine":
        """Adopt a pre-built index: transfer it to the device without rebuilding.

        The multi-loading path uses this to swap offline-built part indexes
        through device memory, paying only the ``index_transfer`` stage.
        """
        self.corpus = corpus
        self.index = index
        self.release()
        # The real List Array holds 32-bit ids; transfer that footprint.
        self._index_darray = self.device.to_device(index.list_array32, label="list_array", stage="index_transfer")
        return self

    def release(self) -> None:
        """Free the device-resident index (used by session residency)."""
        if self._index_darray is not None and self._index_darray.is_live:
            self._index_darray.free()
        self._index_darray = None

    @property
    def index_resident(self) -> bool:
        """Whether the attached index currently occupies device memory."""
        return self._index_darray is not None and self._index_darray.is_live

    # ------------------------------------------------------------------
    # sizing

    def per_query_bytes(self, count_bound: int | None = None, k: int | None = None) -> int:
        """Per-query device footprint under the current configuration."""
        if self.index is None:
            raise ConfigError("engine must be fitted first")
        bound = max(1, int(count_bound if count_bound is not None else (self.config.count_bound or 1)))
        return per_query_device_bytes(
            self.index.n_objects,
            int(k if k is not None else self.config.k),
            bound,
            self.config.bits,
        )

    def max_batch_size(self, count_bound: int, k: int | None = None) -> int:
        """Largest batch the device can hold next to the resident index."""
        return int(self.device.memory.free // max(1, self.per_query_bytes(count_bound, k)))

    # ------------------------------------------------------------------
    # querying

    def query(self, queries: QueryBatch | list[Query], k: int | None = None) -> TopKBatch:
        """Run a batch of queries; returns one :class:`TopKResult` per query.

        ``queries`` is a :class:`~repro.core.types.QueryBatch`; a list of
        :class:`~repro.core.types.Query` objects is converted on entry. The
        answer is one :class:`~repro.core.types.TopKBatch` — a read-only
        sequence that indexes, iterates and ``len`` s like a list of
        :class:`~repro.core.types.TopKResult` (each a view of the batch's
        flat ``ids`` / ``counts``).

        Raises:
            QueryError: If the engine is unfitted or the batch is empty.
            GpuOutOfMemoryError: If the batch's c-PQ structures do not fit
                in device memory.
        """
        if self.index is None:
            raise QueryError("engine must be fitted before querying")
        queries = QueryBatch.from_queries(queries)
        if len(queries) == 0:
            raise QueryError("empty query batch")
        k = resolve_k(k, self.config.k)
        return self.charge(queries, k, self._scan(queries, k))

    def _scan(self, queries: QueryBatch, k: int) -> BatchScanPlan:
        """The compute half of a search: the batch's scan."""
        return plan_batch_scan(self.index, queries, k)

    def charge(self, queries: QueryBatch, k: int, scan) -> TopKBatch:
        """Charge one batch whose ``scan`` is computed; returns its answers, ``last_profile`` their cost.

        Raises:
            GpuOutOfMemoryError: If the batch's c-PQ structures do not fit
                in device memory.
        """
        count_bound = batch_count_bound(self.config, queries)

        before = self.device.timings.copy()
        host_before = self.host.timings.copy()

        batch_bytes = len(queries) * self.per_query_bytes(count_bound, k)
        batch_alloc = self.device.memory.alloc(batch_bytes, label="query_batch_state")
        pcie = self.device.spec.pcie_bandwidth
        try:
            query_bytes = queries.keywords.size * QUERY_KEYWORD_BYTES
            self.device.charge_seconds(query_bytes / pcie, stage="query_transfer")
            results = self._match_and_select(queries, k, count_bound, scan)
            result_bytes = len(queries) * k * RESULT_ENTRY_BYTES
            self.device.charge_seconds(result_bytes / pcie, stage="select")
        finally:
            self.device.memory.release(batch_alloc)

        self.last_profile = timings_delta(before, self.device.timings)
        self.last_profile.merge(timings_delta(host_before, self.host.timings))
        return results

    def _match_and_select(self, queries: QueryBatch, k: int, count_bound: int, scan: BatchScanPlan) -> TopKBatch:
        """The batch's match and c-PQ select launches; returns its answers."""
        self.device.launch(
            build_match_launch(scan, self.device.spec, self.config.threads_per_block), stage="match"
        )
        select_launch = build_select_launch(
            len(queries), hash_table_capacity(k, count_bound), k, self.config.threads_per_block
        )
        self.device.launch(select_launch, stage="select")
        return scan.results

    def charge_batches(self, batches: list[QueryBatch], k: int, scans: list) -> TopKBatch:
        """Charge computed batches in order; ``last_profile`` accumulates over them.

        If a batch raises (e.g. :class:`~repro.errors.GpuOutOfMemoryError`),
        ``last_profile`` holds the profile of the batches that completed.
        """
        results: list[TopKBatch] = []
        profile = StageTimings()
        try:
            for batch, scan in zip(batches, scans):
                results.append(self.charge(batch, k, scan))
                profile.merge(self.last_profile)
        finally:
            self.last_profile = profile
        return TopKBatch.concat(results)


def device_batches(queries: QueryBatch, batch_size: int) -> list[QueryBatch]:
    """``queries`` cut into consecutive batches of ``batch_size`` (the last one shorter)."""
    n = len(queries)
    return [queries.take(np.arange(start, min(start + batch_size, n))) for start in range(0, n, batch_size)]
