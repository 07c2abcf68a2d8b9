"""GPU-SPQ: full-scan match-count + bucket k-selection (Section VI-A2).

The paper's strawman GPU competitor: compute match-count values between the
queries and *all* points by scanning the whole dataset into a per-query
count array, then extract the top-k with the SPQ bucket selection of
Appendix A. Two costs separate it from GENIE: every query pays a full
dataset scan, and selection is a multi-pass algorithm over ``n`` counts.
Its per-query memory (full Count Table + selection workspace) also caps the
batch size well below GENIE's.
"""

from __future__ import annotations

import numpy as np

from repro.core.count_table import count_table_batch_bytes
from repro.core.inverted_index import InvertedIndex
from repro.core.reference import match_counts
from repro.core.spq_select import spq_topk
from repro.core.types import Corpus, Query, TopKResult
from repro.errors import QueryError
from repro.gpu.device import Device
from repro.gpu.kernel import KernelLaunch, uniform_launch
from repro.gpu.stats import StageTimings, timings_delta

#: Objects assigned to one block of the full-scan kernel.
_OBJECTS_PER_BLOCK = 4096


class GpuSpq:
    """Full-scan GPU baseline with SPQ top-k selection.

    Args:
        device: Simulated GPU (shared with other systems under test).
        threads_per_block: Scan-kernel launch configuration.
    """

    def __init__(self, device: Device | None = None, threads_per_block: int = 256):
        self.device = device if device is not None else Device()
        self.threads_per_block = int(threads_per_block)
        self.corpus: Corpus | None = None
        self._index: InvertedIndex | None = None
        self._data_darray = None
        self.last_profile: StageTimings | None = None

    def fit(self, corpus: Corpus) -> "GpuSpq":
        """Load the raw dataset (signatures/keywords) into device memory."""
        if not isinstance(corpus, Corpus):
            corpus = Corpus(corpus)
        self.corpus = corpus
        # The functional counts reuse an inverted index (identical results);
        # the *charged* cost below is the full scan the real system performs.
        self._index = InvertedIndex.build(corpus)
        if self._data_darray is not None and self._data_darray.is_live:
            self._data_darray.free()
        self._data_darray = self.device.to_device(
            corpus.keywords.astype(np.int32), label="gpu_spq_data", stage="index_transfer"
        )
        return self

    def query(self, queries: list[Query], k: int) -> list[TopKResult]:
        """Scan-everything search; raises on unfitted state or OOM batches."""
        if self.corpus is None or self._index is None:
            raise QueryError("GpuSpq must be fitted before querying")
        queries = list(queries)
        if not queries:
            raise QueryError("empty query batch")

        before = self.device.timings.copy()
        batch_bytes = count_table_batch_bytes(len(self.corpus), len(queries))
        batch_alloc = self.device.memory.alloc(batch_bytes, label="spq_count_tables")
        try:
            results = self._run(queries, k)
        finally:
            self.device.memory.release(batch_alloc)
        self.last_profile = timings_delta(before, self.device.timings)
        return results

    def _run(self, queries: list[Query], k: int) -> list[TopKResult]:
        total_entries = self.corpus.total_entries
        results = []
        scan_items = 0
        select_scanned = 0
        for query in queries:
            result, trace = spq_topk(match_counts(self._index, query), k)
            results.append(result)
            scan_items += total_entries  # every query scans the whole dataset
            select_scanned += trace.elements_scanned

        scan_launch = uniform_launch(
            "spq_full_scan",
            scan_items,
            _OBJECTS_PER_BLOCK,
            threads_per_block=self.threads_per_block,
            cycles_per_item=2.0,
            bytes_read=float(scan_items) * 4.0,
            bytes_written=float(len(queries) * len(self.corpus)) * 4.0,
            atomic_ops=float(scan_items),
        )
        self.device.launch(scan_launch, stage="match")

        select_launch = KernelLaunch(
            name="spq_select",
            block_items=np.asarray([max(select_scanned // max(len(queries), 1), 1)] * len(queries)),
            threads_per_block=self.threads_per_block,
            cycles_per_item=3.0,
            bytes_read=float(select_scanned) * 8.0,
            bytes_written=float(select_scanned) * 8.0,
            atomic_ops=float(select_scanned),
        )
        self.device.launch(select_launch, stage="select")
        return results

