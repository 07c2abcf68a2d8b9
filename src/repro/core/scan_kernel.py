"""The GENIE match and selection kernels as launches (Section III-B).

One thread block scans the postings lists matched by one query item (with
load balancing, one block per couple of sublists); each thread takes one
postings entry and atomically bumps the object's counter. The functional
result of that scan is computed by
:func:`repro.core.batch_scan.plan_batch_scan`; this module assembles its
*cost* — coalesced list reads, atomic contention on hot counters, Gate branch
divergence, Hash-Table writes — into a :class:`~repro.gpu.kernel.KernelLaunch`
from that one :class:`~repro.core.batch_scan.BatchScanPlan` (which the
per-query specification, ``plan_batch`` in the repository's
``paper/reference/reference.py``, also builds): two sums over its per-query
arrays, and the atomic-conflict estimate in one expression over
``count_hist``, the histogram of where the batch's counters ended. The GEN-SPQ baseline's plain Count-Table scan is this launch
without the Gate and the Hash-Table writes (``paper/baselines/gen_spq.py``).
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_scan import BatchScanPlan
from repro.gpu.atomics import conflicts_from_histogram
from repro.gpu.kernel import KernelLaunch
from repro.gpu.specs import DeviceSpec
from repro.gpu.warp import divergence_events

#: Bytes per postings entry as stored on the real device (32-bit object id).
POSTING_ENTRY_BYTES = 4

#: Bytes moved per Hash-Table insert (key + value + age, scattered).
HT_INSERT_BYTES = 16

#: Fraction of histogram-estimated atomic conflicts assumed temporally
#: coincident (counter hits are spread across the kernel's lifetime).
CONTENTION_DILUTION = 16.0


def build_match_launch(
    scan: BatchScanPlan,
    spec: DeviceSpec,
    threads_per_block: int,
) -> KernelLaunch:
    """Assemble the batch's match kernel from its scan plan.

    Args:
        scan: The batch's work layout and count statistics.
        spec: Target device (for warp-size-dependent estimates).
        threads_per_block: Launch configuration.

    Returns:
        A single :class:`KernelLaunch` covering all queries' blocks — the
        fine-grained "m*s blocks in parallel" structure of the paper.
    """
    total_updates = float(scan.updates.sum())
    gate_passes = float(scan.gate_passes.sum())
    # An object's counter hits come from different blocks at different times;
    # only a fraction of the histogram conflicts are temporally coincident.
    # count_hist[v] counters took v hits each.
    atomic_conflicts = (
        conflicts_from_histogram(np.arange(scan.count_hist.size), spec.warp_size, scan.count_hist)
        / CONTENTION_DILUTION
    )

    # Per update: list read + BC atomic increment + Gate check. Atomics
    # execute inside the block's own timeline, so their base cost is folded
    # into the per-item cycles; only ZA/HT promotions (rare) are charged as
    # standalone contended atomics.
    taken = gate_passes / total_updates if total_updates else 0.0
    return KernelLaunch(
        name="genie_match",
        block_items=scan.block_sizes,
        threads_per_block=threads_per_block,
        cycles_per_item=6.0,
        bytes_read=float(scan.block_sizes.sum()) * POSTING_ENTRY_BYTES,
        bytes_written=0.0,
        uncoalesced_bytes=gate_passes * HT_INSERT_BYTES,
        atomic_ops=2.0 * gate_passes,
        atomic_conflicts=atomic_conflicts,
        divergent_warps=divergence_events(int(total_updates), taken, spec.warp_size),
    )


def build_select_launch(
    n_queries: int,
    ht_capacity: int,
    k: int,
    threads_per_block: int,
) -> KernelLaunch:
    """The c-PQ selection kernel: one scan of each query's Hash Table.

    Each query contributes one block that reads its table once and keeps
    entries above ``AT - 1`` — the small, homogeneous selection step that
    replaces sorting (Theorem 3.1).
    """
    block_sizes = np.full(n_queries, int(ht_capacity), dtype=np.int64)
    return KernelLaunch(
        name="cpq_select",
        block_items=block_sizes,
        threads_per_block=threads_per_block,
        cycles_per_item=2.0,
        bytes_read=float(block_sizes.sum()) * HT_INSERT_BYTES,
        bytes_written=float(n_queries) * k * 8.0,
    )
