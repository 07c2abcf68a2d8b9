"""Warp-level cost helpers: block timing, coalescing, branch divergence.

These small functions translate "what a kernel did" into cycle counts.
GENIE's design arguments (Section III-E of the paper) are exactly about
these effects: postings-list scans are coalesced and uniform, while
priority-queue style competitors suffer scattered access and divergence.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError
from repro.gpu.specs import CostModel, DeviceSpec


def block_cycles(
    n_items: int,
    cycles_per_item: float,
    threads_per_block: int,
    spec: DeviceSpec,
) -> float:
    """Compute cycles for one block processing ``n_items`` uniform items.

    A block of T threads runs on one SM, which retires at most
    ``cores_per_sm`` lanes per cycle; items beyond the active lane count are
    processed in additional passes.

    Args:
        n_items: Work items (e.g. postings entries) assigned to the block.
        cycles_per_item: Cost of processing one item on one lane.
        threads_per_block: Threads the block was launched with.
        spec: Device the block runs on.

    Returns:
        Estimated cycles for the block (0 for empty blocks).
    """
    if n_items <= 0:
        return 0.0
    lanes = min(threads_per_block, spec.cores_per_sm)
    if lanes <= 0:
        raise ConfigError("threads_per_block must be positive")
    passes = math.ceil(n_items / lanes)
    return passes * cycles_per_item


def coalesced_transactions(n_words: int, costs: CostModel, word_bytes: int = 4) -> float:
    """Memory transactions for a contiguous (coalesced) access pattern."""
    return costs.transactions(n_words * word_bytes, coalesced=True)


def scattered_transactions(n_words: int, costs: CostModel, word_bytes: int = 4) -> float:
    """Memory transactions for a fully scattered access pattern."""
    return costs.transactions(n_words * word_bytes, coalesced=False)


def divergence_events(n_threads: int, taken_fraction: float, warp_size: int) -> float:
    """Expected warp-serialization events for a data-dependent branch.

    A warp serializes when some but not all of its lanes take a branch.
    With lanes taking the branch independently with probability ``p``, a
    warp of ``w`` lanes diverges with probability ``1 - p**w - (1-p)**w``.

    Args:
        n_threads: Threads evaluating the branch.
        taken_fraction: Probability that a single lane takes the branch.
        warp_size: Lanes per warp.

    Returns:
        Expected number of divergent warps (possibly fractional).
    """
    p = min(max(float(taken_fraction), 0.0), 1.0)
    if n_threads <= 0:
        return 0.0
    n_warps = math.ceil(n_threads / warp_size)
    p_diverge = 1.0 - p**warp_size - (1.0 - p) ** warp_size
    return n_warps * p_diverge
