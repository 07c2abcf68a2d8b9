"""Kernel-launch description for the simulated device.

A kernel launch is summarized as a :class:`KernelLaunch`: per-block work-item
counts plus aggregate traffic and contention counters. The device turns this
into simulated time. Kernels in this package compute their *functional*
results with numpy on the host and describe the *cost* of the equivalent GPU
execution through this record — the "functional simulation, analytic timing"
split described in README.md ("GENIE reproduction").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class KernelLaunch:
    """Cost description of one kernel launch.

    Attributes:
        name: Kernel name, for profiling output.
        block_items: Work items processed by each block (one entry per
            block). Lists of different length model imbalanced blocks, which
            is what GENIE's load-balancing addresses.
        threads_per_block: Launch configuration.
        cycles_per_item: Compute cycles per work item per lane.
        bytes_read: Coalesced global-memory bytes read.
        bytes_written: Coalesced global-memory bytes written.
        uncoalesced_bytes: Scattered traffic (charged one transaction/word).
        atomic_ops: Atomic read-modify-writes issued.
        atomic_conflicts: Serialized retries from address contention.
        divergent_warps: Warp-serialization events from branch divergence.
        fixed_cycles_per_block: Setup cycles charged to every block.
    """

    name: str
    block_items: np.ndarray
    threads_per_block: int = 256
    cycles_per_item: float = 1.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    uncoalesced_bytes: float = 0.0
    atomic_ops: float = 0.0
    atomic_conflicts: float = 0.0
    divergent_warps: float = 0.0
    fixed_cycles_per_block: float = 32.0

    def __post_init__(self):
        self.block_items = np.asarray(self.block_items, dtype=np.int64)
        if self.block_items.ndim != 1:
            raise ConfigError("block_items must be one-dimensional")
        if self.threads_per_block <= 0:
            raise ConfigError("threads_per_block must be positive")

    @property
    def num_blocks(self) -> int:
        """Blocks in the launch grid."""
        return int(self.block_items.size)

    @property
    def total_items(self) -> int:
        """Total work items across all blocks."""
        return int(self.block_items.sum())


def uniform_launch(name: str, total_items: int, items_per_block: int, **kwargs) -> KernelLaunch:
    """Build a launch that spreads ``total_items`` over equal-sized blocks.

    Args:
        name: Kernel name.
        total_items: Total work items.
        items_per_block: Items handled by each block; the last block takes
            the remainder.
        **kwargs: Forwarded to :class:`KernelLaunch`.

    Returns:
        A :class:`KernelLaunch` with evenly split ``block_items``.
    """
    total_items = int(total_items)
    items_per_block = max(1, int(items_per_block))
    if total_items <= 0:
        return KernelLaunch(name=name, block_items=np.zeros(1, dtype=np.int64), **kwargs)
    n_full, rem = divmod(total_items, items_per_block)
    sizes = [items_per_block] * n_full
    if rem:
        sizes.append(rem)
    return KernelLaunch(name=name, block_items=np.asarray(sizes), **kwargs)
