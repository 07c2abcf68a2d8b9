"""Atomic-operation cost model.

GENIE's match kernel increments per-object counters with ``atomicAdd``.
The dominant cost driver is *address contention*: when many lanes of a warp
hit the same counter, hardware serializes the updates. The helpers here
estimate that serialization from aggregate counts, so vectorized kernels can
charge a faithful cost without simulating each thread.
"""

from __future__ import annotations

import numpy as np


def conflict_count(n_ops: int, n_targets: int, warp_size: int) -> float:
    """Expected serialized retries for ``n_ops`` atomics over ``n_targets``.

    Under a uniform-target approximation, a warp of ``w`` lanes issuing
    atomics to ``t`` distinct addresses sees about ``w / min(w, t)`` rounds
    of serialization; every round beyond the first is a conflict retry for
    each of its participants.

    Args:
        n_ops: Total atomic operations issued.
        n_targets: Distinct addresses receiving them (>= 1).
        warp_size: Lanes per warp.

    Returns:
        Expected number of serialized retries (0 when targets are plentiful).
    """
    if n_ops <= 0:
        return 0.0
    n_targets = max(1, int(n_targets))
    lanes_per_target = warp_size / min(warp_size, n_targets)
    extra_rounds = lanes_per_target - 1.0
    return float(n_ops) * extra_rounds / warp_size * min(warp_size, lanes_per_target)


def conflicts_from_histogram(
    hits_per_target: np.ndarray, warp_size: int, targets: np.ndarray | float = 1
) -> float:
    """Conflict estimate from an exact per-target hit histogram.

    Args:
        hits_per_target: Number of atomic hits each address received.
        warp_size: Lanes per warp.
        targets: How many addresses share each entry's hit count (aligned
            with ``hits_per_target``), for a histogram binned by hit count.

    Returns:
        Expected serialized retries. Each address with ``h`` hits contributes
        roughly ``h * (min(h, warp_size) - 1) / warp_size`` retries: its hits
        arrive spread over warps, and within a warp they serialize. Integer
        histograms are summed in integers and divided once, so the estimate
        does not depend on how the addresses are grouped.
    """
    hits = np.asarray(hits_per_target)
    return float(np.sum(targets * hits * (np.minimum(hits, warp_size) - 1))) / warp_size
