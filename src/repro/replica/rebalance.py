"""Self-healing rebalance: load-weighted range cuts and the policy loop.

The motivating workload is the 1.65 range-partition imbalance on sorted
Adult (``benchmarks/results/shard_scaling.txt``): contiguous ranges of a
sorted corpus concentrate the hot age bands on one shard. Hash
partitioning fixes the skew but gives up keyword-bounds routing (every
query broadcasts). The rebalancer keeps the range layout — and therefore
pruned routing — and instead moves the *cut points*: each shard's
observed busy seconds are spread over its objects as a load density, and
new bounds are chosen so every shard carries a near-equal share.

:func:`balanced_range_bounds` is the pure math; the serve layer drives
it through :class:`RebalancePolicy`, which watches the rolling
``shard_imbalance`` (:attr:`ServeMetrics.rolling_shard_imbalance
<repro.serve.metrics.ServeMetrics.rolling_shard_imbalance>`) and fires
:meth:`IndexHandle.rebalance
<repro.api.session.IndexHandle.rebalance>` once the window
is full, the threshold is crossed, and the cooldown has elapsed.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.core.engine import count_option, integer_option
from repro.errors import ConfigError

#: Fraction of the mean shard weight used to floor cold shards' weights,
#: so a never-scanned shard still claims a nonzero share of objects.
MIN_WEIGHT_FRACTION = 0.05


def balanced_range_bounds(
    sizes,
    weights,
    min_weight_fraction: float = MIN_WEIGHT_FRACTION,
) -> list[int] | None:
    """Range cut points that equalize observed per-shard load.

    Args:
        sizes: Objects per shard of the *current* contiguous range
            partition, in position order.
        weights: Observed load per shard (same order, >= 0) — e.g.
            rolling busy seconds. Shard ``s``'s weight is spread
            uniformly over its ``sizes[s]`` objects.
        min_weight_fraction: Cold shards are floored at this fraction of
            the mean weight, so zero-traffic ranges still get objects.

    Returns:
        ``n_shards + 1`` bounds (``bounds[0] == 0``,
        ``bounds[-1] == sum(sizes)``, each shard >= 1 object), or
        ``None`` when no meaningful cut exists (all-zero weights, fewer
        objects than shards).

    Raises:
        ConfigError: Mismatched lengths or negative inputs.
    """
    sizes = [int(s) for s in sizes]
    weights = [float(w) for w in weights]
    if len(sizes) != len(weights):
        raise ConfigError(
            f"sizes/weights length mismatch: {len(sizes)} vs {len(weights)}"
        )
    if any(s < 0 for s in sizes) or any(w < 0 for w in weights):
        raise ConfigError("sizes and weights must be non-negative")
    n_shards = len(sizes)
    n_objects = sum(sizes)
    if n_shards < 2 or n_objects < n_shards:
        return None
    if sum(weights) <= 0:
        return None
    floor = min_weight_fraction * (sum(weights) / n_shards)
    densities = [
        (max(w, floor) / s if s else 0.0) for s, w in zip(sizes, weights)
    ]
    per_object = np.concatenate(
        [np.full(s, d, dtype=np.float64) for s, d in zip(sizes, densities) if s]
    )
    cum = np.cumsum(per_object)
    total = float(cum[-1])
    if total <= 0:
        return None
    targets = total * np.arange(1, n_shards, dtype=np.float64) / n_shards
    # The cumsum accumulates float error over n_objects additions; a
    # relative slack keeps an exactly-uniform density cutting exactly
    # evenly instead of drifting one object past each target.
    cuts = np.searchsorted(cum, targets - 1e-9 * total, side="left") + 1
    bounds = [0]
    for i, cut in enumerate(cuts):
        # Keep bounds strictly increasing with room for the remaining
        # shards, so every shard ends up with at least one object.
        lo = bounds[-1] + 1
        hi = n_objects - (n_shards - 1 - i)
        bounds.append(int(min(max(int(cut), lo), hi)))
    bounds.append(n_objects)
    return bounds


class RebalancePolicy:
    """When to rebalance: rolling imbalance past a threshold, with hysteresis.

    Consulted by :class:`~repro.serve.server.GenieServer` after each
    dispatched sharded batch. Three gates keep it from thrashing:

    * **warmup** — at least ``min_window`` batches must be in the rolling
      window before the imbalance estimate is trusted;
    * **threshold** — the rolling ``max/mean`` shard imbalance must
      exceed ``threshold`` (1.0 = perfectly balanced);
    * **cooldown** — at least ``cooldown`` sharded batches must pass
      after a rebalance before the next one may fire (the window refills
      with post-move observations in between).
    """

    def __init__(
        self,
        threshold: float = 1.25,
        min_window: int = 16,
        cooldown: int = 32,
    ):
        if not (isinstance(threshold, numbers.Real) and threshold >= 1.0):
            raise ConfigError(f"rebalance threshold must be >= 1, got {threshold!r}")
        self.threshold = float(threshold)
        self.min_window = count_option(min_window, "min_window", ConfigError)
        self.cooldown = integer_option(cooldown, "cooldown", ConfigError)
        if self.cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0, got {cooldown}")
        self._last_fire: int | None = None

    def should_rebalance(self, metrics) -> bool:
        """Whether a rebalance should fire given current serve metrics."""
        if metrics.rolling_window_batches < self.min_window:
            return False
        if self._last_fire is not None:
            if metrics.sharded_batches.value - self._last_fire < self.cooldown:
                return False
        return metrics.rolling_shard_imbalance > self.threshold

    def note_fired(self, metrics) -> None:
        """Record that a rebalance fired (starts the cooldown)."""
        self._last_fire = metrics.sharded_batches.value
