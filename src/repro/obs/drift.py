"""Predicted-vs-observed cost drift tracking.

The planner prices every batch (``CompiledPlan.predicted_cost``, in
simulated seconds over the costed stages); the executor then observes
what those stages actually took. The gap between the two is the signal
the ROADMAP's "online recalibration from served stage profiles" item
needs: when the calibrated :class:`~repro.plan.cost.CostModel` goes
stale — new data distribution, regime shift, drifting shard balance —
relative error climbs *before* plan choices visibly degrade.

:class:`DriftTracker` keeps a rolling window of per-batch relative
errors ``|predicted - observed| / observed`` and reports nearest-rank
``p50``/``p90`` — surfaced by ``ServeMetrics.snapshot()`` as
``cost_drift_p50`` / ``cost_drift_p90``.
"""

from __future__ import annotations

from collections import deque

from repro.core.engine import count_option
from repro.errors import ConfigError
from repro.obs.registry import percentile_nearest_rank


class DriftTracker:
    """Rolling relative error between predicted and observed batch cost.

    Args:
        window: Batches retained; old errors age out so the gauge tracks
            the *current* model fit, not the lifetime average.
    """

    def __init__(self, window: int = 256):
        self.errors: deque = deque(maxlen=count_option(window, "drift window", ConfigError))
        self.samples = 0
        self.skipped = 0

    def record(self, predicted: float, observed: float) -> None:
        """File one batch's predicted vs observed costed seconds.

        Non-positive observations carry no drift information (nothing
        ran on the costed stages) and are counted as skipped instead of
        polluting the window with infinities.
        """
        if observed is None or predicted is None or observed <= 0.0:
            self.skipped += 1
            return
        self.errors.append(abs(float(predicted) - float(observed)) / float(observed))
        self.samples += 1

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the windowed relative errors."""
        return percentile_nearest_rank(list(self.errors), p)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        return self.percentile(90.0)

    def __len__(self) -> int:
        return len(self.errors)

    def __repr__(self) -> str:
        return f"DriftTracker(window={self.errors.maxlen}, samples={self.samples})"
