"""Typed metric primitives and the registry that snapshots them.

The serving layer accumulated its counters as ad-hoc instance
attributes (``self.cache_hits += 1``); this module gives every
instrumented subsystem the same three typed primitives instead:

* :class:`Counter` — a monotone total (requests admitted, plans
  evicted). Floats are allowed so simulated-seconds totals count too.
* :class:`Gauge` — a point-in-time value, latest write wins (queue
  depth, delta-posting pressure).
* :class:`Histogram` — per-value counts with **bounded cardinality**:
  exact while the number of distinct observed values stays under the
  limit, and clamping new values onto the nearest existing bin beyond
  it, so an adversarial long-running workload (one new batch size per
  request, say) cannot grow the dict without bound. The exact running
  ``sum``/``count`` are kept separately, so means stay exact even after
  clamping.

A :class:`MetricsRegistry` names the metrics of one subsystem and
renders them as one flat deterministic dict — the same contract
:meth:`ServeMetrics.snapshot <repro.serve.metrics.ServeMetrics.snapshot>`
(now built on these primitives) has always exported.

Everything here is driven by the virtual clock's deterministic world:
no wall time, no background threads, snapshot equality across repeated
seeded runs is the test contract.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import count_option
from repro.errors import ConfigError


def percentile_nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile ``p`` of ``values``.

    Returns ``0.0`` for an empty population (a server that has completed
    nothing has no latency yet).

    Raises:
        ConfigError: Unless ``0 < p <= 100`` — ``p <= 0`` would silently
            underflow to the minimum and ``p > 100`` would index past the
            end of the population.
    """
    p = float(p)
    if not 0.0 < p <= 100.0:
        raise ConfigError(f"percentile must be in (0, 100], got {p}")
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    # ceil of a positive fraction of a positive size is in [1, size].
    rank = int(np.ceil(p / 100.0 * ordered.size))
    return float(ordered[rank - 1])


class Counter:
    """A monotone running total (ints or simulated seconds).

    Attributes:
        name: Registry name (also the snapshot key).
        value: Current total; accumulate with :meth:`inc`.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n=1):
        """Add ``n`` to the total; returns the new value."""
        self.value += n
        return self.value

    def snapshot_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value; the latest :meth:`set` wins."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial=0):
        self.name = name
        self.value = initial

    def set(self, value):
        """Record the current value; returns it."""
        self.value = value
        return value

    def snapshot_value(self):
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Per-value counts with bounded distinct-value cardinality.

    While the number of distinct observed values stays within
    ``max_bins`` the histogram is exact — byte-identical to the plain
    ``{value: count}`` dict it replaces. Once the limit is reached, a
    *new* distinct value is clamped onto the nearest existing bin
    (ties toward the lower bin), deterministically, so memory stays
    bounded no matter how adversarial the value stream is. The running
    ``total``/``count`` accumulate the *raw* observations, so derived
    means never drift from the clamping.

    Args:
        name: Registry name.
        max_bins: Distinct values retained exactly (>= 1).
    """

    __slots__ = ("name", "max_bins", "bins", "total", "count", "clamped")

    def __init__(self, name: str, max_bins: int = 128):
        self.name = name
        self.max_bins = count_option(max_bins, "histogram max_bins", ConfigError)
        self.bins: dict = {}
        self.total = 0.0
        self.count = 0
        self.clamped = 0

    def observe(self, value, n: int = 1) -> None:
        """Count ``n`` observations of ``value`` (clamping beyond the bound)."""
        self.total += value * n
        self.count += int(n)
        if value not in self.bins and len(self.bins) >= self.max_bins:
            value = min(self.bins, key=lambda bin_: (abs(bin_ - value), bin_))
            self.clamped += int(n)
        self.bins[value] = self.bins.get(value, 0) + int(n)

    @property
    def mean(self) -> float:
        """Exact mean of the raw observations (clamping never moves it)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """``{value: count}`` in ascending value order (snapshot form)."""
        return dict(sorted(self.bins.items()))

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the (possibly clamped) bins."""
        p = float(p)
        if not 0.0 < p <= 100.0:
            raise ConfigError(f"percentile must be in (0, 100], got {p}")
        if not self.count:
            return 0.0
        rank = int(np.ceil(p / 100.0 * self.count))
        seen = 0
        for value, count in sorted(self.bins.items()):
            seen += count
            if seen >= rank:
                return float(value)
        return float(max(self.bins))

    def __len__(self) -> int:
        return len(self.bins)

    def snapshot_value(self):
        return self.as_dict()

    def __repr__(self) -> str:
        return f"Histogram({self.name}, bins={len(self.bins)}/{self.max_bins})"


class MetricsRegistry:
    """Named metrics of one subsystem, snapshotted as a flat dict.

    Names are unique per registry (double registration is a
    :class:`~repro.errors.ConfigError` — two owners silently sharing a
    counter is how metrics lie). Iteration and :meth:`snapshot` follow
    registration order, so the rendered dict is deterministic.
    """

    def __init__(self):
        self._metrics: dict = {}

    def counter(self, name: str) -> Counter:
        """Create and register a :class:`Counter`."""
        return self._register(Counter(name))

    def gauge(self, name: str, initial=0) -> Gauge:
        """Create and register a :class:`Gauge`."""
        return self._register(Gauge(name, initial))

    def histogram(self, name: str, max_bins: int = 128) -> Histogram:
        """Create and register a bounded :class:`Histogram`."""
        return self._register(Histogram(name, max_bins=max_bins))

    def _register(self, metric):
        if metric.name in self._metrics:
            raise ConfigError(f"metric {metric.name!r} is already registered")
        self._metrics[metric.name] = metric
        return metric

    def get(self, name: str):
        """The registered metric named ``name`` (KeyError when absent)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """``{name: value}`` for every metric, in registration order."""
        return {name: metric.snapshot_value() for name, metric in self._metrics.items()}
