"""repro.obs — observability for the simulated serving stack.

Two pieces, both deterministic because the whole system runs on
simulated time:

* :mod:`repro.obs.trace` — per-request span trees on the virtual
  clock, 1-in-N sampling, Chrome trace-event export (Perfetto).
* :mod:`repro.obs.registry` — typed ``Counter``/``Gauge``/``Histogram``
  primitives and the registry ``ServeMetrics`` is built on.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile_nearest_rank,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "percentile_nearest_rank",
]
