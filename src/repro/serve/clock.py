"""The virtual clock driving the serving subsystem.

Everything in ``repro.serve`` is timed in *simulated seconds* on an
injectable monotonic clock, never wall time: arrivals are stamped with
``clock.now()``, batching deadlines and completions are computed from
simulated service profiles, and the clock only moves when a driver
advances it. Repeated runs of the same seeded workload therefore produce
bit-identical latency percentiles — in CI as on any laptop.
"""

from __future__ import annotations

import math

from repro.errors import ConfigError


class VirtualClock:
    """A monotonic simulated clock (seconds as floats).

    Args:
        start: Initial time.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move forward by ``seconds`` (must be non-negative); returns now."""
        seconds = float(seconds)
        if not seconds >= 0:  # NaN too: a NaN clock never reaches a deadline
            raise ConfigError(f"cannot advance the clock by {seconds} s")
        self._now += seconds
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to ``t``; times in the past are a no-op (monotonic)."""
        if math.isnan(t):
            raise ConfigError("cannot advance the clock to NaN")
        if t > self._now:
            self._now = float(t)
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.6g})"
