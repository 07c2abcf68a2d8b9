"""Rolling per-device busy-seconds, the replica-selection signal.

Replica choice is least-loaded-first: before each shard scan the
executor orders a shard's replica group by how many simulated seconds
each replica's device spent scanning over a recent window. The window
is bounded (a deque per device) so a long-lived server tracks *current* load, not lifetime
totals — a device that was hot an hour ago and idle since should not
repel traffic forever.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

#: Default number of per-device samples the rolling window keeps.
DEFAULT_WINDOW = 128


class DeviceLoadTracker:
    """Rolling busy-seconds per pool device over the last N samples."""

    def __init__(self, window: int = DEFAULT_WINDOW):
        if window <= 0:
            raise ConfigError(f"load window must be positive, got {window}")
        self.window = int(window)
        self._samples: dict[int, deque] = {}

    def record(self, device: int, seconds: float) -> None:
        """Record one scan's simulated seconds against ``device``."""
        if device < 0:
            return
        if seconds < 0:
            raise ConfigError(f"negative busy seconds: {seconds}")
        bucket = self._samples.get(device)
        if bucket is None:
            bucket = deque(maxlen=self.window)
            self._samples[device] = bucket
        bucket.append(float(seconds))

    def load(self, device: int) -> float:
        """Windowed busy seconds for ``device`` (0.0 if never sampled)."""
        bucket = self._samples.get(device)
        if not bucket:
            return 0.0
        return sum(bucket)

    def snapshot(self) -> dict:
        """Windowed busy seconds for every sampled device, keyed by position."""
        return {device: self.load(device) for device in sorted(self._samples)}

    def reset(self) -> None:
        """Drop all samples (e.g. after a rebalance changes shard shapes)."""
        self._samples.clear()
