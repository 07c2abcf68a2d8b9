"""Deterministic request tracing on the virtual clock.

A :class:`Span` is one named interval of simulated time; spans nest
into a tree that follows a request from admission through queueing,
plan compilation, per-shard scans, delta scans, merge, and finalize.
Because every duration comes from the simulated device/host models and
every timestamp from the server's
:class:`~repro.serve.clock.VirtualClock`, the same seeded workload
produces **bit-identical traces** — they can be snapshot-tested in CI,
which real (wall-clock) tracers never can.

The :class:`Tracer` owns sampling policy (trace 1 in ``sample_every``
requests, decided deterministically from the request sequence number so
replays agree), retains a bounded window of finished traces, and
exports them as Chrome trace-event JSON (``export_chrome_trace``)
loadable in ``chrome://tracing`` or https://ui.perfetto.dev.

Span construction is skipped entirely for unsampled requests — the
hot path pays a single modulo, not an allocation.
"""

from __future__ import annotations

import json
from collections import deque

from repro.core.engine import count_option
from repro.errors import ConfigError

_MICROS = 1e6  # Chrome trace events count microseconds.


class Span:
    """One named interval of simulated seconds, with nested children.

    Start times are absolute simulated seconds once a trace is anchored
    to the server clock; inside the executor they are relative to the
    search's own zero and shifted into place afterwards
    (:meth:`shift`).

    Attributes:
        name: Stage name (``"admit"``, ``"shard_scan"``, ...).
        start: Start time in simulated seconds.
        duration: Length in simulated seconds.
        attrs: Small dict of stage facts (shard id, cache_hit, costs).
        children: Nested spans, in creation order.
    """

    __slots__ = ("name", "start", "duration", "attrs", "children")

    def __init__(self, name: str, start: float = 0.0, duration: float = 0.0, **attrs):
        self.name = name
        self.start = float(start)
        self.duration = float(duration)
        self.attrs = attrs
        self.children: list = []

    @property
    def end(self) -> float:
        return self.start + self.duration

    def child(self, name: str, start: float = 0.0, duration: float = 0.0, **attrs) -> "Span":
        """Create, attach, and return a nested span."""
        span = Span(name, start=start, duration=duration, **attrs)
        self.children.append(span)
        return span

    def shift(self, dt: float) -> "Span":
        """Move this whole subtree ``dt`` seconds; returns self."""
        self.start += dt
        for child in self.children:
            child.shift(dt)
        return self

    def copy(self) -> "Span":
        """Deep copy (batched requests share one execution subtree)."""
        dup = Span(self.name, start=self.start, duration=self.duration, **dict(self.attrs))
        dup.children = [child.copy() for child in self.children]
        return dup

    def walk(self):
        """Yield ``(depth, span)`` pre-order over the subtree."""
        stack = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def find(self, name: str):
        """First span named ``name`` in pre-order, or None."""
        for _, span in self.walk():
            if span.name == name:
                return span
        return None

    def render(self) -> str:
        """Stable text tree (same connector style as ``PlanNode.render``)."""
        lines: list = []
        self._render(lines, prefix="", is_last=True, is_root=True)
        return "\n".join(lines)

    def _render(self, lines, prefix: str, is_last: bool, is_root: bool) -> None:
        window = f"[{self.start * 1e3:.6g} ms + {self.duration * 1e3:.6g} ms]"
        facts = " ".join(f"{key}={_fmt(value)}" for key, value in self.attrs.items())
        label = f"{self.name} {window}" + (f" · {facts}" if facts else "")
        if is_root:
            lines.append(label)
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(prefix + connector + label)
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(self.children):
            child._render(lines, child_prefix, is_last=(i == len(self.children) - 1), is_root=False)

    def to_dict(self) -> dict:
        """Plain nested dict (snapshot-test and JSON friendly)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, start={self.start:.6g}, "
            f"duration={self.duration:.6g}, children={len(self.children)})"
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class Tracer:
    """Sampling policy plus a bounded store of finished request traces.

    Args:
        sample_every: Trace one request in this many, decided from the
            request sequence number (``seq % sample_every == 0``) so the
            choice is deterministic under replay. ``1`` traces all.
        keep: Finished traces retained (oldest evicted first).
        clock: Optional :class:`~repro.serve.clock.VirtualClock`; spans
            recorded outside a request (stream compaction) stamp their
            start from it when present.
    """

    def __init__(self, sample_every: int = 1, keep: int = 256, clock=None):
        self.sample_every = count_option(sample_every, "sample_every", ConfigError)
        self.clock = clock
        self.traces: deque = deque(maxlen=count_option(keep, "keep", ConfigError))
        self.total_traces = 0

    def sampled(self, seq: int) -> bool:
        """Whether request ``seq`` is traced (deterministic 1-in-N)."""
        return seq % self.sample_every == 0

    def record(self, span: Span) -> None:
        """File a finished root span into the bounded store."""
        self.traces.append(span)
        self.total_traces += 1

    def chrome_trace_events(self) -> list:
        """Retained traces as Chrome trace-event dicts (``ph: "X"``).

        Each request becomes one ``pid`` so Perfetto renders requests as
        separate process tracks; concurrent sibling spans (per-shard
        scans) get distinct ``tid`` lanes inside it.
        """
        events: list = []
        for pid, root in enumerate(self.traces):
            seq = root.attrs.get("seq", pid)
            for depth, span in root.walk():
                tid = span.attrs.get("shard", 0)
                event = {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.start * _MICROS, 3),
                    "dur": round(span.duration * _MICROS, 3),
                    "pid": int(seq),
                    "tid": int(tid),
                    "args": {key: value for key, value in span.attrs.items()},
                }
                event["args"]["depth"] = depth
                events.append(event)
        return events

    def export_chrome_trace(self, path=None) -> str:
        """Render retained traces as Chrome trace JSON; write if ``path``.

        The output loads directly in ``chrome://tracing`` or Perfetto
        (https://ui.perfetto.dev → Open trace file).
        """
        payload = {
            "traceEvents": self.chrome_trace_events(),
            "displayTimeUnit": "ms",
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text
