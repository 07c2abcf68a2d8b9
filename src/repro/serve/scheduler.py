"""Dynamic micro-batching: drain request queues into coalesced batches.

GENIE's match kernel amortizes beautifully over large query batches
(Fig. 9 / Fig. 11; PR 1's vectorized pipeline) — but an online request
stream arrives one query at a time. The scheduler is the layer that turns
the stream back into batches. Per-index queues drain into coalesced
:meth:`~repro.api.session.IndexHandle.search` calls when a queue reaches
``max_batch`` requests or its oldest request has waited ``max_wait``
simulated seconds, whichever is first. Draining is fair round-robin across
indexes, so one hot index cannot starve a session's other residents.

The one-request-per-kernel baseline, ``BatchPolicy.fifo()``, is that drain
under a batch of one: ``micro(max_batch=1, max_wait=0)``. Every request is
its own batch and the per-launch overhead the paper's batching amortizes is
paid in full. A server pumps after each admission, so its queues are empty
between admissions and it answers in arrival order; a scheduler driven
directly with several queues drains them round-robin.

Requests in one index's queue only coalesce when they share a *lane* —
the ``(k, options, route, plan)`` signature a single ``search()`` call
can serve, where ``route``/``plan`` are the query-planner directives
(:mod:`repro.plan`): a coalesced batch compiles to exactly one plan, so
requests forcing different strategies never ride together. The drain
takes the head request's lane and gathers up to ``max_batch`` compatible
requests from the queue, preserving arrival order within the lane and
leaving other lanes queued.

The scheduler never looks at a wall clock: readiness is evaluated against
the caller-supplied virtual ``now`` (see :mod:`repro.serve.clock`), which
keeps every batching decision deterministic.
"""

from __future__ import annotations

import logging
import numbers
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigError

logger = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class BatchPolicy:
    """How queued requests become batches: a size / wait envelope.

    Attributes:
        max_batch: Largest coalesced batch (an integer >= 1).
        max_wait: Longest simulated time a request may sit queued before
            its batch is dispatched anyway (>= 0; ``inf`` waits for the
            size trigger or a drain).
    """

    max_batch: int = 32
    max_wait: float = 1e-3

    def __post_init__(self):
        # A NaN wait or a fractional size would never trigger (or trigger
        # off by one), and a driver advancing to the deadline would spin.
        if not (isinstance(self.max_batch, numbers.Integral) and self.max_batch >= 1):
            raise ConfigError(f"max_batch must be an integer >= 1, got {self.max_batch!r}")
        if not float(self.max_wait) >= 0:
            raise ConfigError(f"max_wait must be >= 0, got {self.max_wait!r}")

    @classmethod
    def fifo(cls) -> "BatchPolicy":
        """The single-request baseline: micro-batching of one."""
        return cls(max_batch=1, max_wait=0.0)

    @classmethod
    def micro(cls, max_batch: int = 32, max_wait: float = 1e-3) -> "BatchPolicy":
        """Dynamic micro-batching under a size/wait envelope."""
        return cls(max_batch=max_batch, max_wait=max_wait)


class MicroBatchScheduler:
    """Per-index request queues drained under a :class:`BatchPolicy`.

    Queued items are duck-typed: the scheduler needs ``item.arrival``
    (simulated submit time) and ``item.lane`` (hashable coalescing
    signature — requests only share a batch when lanes match).

    Attributes:
        depth: Total queued requests across all indexes, a counter the
            enqueue and the drains keep (reading it costs nothing).
    """

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy if policy is not None else BatchPolicy()
        # Dict order is the round-robin order: every sweep visits each
        # queue once, in the order its index was first queued.
        self._queues: dict[str, deque] = {}
        self.depth = 0

    # ------------------------------------------------------------------
    # queue state

    def depths(self) -> dict[str, int]:
        """Queued requests per index (nonempty queues only)."""
        return {name: len(q) for name, q in self._queues.items() if q}

    def enqueue(self, index: str, request) -> None:
        """Queue one request for ``index``."""
        queue = self._queues.get(index)
        if queue is None:
            queue = self._queues[index] = deque()
        queue.append(request)
        self.depth += 1

    def forget(self, index: str) -> None:
        """Drop ``index``'s queue if it is empty (its index was dropped).

        A name queued again afterwards joins the end of the round-robin order.
        """
        if not self._queues.get(index, True):
            del self._queues[index]

    def next_deadline(self) -> float | None:
        """Earliest time a queued request *must* be dispatched, or ``None``.

        The oldest head's ``arrival + max_wait``. Drivers advance the
        virtual clock to this time to fire wait-triggered batches in order.
        """
        wait = self.policy.max_wait
        earliest = None
        for queue in self._queues.values():
            if queue:
                deadline = queue[0].arrival + wait
                if earliest is None or deadline < earliest:
                    earliest = deadline
        return earliest

    # ------------------------------------------------------------------
    # draining

    def pop_ready(self, now: float) -> list[tuple[str, list]]:
        """Drain every batch that is ready at simulated time ``now``.

        Returns ``(index, requests)`` pairs in dispatch order: fair
        round-robin across indexes (one batch per ready index per sweep,
        sweeping until nothing is ready). When nothing is ready the first
        sweep is the whole cost: one readiness test per queue.
        """
        return self._pop(now, drain=False)

    def pop_all(self, now: float = 0.0) -> list[tuple[str, list]]:
        """Drain everything queued, ignoring readiness (graceful shutdown).

        Batches still respect ``max_batch`` and lane compatibility; the
        dispatch order matches :meth:`pop_ready`'s fairness rules.
        """
        return self._pop(now, drain=True)

    def _pop(self, now: float, drain: bool) -> list[tuple[str, list]]:
        max_batch, max_wait = self.policy.max_batch, self.policy.max_wait
        batches: list[tuple[str, list]] = []
        progressed = True
        while progressed:
            progressed = False
            for name, queue in self._queues.items():
                if not queue:
                    continue
                if drain:
                    trigger = "drain"
                elif len(queue) >= max_batch:
                    trigger = "size"
                # The same float expression next_deadline() reports, or a
                # driver advancing exactly to the deadline could spin.
                elif now >= queue[0].arrival + max_wait:
                    trigger = "wait"
                else:
                    continue
                # The head's lane, up to max_batch: requests in other lanes
                # keep their places and arrival order, for later batches.
                lane, batch, kept = queue[0].lane, [], []
                while queue and len(batch) < max_batch:
                    request = queue.popleft()
                    (batch if request.lane == lane else kept).append(request)
                queue.extendleft(reversed(kept))
                self.depth -= len(batch)
                batches.append((name, batch))
                progressed = True
                logger.debug(
                    "dispatch index=%s batch=%d trigger=%s queued=%d",
                    name, len(batch), trigger, len(queue),
                )
        return batches
