"""Seeded synthetic traffic: arrival processes over multi-modality mixes.

The serving benchmark needs *traffic*, not a pre-assembled batch: a
stream of single-query requests spread over the session's indexes, with
realistic arrival dynamics. Two classic patterns are provided, both
driven entirely by the server's virtual clock and a seeded generator so
every run of a workload is bit-identical:

* **Open loop** (:func:`sample_trace` + :func:`run_open_loop`) — arrivals
  follow a Poisson process at a fixed offered rate, independent of how
  fast the server answers. This is the pattern that exposes queueing:
  when the offered rate exceeds the fifo service rate the queue grows
  and admission control pushes back.
* **Closed loop** (:func:`run_closed_loop`) — ``n_clients`` each keep one
  request outstanding, submitting the next one ``think_time`` after the
  previous completes. Throughput is bounded by client concurrency, the
  pattern of benchmark harnesses like YCSB.

A *mix* is a list of :class:`TrafficSource` — one per index, each with a
weight and a seeded raw-query sampler — so a trace interleaves, say, 45%
document queries, 45% ANN queries and 10% sequence queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable

import numpy as np

from repro.errors import AdmissionError, ConfigError
from repro.serve.server import GenieServer, RequestFuture


@dataclass(frozen=True)
class TrafficSource:
    """One index's share of a traffic mix.

    Attributes:
        index: Session index name the queries target.
        make_query: ``make_query(rng) -> raw query`` — a seeded sampler in
            the index's raw query format.
        weight: Relative share of the mix.
        k: Results per request.
        opts: Model-specific search options (e.g. ``n_candidates``).
    """

    index: str
    make_query: Callable[[np.random.Generator], Any]
    weight: float = 1.0
    k: int = 10
    opts: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class Arrival:
    """One request of a trace: when it arrives and what it asks."""

    time: float
    index: str
    raw_query: Any
    k: int
    opts: tuple  # canonicalized (name, value) pairs


def _pick(sources: list[TrafficSource], probabilities: np.ndarray, rng: np.random.Generator):
    return sources[int(rng.choice(len(sources), p=probabilities))]


def _weights(sources: list[TrafficSource]) -> np.ndarray:
    if not sources:
        raise ConfigError("traffic needs at least one source")
    weights = np.asarray([s.weight for s in sources], dtype=np.float64)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ConfigError("source weights must be non-negative with a positive sum")
    return weights / weights.sum()


def sample_trace(
    sources: list[TrafficSource],
    n_requests: int,
    rate: float,
    seed: int = 0,
    start: float = 0.0,
) -> list[Arrival]:
    """A seeded open-loop (Poisson) trace over a traffic mix.

    Args:
        sources: The mix; each arrival picks a source by weight.
        n_requests: Trace length.
        rate: Offered load in requests per simulated second (exponential
            inter-arrival gaps with mean ``1/rate``).
        seed: Generator seed; same seed, same trace, bit for bit.
        start: Time of the first gap's origin.
    """
    if rate <= 0:
        raise ConfigError("rate must be positive")
    probabilities = _weights(sources)
    rng = np.random.default_rng(seed)
    arrivals = []
    t = float(start)
    for _ in range(int(n_requests)):
        t += float(rng.exponential(1.0 / rate))
        source = _pick(sources, probabilities, rng)
        arrivals.append(
            Arrival(
                time=t,
                index=source.index,
                raw_query=source.make_query(rng),
                k=source.k,
                opts=tuple(sorted(source.opts.items())),
            )
        )
    return arrivals


def run_open_loop(
    server: GenieServer, trace: list[Arrival]
) -> tuple[list[tuple[Arrival, RequestFuture]], int]:
    """Replay a trace against a server; drain at the end.

    The server's clock is advanced to each arrival time (firing batching
    deadlines on the way), the request is submitted, and rejected
    arrivals (admission control) are counted rather than raised — an open
    loop does not slow down for backpressure.

    Returns:
        ``(served, rejected)`` where ``served`` pairs each admitted
        arrival with its (completed) future.
    """
    served: list[tuple[Arrival, RequestFuture]] = []
    rejected = 0
    for arrival in trace:
        server.advance_to(arrival.time)
        try:
            future = server.submit(
                arrival.index, arrival.raw_query, k=arrival.k, **dict(arrival.opts)
            )
        except AdmissionError:
            rejected += 1
            continue
        served.append((arrival, future))
    server.drain()
    return served, rejected


def run_closed_loop(
    server: GenieServer,
    sources: list[TrafficSource],
    n_clients: int,
    requests_per_client: int,
    think_time: float = 0.0,
    seed: int = 0,
) -> list[tuple[Arrival, RequestFuture]]:
    """Closed-loop traffic: each client resubmits after completion.

    Every client draws its request sequence from its own seeded stream
    (``default_rng([seed, client])``), so the workload is reproducible
    regardless of interleaving. Clients all start at the server's current
    time; client ``c`` submits request ``i+1`` at ``completion(i) +
    think_time``. When the scheduler holds a request past the next
    submission (micro-batching ``max_wait``), the loop advances the clock
    to the earliest batching deadline — exactly what a real arrival
    stream would do to a wall clock.

    Returns:
        ``(arrival, future)`` pairs in submission order.
    """
    if n_clients < 1 or requests_per_client < 1:
        raise ConfigError("need n_clients >= 1 and requests_per_client >= 1")
    if think_time < 0:
        raise ConfigError("think_time must be >= 0")
    probabilities = _weights(sources)
    streams = [np.random.default_rng([seed, client]) for client in range(n_clients)]
    sent = [0] * n_clients
    outstanding: dict[int, RequestFuture] = {}
    served: list[tuple[Arrival, RequestFuture]] = []

    events: list[tuple[float, int, int]] = []  # (time, tie-break, client)
    tick = 0
    for client in range(n_clients):
        heappush(events, (server.clock.now(), tick, client))
        tick += 1

    while events or outstanding:
        deadline = server.next_deadline()
        if events and (deadline is None or events[0][0] <= deadline):
            t, _, client = heappop(events)
            server.advance_to(t)
            rng = streams[client]
            source = _pick(sources, probabilities, rng)
            arrival = Arrival(
                time=server.clock.now(),
                index=source.index,
                raw_query=source.make_query(rng),
                k=source.k,
                opts=tuple(sorted(source.opts.items())),
            )
            future = server.submit(
                arrival.index, arrival.raw_query, k=arrival.k, **dict(arrival.opts)
            )
            served.append((arrival, future))
            sent[client] += 1
            outstanding[client] = future
        elif deadline is not None:
            server.advance_to(deadline)
        else:
            server.drain()

        for client in [c for c, f in outstanding.items() if f.done()]:
            future = outstanding.pop(client)
            if sent[client] < requests_per_client:
                resume = future.metadata.completed
                if resume is None:  # failed request: move on immediately
                    resume = server.clock.now()
                heappush(events, (resume + think_time, tick, client))
                tick += 1
    return served
