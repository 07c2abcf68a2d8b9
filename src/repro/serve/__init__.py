"""Online serving for GENIE sessions: batch the stream, bound the queue.

The paper's throughput claim lives or dies on batch size: the inverted
index match kernel amortizes per-launch overhead over thousands of
concurrent queries (Fig. 9 / Fig. 11), but online traffic arrives one
request at a time. ``repro.serve`` is the layer that converts a request
stream back into the batches the kernel wants:

* :class:`~repro.serve.server.GenieServer` — one admission routine,
  ``submit_many()`` (``submit()`` is a burst of one), with futures,
  all-or-nothing bounded-queue admission control (explicit
  :class:`~repro.errors.AdmissionError` backpressure, never silent
  drops), an exact-match result cache (a
  :class:`~repro.plan.cache.LruCache` keyed by :func:`make_cache_key` on
  the encoded query, invalidated through the session's hooks), graceful
  ``drain()`` / ``close()``, and per-request metadata (queue time, batch
  ridden, profile slice).
* :class:`~repro.serve.scheduler.MicroBatchScheduler` +
  :class:`~repro.serve.scheduler.BatchPolicy` — dynamic micro-batching
  under a ``max_batch`` / ``max_wait`` envelope with fair round-robin
  across indexes; ``BatchPolicy.fifo()`` is that envelope at a batch of
  one (``micro(max_batch=1, max_wait=0)``), the one-request-per-kernel
  baseline the benchmark compares against.
* :class:`~repro.serve.metrics.ServeMetrics` — throughput, p50/p95/p99
  latency, batch-size histograms, cache/residency counters via
  ``snapshot()``.
* :mod:`~repro.serve.traffic` — seeded open-loop (Poisson) and
  closed-loop traffic over multi-modality query mixes.

Everything runs on a :class:`~repro.serve.clock.VirtualClock` in
simulated seconds: scheduling decisions, latencies and percentiles are
deterministic and bit-reproducible in CI.

Quickstart::

    from repro.api import GenieSession
    from repro.serve import BatchPolicy, GenieServer

    session = GenieSession(memory_budget=256 << 20)
    session.create_index(texts, model="document", name="tweets")
    server = GenieServer(session, policy=BatchPolicy.micro(max_batch=32))
    future = server.submit("tweets", "gpu similarity search", k=10)
    server.drain()
    future.result().as_pairs()      # identical to a direct search
    future.metadata.batch_size      # the batch this request rode in
    server.snapshot()["throughput_qps"]
"""

from repro.serve.clock import VirtualClock
from repro.serve.metrics import ServeMetrics, percentile_nearest_rank
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler
from repro.serve.server import GenieServer, RequestFuture, RequestMetadata, make_cache_key
from repro.serve.traffic import (
    Arrival,
    TrafficSource,
    run_closed_loop,
    run_open_loop,
    sample_trace,
)

__all__ = [
    "GenieServer",
    "RequestFuture",
    "RequestMetadata",
    "BatchPolicy",
    "MicroBatchScheduler",
    "make_cache_key",
    "ServeMetrics",
    "percentile_nearest_rank",
    "VirtualClock",
    "TrafficSource",
    "Arrival",
    "sample_trace",
    "run_open_loop",
    "run_closed_loop",
]
