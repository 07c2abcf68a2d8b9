"""Bench: online serving — fifo vs dynamic micro-batching on seeded traffic.

GENIE's throughput claim is a *batch* claim; this harness checks it
survives the trip through an online request queue. A three-modality
traffic mix (document / ANN / relational single-query requests, seeded
Poisson arrivals at a rate that saturates the device) is replayed against
a `GenieServer` twice:

* ``fifo`` — every request is its own kernel launch (the no-batching
  baseline), and
* ``micro`` — dynamic micro-batching under ``max_batch=32`` /
  ``max_wait=100us``,

plus a third pass of ``micro`` with the exact-match cache enabled on a
mix with repeating hot queries. Time is *simulated seconds* on the
server's virtual clock, so every number in the emitted table — including
the latency percentiles — is deterministic, and the >= 3x
micro-batching speedup is asserted unconditionally (no wall-clock
variance to absorb). Every served result is checked bit-identical to a
direct ``IndexHandle.search`` of the same query.
"""

import numpy as np

from paper.experiments.table import ResultTable
from repro.api import GenieSession
from repro.datasets.documents import make_document_queries, make_tweets_like
from repro.datasets.relational import adult_schema, make_adult_like
from repro.datasets.synthetic import make_sift_like
from repro.serve import BatchPolicy, GenieServer, TrafficSource, run_open_loop, sample_trace

N_REQUESTS = 256
RATE = 5e7  # offered load in requests per simulated second: saturating
SEED = 7


def _workload():
    docs = make_tweets_like(n=2000, seed=1)
    doc_pool, _ = make_document_queries(docs, 64, seed=9)
    sift = make_sift_like(n=2000, n_queries=8, seed=3)
    table = make_adult_like(n=4000, seed=5)

    def build_session():
        session = GenieSession()
        session.create_index(docs, model="document", name="tweets")
        session.create_index(
            sift.data, model="ann-e2lsh", num_functions=32, dim=sift.dim,
            width=4.0, domain=256, seed=4, name="sift",
        )
        session.create_index(table, model="relational", schema=adult_schema(), name="adult")
        return session

    def adult_query(rng):
        lo = float(rng.uniform(10, 60))
        return {
            "age": (lo, lo + 25.0),
            "education_num": (float(rng.uniform(0, 40)), 100.0),
            "sex": (int(rng.integers(0, 2)),) * 2,
        }

    sources = [
        TrafficSource("tweets", lambda rng: doc_pool[int(rng.integers(len(doc_pool)))],
                      weight=0.4, k=10),
        TrafficSource("sift", lambda rng: rng.standard_normal(sift.dim), weight=0.4, k=10),
        TrafficSource("adult", adult_query, weight=0.2, k=10),
    ]
    return build_session, sources


def _serve(build_session, sources, policy, cache_size=None, seed=SEED):
    session = build_session()
    server = GenieServer(session, policy=policy, cache_size=cache_size,
                         max_queue_depth=N_REQUESTS)
    trace = sample_trace(sources, N_REQUESTS, rate=RATE, seed=seed)
    served, rejected = run_open_loop(server, trace)
    assert rejected == 0, "benchmark queue must admit the whole trace"
    # Served answers must be bit-identical to a direct search of the same
    # query against the same index (cache hits included).
    for arrival, future in served:
        direct = session.index(arrival.index).search([arrival.raw_query], k=arrival.k)
        assert np.array_equal(future.result().ids, direct[0].ids)
        assert np.array_equal(future.result().counts, direct[0].counts)
    return server.snapshot()


def test_serve_throughput(benchmark, emit):
    build_session, sources = _workload()
    fifo = _serve(build_session, sources, BatchPolicy.fifo())
    micro = benchmark.pedantic(
        lambda: _serve(build_session, sources, BatchPolicy.micro(max_batch=32, max_wait=1e-4)),
        rounds=1, iterations=1,
    )

    # Hot-query pass: a handful of repeating queries, exact-match cache on.
    hot_pool, _ = make_document_queries(make_tweets_like(n=2000, seed=1), 8, seed=30)
    hot_sources = [
        TrafficSource("tweets", lambda rng: hot_pool[int(rng.integers(len(hot_pool)))],
                      weight=1.0, k=10),
    ]
    cached = _serve(build_session, hot_sources, BatchPolicy.micro(max_batch=32, max_wait=1e-4),
                    cache_size=1024)

    table = ResultTable(
        title="Serve: fifo vs dynamic micro-batching (simulated seconds, seeded traffic)",
        columns=["policy", "requests", "batches", "mean_batch", "throughput_qps",
                 "p50_latency_s", "p95_latency_s", "p99_latency_s", "cache_hits", "speedup"],
        notes=[
            f"open-loop Poisson trace: {N_REQUESTS} requests at {RATE:.0e} req/s offered, "
            f"mix tweets 40% / sift 40% / adult 20%, seed {SEED}.",
            "micro policy: max_batch=32, max_wait=1e-4 s; fifo: one kernel launch per request.",
            "cached row: single hot-document mix (8 repeating queries), exact-match LRU on.",
            "all served results asserted bit-identical to direct IndexHandle.search.",
            "virtual-clock timing: identical numbers on every run/machine.",
        ],
    )
    for name, snap in (("fifo", fifo), ("micro", micro), ("micro+cache", cached)):
        table.add_row(
            policy=name,
            requests=snap["completed"],
            batches=snap["batches"],
            mean_batch=snap["mean_batch_size"],
            throughput_qps=snap["throughput_qps"],
            p50_latency_s=snap["latency_p50"],
            p95_latency_s=snap["latency_p95"],
            p99_latency_s=snap["latency_p99"],
            cache_hits=snap["cache"]["hits"] if snap["cache"] else 0,
            speedup=snap["throughput_qps"] / fifo["throughput_qps"],
        )
    emit(table)

    speedup = micro["throughput_qps"] / fifo["throughput_qps"]
    assert micro["mean_batch_size"] > 4.0, "micro-batching failed to coalesce the stream"
    assert speedup >= 3.0, f"micro-batching throughput regressed: {speedup:.2f}x fifo"
    assert cached["cache_hits"] > 0 and cached["throughput_qps"] > micro["throughput_qps"]
