"""Online serving: micro-batched traffic against a multi-index session.

A `GenieServer` fronts a session holding a tweet corpus and an E2LSH ANN
index. Seeded open-loop traffic (Poisson arrivals, 70/30 mix) is replayed
under the two batching policies — `fifo` (one kernel launch per request)
and dynamic micro-batching — on the server's virtual clock, so every
number printed here is deterministic. The demo then shows the serving
amenities: per-request metadata, the exact-match cache, and bounded-queue
backpressure.

Run:  python examples/serve_online.py
"""

import numpy as np

from repro.api import GenieSession
from repro.datasets.documents import make_document_queries, make_tweets_like
from repro.datasets.synthetic import make_sift_like
from repro.errors import AdmissionError
from repro.serve import BatchPolicy, GenieServer, TrafficSource, run_open_loop, sample_trace

DOCS = make_tweets_like(n=2_000, seed=1)
DOC_POOL, _ = make_document_queries(DOCS, 32, seed=9)
SIFT = make_sift_like(n=2_000, n_queries=8, seed=3)


def build_session() -> GenieSession:
    session = GenieSession()
    session.create_index(DOCS, model="document", name="tweets")
    session.create_index(
        SIFT.data, model="ann-e2lsh", num_functions=32, dim=SIFT.dim,
        width=4.0, domain=256, seed=4, name="sift",
    )
    return session


def sources() -> list[TrafficSource]:
    return [
        TrafficSource("tweets", lambda rng: DOC_POOL[int(rng.integers(len(DOC_POOL)))],
                      weight=0.7, k=5),
        TrafficSource("sift", lambda rng: rng.standard_normal(SIFT.dim), weight=0.3, k=5),
    ]


def compare_policies() -> None:
    trace = sample_trace(sources(), n_requests=192, rate=5e7, seed=7)
    print("192 requests, 70% tweets / 30% sift, offered at 5e7 req/s:\n")
    for name, policy in (("fifo", BatchPolicy.fifo()),
                         ("micro", BatchPolicy.micro(max_batch=32, max_wait=1e-4))):
        server = GenieServer(build_session(), policy=policy, cache_size=None,
                             max_queue_depth=1_000)
        run_open_loop(server, trace)
        snap = server.snapshot()
        print(f"  {name:<6} throughput {snap['throughput_qps']:>12,.0f} q/s   "
              f"p50 {snap['latency_p50']:.2e} s   p95 {snap['latency_p95']:.2e} s   "
              f"mean batch {snap['mean_batch_size']:.1f}")


def inspect_one_request() -> None:
    server = GenieServer(build_session(), policy=BatchPolicy.micro(max_batch=8, max_wait=1e-4))
    futures = server.submit_many("tweets", DOC_POOL[:8], k=5)
    server.drain()
    meta = futures[0].metadata
    print("\nOne request's metadata:")
    print(f"  rode a batch of {meta.batch_size}, queued {meta.queue_time:.2e} s, "
          f"latency {meta.latency:.2e} s")
    share = meta.profile_share()
    print(f"  its profile slice: {{"
          + ", ".join(f"{k}: {v:.2e}" for k, v in share.seconds.items()) + "}")

    # An exact repeat is a cache hit: answered with no device trip.
    repeat = server.submit("tweets", DOC_POOL[0], k=5)
    assert repeat.metadata.cache_hit
    assert np.array_equal(repeat.result().ids, futures[0].result().ids)
    print(f"  exact repeat: cache hit, batch_size={repeat.metadata.batch_size}, "
          f"latency {repeat.metadata.latency:.0f} s")


def backpressure() -> None:
    server = GenieServer(build_session(), policy=BatchPolicy.micro(max_batch=64, max_wait=1.0),
                         cache_size=None, max_queue_depth=4)
    for i in range(4):
        server.submit("tweets", DOC_POOL[i], k=5)
    try:
        server.submit("tweets", DOC_POOL[4], k=5)
    except AdmissionError as err:
        print(f"\nAdmission control: {err}")
    server.close()  # graceful: drains the 4 queued requests
    snap = server.snapshot()
    print(f"  after close: completed {snap['completed']}, rejected {snap['rejected']}, "
          f"queue depth {snap['queue_depth']}")


def main():
    compare_policies()
    inspect_one_request()
    backpressure()


if __name__ == "__main__":
    main()
