"""Bench: tracing overhead — the observer must not move the clock.

The serve-throughput workload is replayed twice on identically seeded
servers: once untraced, once with the tracer on at sample rate 1.0
(every request builds its full span tree). Spans are bookkeeping *about*
simulated work, not simulated work — so the traced run must reproduce
the untraced run's simulated throughput within 5%. In practice the two
clocks agree exactly; the 5% band is the acceptance ceiling, leaving
room for a future implementation that charges tracing to the host
model. Wall-clock cost is also reported (informational: it varies by
machine and is not asserted).
"""

import time

import numpy as np

from paper.experiments.table import ResultTable
from repro.api import GenieSession
from repro.datasets.documents import make_document_queries, make_tweets_like
from repro.serve import BatchPolicy, GenieServer, TrafficSource, run_open_loop, sample_trace

N_REQUESTS = 192
RATE = 5e7  # saturating offered load, requests per simulated second
SEED = 11
MAX_OVERHEAD = 0.05


def _workload():
    docs = make_tweets_like(n=1500, seed=1)
    pool, _ = make_document_queries(docs, 48, seed=9)

    def build_session():
        session = GenieSession()
        session.create_index(docs, model="document", name="tweets")
        return session

    sources = [
        TrafficSource("tweets", lambda rng: pool[int(rng.integers(len(pool)))],
                      weight=1.0, k=10),
    ]
    return build_session, sources


def _serve(build_session, sources, trace_sample):
    session = build_session()
    server = GenieServer(
        session, policy=BatchPolicy.micro(max_batch=32, max_wait=1e-4),
        cache_size=None, max_queue_depth=N_REQUESTS, trace_sample=trace_sample,
    )
    trace = sample_trace(sources, N_REQUESTS, rate=RATE, seed=SEED)
    started = time.perf_counter()
    _, rejected = run_open_loop(server, trace)
    wall = time.perf_counter() - started
    assert rejected == 0, "benchmark queue must admit the whole trace"
    snap = server.snapshot()
    snap["wall_seconds"] = wall
    server.close()
    return snap


def test_obs_overhead(benchmark, emit):
    build_session, sources = _workload()
    untraced = _serve(build_session, sources, trace_sample=None)
    traced = benchmark.pedantic(
        lambda: _serve(build_session, sources, trace_sample=1),
        rounds=1, iterations=1,
    )

    overhead = (untraced["throughput_qps"] - traced["throughput_qps"]) \
        / untraced["throughput_qps"]

    table = ResultTable(
        title="Tracing overhead: identical seeded traffic, tracer off vs sample rate 1.0",
        columns=["mode", "requests", "traces", "throughput_qps",
                 "p99_latency_s", "overhead_pct", "wall_seconds"],
        volatile=["wall_seconds"],
        notes=[
            f"open-loop Poisson trace: {N_REQUESTS} document requests at "
            f"{RATE:.0e} req/s offered, seed {SEED}; micro batching 32/1e-4 s.",
            "overhead_pct compares simulated throughput (virtual clock);"
            " spans record simulated work, they must not add any.",
            f"acceptance: traced throughput within {MAX_OVERHEAD:.0%} of untraced.",
            "wall_seconds is informational only (machine-dependent).",
        ],
    )
    for mode, snap in (("untraced", untraced), ("traced", traced)):
        table.add_row(
            mode=mode,
            requests=snap["completed"],
            traces=snap["traces"],
            throughput_qps=snap["throughput_qps"],
            p99_latency_s=snap["latency_p99"],
            overhead_pct=100.0 * ((untraced["throughput_qps"] - snap["throughput_qps"])
                                  / untraced["throughput_qps"]),
            wall_seconds=snap["wall_seconds"],
        )
    emit(table)

    assert traced["traces"] == N_REQUESTS, "sample rate 1.0 must trace every request"
    assert untraced["traces"] == 0
    # Served answers are byte-identical either way, so the simulated
    # clocks should agree exactly; the 5% band is the hard ceiling.
    assert np.isclose(traced["completed"], untraced["completed"])
    assert overhead <= MAX_OVERHEAD, (
        f"tracing cost {overhead:.2%} simulated throughput (limit {MAX_OVERHEAD:.0%})")
