"""Bench: online ingest — the delta run vs refit-per-batch.

GENIE's index is built offline; the streaming layer's claim is that a
trickle of inserts should not cost a full rebuild per batch. This
harness replays the same seeded ingest workload — rounds of small
insert batches interleaved with served queries — three ways:

* ``stream`` — ``handle.insert`` into the delta run with the default
  threshold-driven auto-compaction,
* ``stream-nocompact`` — same, compaction disabled (delta growth
  baseline), and
* ``refit`` — ``handle.fit`` of the accumulated corpus before each
  round's queries (the only option before ``repro.stream``).

Cost is total simulated seconds accrued on the session's host and
device pool (index builds included — that is the point), so every
number is deterministic and the >= 3x sustained-throughput claim is
asserted unconditionally. Final streamed answers are checked
bit-identical to a from-scratch refit of the final corpus.
"""

import numpy as np

from repro.api import GenieSession
from repro.experiments.table import ResultTable
from repro.stream import StreamConfig

N_BASE = 1500
VOCAB = 100
ROUNDS = 25
BATCH = 20          # objects inserted per round
QUERIES_PER_ROUND = 8
K = 10
SHARDS = 4
SEED = 11


def _corpus(rng, n):
    return [
        rng.integers(0, VOCAB, size=int(rng.integers(2, 6))).tolist()
        for _ in range(n)
    ]


def _workload():
    rng = np.random.default_rng(SEED)
    base = _corpus(rng, N_BASE)
    batches = [_corpus(rng, BATCH) for _ in range(ROUNDS)]
    queries = [
        [rng.integers(0, VOCAB, size=3).tolist() for _ in range(QUERIES_PER_ROUND)]
        for _ in range(ROUNDS)
    ]
    return base, batches, queries


def _sim_seconds(session):
    """Simulated seconds accrued session-wide: host + every pool device."""
    return session.host.timings.total + sum(
        d.timings.total for d in session._device_pool
    )


def _run(mode, base, batches, queries):
    session = GenieSession()
    stream_config = None
    if mode == "stream":
        stream_config = StreamConfig()  # default thresholds, auto-compact on
    elif mode == "stream-nocompact":
        stream_config = StreamConfig(auto_compact=False)
    handle = session.create_index(
        base, model="raw", name="live", shards=SHARDS,
        shard_strategy="range", stream_config=stream_config,
    )
    corpus = list(base)
    start = _sim_seconds(session)
    final = None
    for batch, round_queries in zip(batches, queries):
        corpus.extend(batch)
        if mode == "refit":
            handle.fit(corpus)
        else:
            handle.insert(batch)
        final = handle.search(round_queries, k=K)
    elapsed = _sim_seconds(session) - start
    manifest = handle.manifest
    stats = {
        "mode": mode,
        "elapsed": elapsed,
        "qps": ROUNDS * QUERIES_PER_ROUND / elapsed,
        "delta_postings": manifest.delta_postings if manifest else 0,
        "compactions": manifest.compactions if manifest else 0,
        "final": final,
        "corpus": corpus,
    }
    session.close()
    return stats


def test_stream_ingest(benchmark, emit):
    base, batches, queries = _workload()
    stream = benchmark.pedantic(
        lambda: _run("stream", base, batches, queries), rounds=1, iterations=1
    )
    nocompact = _run("stream-nocompact", base, batches, queries)
    refit = _run("refit", base, batches, queries)

    # Ground truth: one from-scratch fit of the final corpus.
    truth_session = GenieSession()
    truth = truth_session.create_index(
        stream["corpus"], model="raw", name="truth",
        shards=SHARDS, shard_strategy="range",
    ).search(queries[-1], k=K)
    for mode in (stream, nocompact, refit):
        for got, want in zip(mode["final"].results, truth.results):
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.counts, want.counts)
            assert got.threshold == want.threshold
    truth_session.close()

    table = ResultTable(
        title="Streaming ingest: one delta run vs refit-per-batch "
              "(simulated seconds)",
        columns=["mode", "ingest_rounds", "served_queries", "sim_seconds",
                 "throughput_qps", "speedup_vs_refit", "delta_postings",
                 "compactions"],
        notes=[
            f"{N_BASE} base objects + {ROUNDS} rounds x {BATCH} inserts, "
            f"{QUERIES_PER_ROUND} queries/round at k={K}, {SHARDS} range "
            f"shards, seed {SEED}.",
            "sim_seconds includes index builds: the refit mode pays a full "
            "rebuild per round, the stream modes only the merge of each round's "
            "inserts into the delta run's index (and, for `stream`, "
            "threshold-driven compactions).",
            "delta_postings is the manifest's final backlog: bounded by "
            "auto-compaction, unbounded without it.",
            "final-round answers asserted bit-identical to a from-scratch "
            "fit of the final corpus, all three modes.",
        ],
    )
    for stats in (stream, nocompact, refit):
        table.add_row(
            mode=stats["mode"],
            ingest_rounds=ROUNDS,
            served_queries=ROUNDS * QUERIES_PER_ROUND,
            sim_seconds=stats["elapsed"],
            throughput_qps=stats["qps"],
            speedup_vs_refit=stats["qps"] / refit["qps"],
            delta_postings=stats["delta_postings"],
            compactions=stats["compactions"],
        )
    emit(table)

    speedup = stream["qps"] / refit["qps"]
    assert speedup >= 3.0, f"streamed ingest regressed: {speedup:.2f}x refit"
    assert stream["compactions"] >= 1, "workload never tripped auto-compaction"
    assert stream["delta_postings"] < nocompact["delta_postings"], (
        "compaction failed to bound the delta backlog"
    )
