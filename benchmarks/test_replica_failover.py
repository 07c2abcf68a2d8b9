"""Bench: replicated serving — failover survival and self-healing recuts.

Three tables, all in deterministic simulated seconds (no wall clock, so
the emitted artifact is byte-stable without masking):

1. **Kill a device mid-drain** — the sorted-Adult age-band workload
   served through ``create_index(..., shards=4, replicas=R)`` while a
   seeded :class:`FaultPlan` permanently crashes device 1 halfway
   through the submit horizon. With ``replicas=1`` the dead shard's
   queries fail with a clean :class:`AvailabilityError` (never a hang,
   never a silent drop; pruned routing keeps the other shards
   answering). With ``replicas>=2`` every future completes and every
   answer is asserted **bit-identical** to the fault-free run — the
   kill shows up only as failover retries and the re-replication copies
   the server schedules to heal the groups.
2. **Degraded throughput** — the same workload with device 1 running an
   8x slowdown instead of a crash. A single-replica cluster is dragged
   down by its hottest member; with ``replicas=2`` the least-loaded
   replica selection steers shard 1's scans to its surviving copy and
   recovers most of the healthy throughput.
3. **Self-healing recut** — the shard-scaling benchmark's skew story,
   closed: sorted-Adult range partitioning concentrates ~1.6x the mean
   busy time on the hot shard. A :class:`RebalancePolicy` watching the
   rolling shard imbalance recuts the range bounds online (plan caches
   invalidated, served answers unchanged) and pulls the rolling
   imbalance under 1.15 while keyword-bounds pruning keeps working.
"""

import numpy as np

from paper.experiments.table import ResultTable
from repro.api import GenieSession
from repro.datasets.relational import adult_schema, make_adult_like
from repro.errors import AvailabilityError
from repro.replica import FaultEvent, FaultPlan, RebalancePolicy
from repro.serve import BatchPolicy, GenieServer

ADULT_ROWS = 20000
ADULT_QUERIES = 48
K = 10
SEED = 0

#: Virtual seconds between submits; 48 submits span 4.8e-4 s.
SUBMIT_GAP = 1e-5
#: The permanent crash lands after submit 24 — mid-drain.
KILL_AT = ADULT_QUERIES / 2 * SUBMIT_GAP

REBALANCE_REPEATS = 8
REBALANCE_POLICY = dict(threshold=1.2, min_window=12, cooldown=20)


def _sorted_adult():
    """Adult-like rows sorted by age so each age band is contiguous."""
    columns = make_adult_like(n=ADULT_ROWS, seed=SEED)
    order = np.argsort(columns["age"], kind="stable")
    return {name: values[order] for name, values in columns.items()}


def _age_band_queries(columns):
    """Narrow age-range queries sampled from the (skewed) age column."""
    rng = np.random.default_rng(SEED + 1)
    rows = rng.choice(ADULT_ROWS, size=ADULT_QUERIES, replace=False)
    ages = [float(columns["age"][int(row)]) for row in rows]
    return [{"age": (age - 1.0, age + 1.0)} for age in ages]


def _serve(columns, queries, replicas, plan=None, policy=None, repeats=1):
    """Serve ``repeats`` passes of the workload; resolve every future."""
    session = GenieSession()
    handle = session.create_index(
        columns, model="relational", schema=adult_schema(), name="adult",
        shards=4, replicas=replicas, shard_strategy="range",
    )
    if plan is not None:
        session.inject_faults(plan)
    server = GenieServer(
        session, policy=BatchPolicy.micro(max_batch=4, max_wait=1e-4),
        cache_size=None, max_queue_depth=ADULT_QUERIES * repeats,
        rebalance=policy,
    )
    futures = []
    for _ in range(repeats):
        for query in queries:
            server.advance(SUBMIT_GAP)
            futures.append(server.submit("adult", query, k=K))
    server.drain()
    results, failed = [], 0
    for future in futures:
        try:
            r = future.result()
            results.append(
                (
                    tuple(np.asarray(r.ids).ravel()),
                    tuple(np.asarray(r.counts).ravel()),
                )
            )
        except AvailabilityError:
            results.append(None)
            failed += 1
    snapshot = server.snapshot()
    server.close()
    session.close()
    return results, failed, snapshot, handle


def _failover_table(columns, queries, baseline, baseline_snap):
    kill = FaultPlan([FaultEvent(device=1, start=KILL_AT)])
    table = ResultTable(
        title="Kill device 1 mid-drain: survival by replica count (sorted-Adult, 4 shards)",
        columns=["replicas", "completed", "failed", "failovers",
                 "re_replications", "throughput_qps", "identical"],
        notes=[
            f"{ADULT_QUERIES} narrow age-band requests, submit gap "
            f"{SUBMIT_GAP:.0e} s; device 1 crashes permanently at "
            f"t={KILL_AT:.1e} s (after submit {ADULT_QUERIES // 2}).",
            "replicas=1: the dead shard's queries fail with a clean",
            "AvailabilityError (counted under failed); pruned routing keeps",
            "every other shard answering. replicas>=2: zero failed futures,",
            "answers bit-identical to the fault-free run (asserted); the",
            "server re-replicates the dead device's groups onto live devices.",
            "virtual-device timing: identical numbers on every run/machine.",
        ],
    )
    outcomes = {}
    for replicas in (1, 2, 3):
        results, failed, snap, _ = _serve(columns, queries, replicas, plan=kill)
        identical = all(
            got == want
            for got, want in zip(results, baseline)
            if got is not None
        )
        outcomes[replicas] = (failed, identical, snap)
        table.add_row(
            replicas=replicas,
            completed=snap["completed"],
            failed=failed,
            failovers=snap["replica_failovers"],
            re_replications=snap["replica_re_replications"],
            throughput_qps=snap["throughput_qps"],
            identical="yes" if identical else "NO",
        )
    return table, outcomes


def _degraded_table(columns, queries, baseline, baseline_snap):
    slow = FaultPlan(
        [FaultEvent(device=1, start=0.0, kind="slow", factor=8.0)]
    )
    table = ResultTable(
        title="Degraded cluster: device 1 slowed 8x, replica steering vs stuck",
        columns=["replicas", "throughput_qps", "healthy_fraction", "identical"],
        notes=[
            "same workload, device 1 serves at 1/8 speed for the whole run.",
            "replicas=1 is dragged down by its hottest shard; replicas=2",
            "steers shard 1's scans to the surviving copy (least-loaded",
            "rolling busy seconds) and recovers most healthy throughput.",
        ],
    )
    qps = {}
    for replicas in (1, 2):
        results, failed, snap, _ = _serve(columns, queries, replicas, plan=slow)
        if failed:
            raise AssertionError("slowdowns must never fail a future")
        qps[replicas] = snap["throughput_qps"]
        table.add_row(
            replicas=replicas,
            throughput_qps=snap["throughput_qps"],
            healthy_fraction=snap["throughput_qps"] / baseline_snap["throughput_qps"],
            identical="yes" if results == baseline else "NO",
        )
    return table, qps


def _rebalance_table(columns, queries):
    static_results, _, static_snap, _ = _serve(
        columns, queries, replicas=1, repeats=REBALANCE_REPEATS
    )
    policy = RebalancePolicy(**REBALANCE_POLICY)
    healed_results, _, healed_snap, handle = _serve(
        columns, queries, replicas=1, policy=policy, repeats=REBALANCE_REPEATS
    )
    table = ResultTable(
        title="Self-healing recut: sorted-Adult range skew under a RebalancePolicy",
        columns=["mode", "rebalances", "imbalance", "rolling_imbalance",
                 "pruned_shard_fraction", "shard_sizes"],
        notes=[
            f"{REBALANCE_REPEATS}x{ADULT_QUERIES} age-band requests; policy "
            f"threshold {REBALANCE_POLICY['threshold']}, window "
            f"{REBALANCE_POLICY['min_window']}, cooldown "
            f"{REBALANCE_POLICY['cooldown']} batches.",
            "static: range partitioning concentrates the skewed age bands'",
            "busy time on one shard. policy: the server recuts the range",
            "bounds online from rolling busy seconds — answers unchanged",
            "(asserted), plan cache invalidated, pruning still effective.",
            "imbalance = max/mean lifetime shard busy; rolling_imbalance is",
            "the post-recut window the policy actually watches.",
        ],
    )
    for mode, snap, h_sizes in (
        ("static", static_snap, None),
        ("policy", healed_snap, [len(p.corpus) for p in handle._parts]),
    ):
        table.add_row(
            mode=mode,
            rebalances=snap["replica_rebalances"],
            imbalance=snap["shard_imbalance"],
            rolling_imbalance=snap["rolling_shard_imbalance"],
            pruned_shard_fraction=snap["pruned_shard_fraction"],
            shard_sizes="/".join(map(str, h_sizes)) if h_sizes else "5000/5000/5000/5000",
        )
    return table, static_results, healed_results, static_snap, healed_snap


def test_replica_failover(benchmark, emit):
    columns = _sorted_adult()
    queries = _age_band_queries(columns)

    baseline, failed, baseline_snap, _ = _serve(columns, queries, replicas=2)
    assert failed == 0

    failover, outcomes = benchmark.pedantic(
        lambda: _failover_table(columns, queries, baseline, baseline_snap),
        rounds=1, iterations=1,
    )
    degraded, qps = _degraded_table(columns, queries, baseline, baseline_snap)
    rebalance, static_results, healed_results, static_snap, healed_snap = (
        _rebalance_table(columns, queries)
    )
    emit(failover, degraded, rebalance)

    # --- survival: replicas=2 rides out a mid-drain permanent kill
    for replicas in (2, 3):
        failed_r, identical, snap = outcomes[replicas]
        assert failed_r == 0, f"replicas={replicas} failed {failed_r} futures"
        assert identical, f"replicas={replicas} diverged from fault-free run"
        assert snap["replica_failovers"] > 0
        assert snap["replica_re_replications"] > 0
    failed_1, identical_1, snap_1 = outcomes[1]
    assert failed_1 > 0, "replicas=1 must surface the dead shard"
    assert failed_1 < ADULT_QUERIES, "pruned routing should keep other shards up"
    assert identical_1, "surviving replicas=1 answers must still be exact"

    # --- degradation: replica steering beats a stuck hot shard
    assert qps[2] > 3.0 * qps[1], (
        f"replica steering gained only {qps[2] / qps[1]:.2f}x under the slowdown"
    )

    # --- self-healing: the recut closes the sorted-skew imbalance
    assert static_snap["shard_imbalance"] > 1.4
    assert healed_snap["replica_rebalances"] >= 1
    assert healed_snap["rolling_shard_imbalance"] <= 1.15, (
        f"recut left rolling imbalance at "
        f"{healed_snap['rolling_shard_imbalance']:.3f}"
    )
    assert healed_snap["pruned_shard_fraction"] > 0, (
        "rebalancing must not cost the keyword-bounds routing"
    )
    assert healed_results == static_results, "recut changed served answers"
