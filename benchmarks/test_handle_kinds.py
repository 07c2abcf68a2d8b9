"""Bench: every handle kind through one lifecycle — the byte-stable net under ``_install``.

One row per (handle kind, lifecycle leg): the same 400-object raw corpus is
fitted as a serial index, as ``part_size`` parts under a tight memory budget
(with and without ``swap_parts``), range-sharded, hash-sharded and
range-sharded with two replicas under a crashed device, then walked through

    clean -> insert -> delete -> update -> compact -> rebalance -> insert -> compact

and searched with the same six queries after every leg. A row records what
a refactor of the partition / residency / stream path must not move: the
answers' sha256, the k-th-count thresholds, the search profile's stage
seconds (exact ``repr``), attach / evict / failover counts, the host's
``index_build`` seconds and the session's residency events so far (what the
legs' installs charged), the base slice sizes and a digest of the ``explain()`` tree.

Everything is simulated seconds and counts — no wall-clock column, nothing
masked. The test itself asserts what the rows only record: every kind gives
the serial index's answers at every leg, and those equal a from-scratch
refit of the logical corpus.
"""

import hashlib

import numpy as np

from paper.experiments.table import ResultTable
from repro.api import GenieSession
from repro.replica import FaultEvent, FaultPlan

N_OBJECTS = 400
DOMAIN = 48
K = 5
SEED = 0

#: Shard 0 holds the long objects, so ``rebalance`` has something to even out.
REBALANCE_WEIGHTS = [10, 1, 1, 1]

#: Device bytes for ~2.5 of the four ``part_size`` parts: searches swap parts.
PART_BUDGET = 5200

KINDS = (
    ("serial", {}, {}),
    ("part_size", dict(part_size=110), dict(memory_budget=PART_BUDGET)),
    ("part_size+swap", dict(part_size=110, swap_parts=True), dict(memory_budget=PART_BUDGET)),
    ("range-4", dict(shards=4, shard_strategy="range"), {}),
    ("hash-3", dict(shards=3, shard_strategy="hash", shard_seed=7), {}),
    ("range-4xR2", dict(shards=4, replicas=2, shard_strategy="range"), {}),
)


def _objects(rng, n, long_until=0):
    """``n`` keyword sets; the first ``long_until`` are four times longer."""
    return [
        rng.integers(0, DOMAIN, size=12 if i < long_until else 3).tolist() for i in range(n)
    ]


def _digest(*arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()[:16]


def _legs(handle, shadow):
    """The lifecycle: ``(leg name, what the leg's call returned)`` after each step.

    ``shadow`` is the logical corpus by global id (dead slots hold ``[]``),
    kept in step so a from-scratch refit can check the answers.
    """
    rng = np.random.default_rng(SEED + 1)
    yield "clean", ""

    fresh = _objects(rng, 30)
    ids = handle.insert(fresh).tolist()
    shadow.extend(fresh)
    yield "insert", f"{ids[0]}..{ids[-1]}"

    dead = [3, 150, 399, ids[1]]
    handle.delete(dead)
    for gid in dead:
        shadow[gid] = []
    yield "delete", len(dead)

    for gid in (7, 250, ids[2]):
        shadow[gid] = _objects(rng, 1, long_until=1)[0]
        handle.update(gid, shadow[gid])
    yield "update", 3

    yield "compact", handle.compact()
    yield "rebalance", handle.rebalance(REBALANCE_WEIGHTS)

    fresh = _objects(rng, 40, long_until=10)  # long enough to enter the answers
    ids = handle.insert(fresh).tolist()
    shadow.extend(fresh)
    yield "insert", f"{ids[0]}..{ids[-1]}"

    yield "compact", handle.compact()


def _answers(result):
    return _digest(*(r.ids for r in result.results), *(r.counts for r in result.results))


def test_handle_kinds(benchmark, emit):
    rng = np.random.default_rng(SEED)
    corpus = _objects(rng, N_OBJECTS, long_until=100)
    queries = [rng.integers(0, DOMAIN, size=4).tolist() for _ in range(6)]

    def refit_answers(shadow):
        with GenieSession() as session:
            return _answers(session.create_index(shadow, model="raw").search(queries, k=K))

    def run():
        table = ResultTable(
            title="Handle kinds x lifecycle legs: what a partition refactor must not move",
            columns=["kind", "leg", "returned", "slices", "answers", "thresholds",
                     "attach", "evict", "failover", "built", "moved", "profile", "explain"],
            notes=[
                f"{N_OBJECTS} raw objects (the first 100 four times longer), 6 queries, k={K};",
                f"part_size kinds run under a {PART_BUDGET}-byte budget; range-4xR2 has",
                "device 1 crashed from t=0. answers / explain: sha256 prefixes;",
                "built / moved: the session's index_build seconds and residency events",
                "so far (what the legs' installs charged); profile: the search's stage",
                "seconds, exact repr. Simulated only: identical bytes on every run.",
            ],
        )
        by_leg: dict[int, set] = {}
        for kind, index_opts, session_opts in KINDS:
            session = GenieSession(**session_opts)
            handle = session.create_index(corpus, model="raw", name=kind, **index_opts)
            if index_opts.get("replicas"):
                session.inject_faults(FaultPlan([FaultEvent(device=1, start=0.0)]))
            shadow = list(corpus)
            for step, (leg, returned) in enumerate(_legs(handle, shadow)):
                explain = handle.explain(queries, k=K).render()
                result = handle.search(queries, k=K)
                answers = _answers(result)
                by_leg.setdefault(step, set()).add(answers)
                if kind == "serial":
                    assert answers == refit_answers(shadow), leg
                table.add_row(
                    kind=kind, leg=leg, returned=str(returned),
                    slices="/".join(map(str, handle.plan.sizes())),
                    answers=answers,
                    thresholds="/".join(str(r.threshold) for r in result.results),
                    attach=result.swapped_in, evict=len(result.evicted),
                    failover=len(result.failovers),
                    built=repr(session.host.timings.get("index_build")),
                    moved=session.residency_log.total_events,
                    profile=" ".join(f"{s}={v!r}" for s, v in result.profile.seconds.items()),
                    explain=hashlib.sha256(explain.encode()).hexdigest()[:16],
                )
            session.close()
        assert all(len(seen) == 1 for seen in by_leg.values()), "handle kinds disagree"
        return table

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(table)
    rebalanced = {row["kind"] for row in table.where(leg="rebalance", returned="True")}
    assert rebalanced == {"range-4", "range-4xR2"}
    assert any(row["evict"] for row in table.where(kind="part_size"))
    assert any(row["failover"] for row in table.where(kind="range-4xR2"))
