"""Sharded multi-device search: same answers, critical-path latency.

Partitions one corpus across four simulated devices through the session
surface (``shards=4``), shows the per-shard profile slices and residency
accounting, verifies the results are bit-identical to an unsharded index,
and repeats the search on a range partition of the same data.

Run with: PYTHONPATH=src python examples/sharded_search.py
"""

import numpy as np

from repro.api import GenieSession
from repro.core.types import Query

M, DOMAIN, N_OBJECTS, N_QUERIES, K = 32, 1024, 12_000, 64, 10


def make_workload(seed=0):
    rng = np.random.default_rng(seed)
    base = np.arange(M) * DOMAIN
    objects = [base + rng.integers(0, DOMAIN, size=M) for _ in range(N_OBJECTS)]
    queries = [
        Query.from_keywords(base + rng.integers(0, DOMAIN, size=M))
        for _ in range(N_QUERIES)
    ]
    return objects, queries


def main():
    objects, queries = make_workload()

    # --- session surface: create_index(..., shards=N) -----------------
    session = GenieSession()
    plain = session.create_index(objects, model="raw", name="plain")
    sharded = session.create_index(
        objects, model="raw", name="sharded", shards=4, shard_strategy="hash"
    )
    print(f"shards: {sharded.n_shards}  (strategy {sharded.plan.strategy})")
    print(f"objects per shard: {sharded.plan.sizes()}")
    print(f"resident parts: {session.resident_parts()}")

    reference = plain.search(queries, k=K)
    result = sharded.search(queries, k=K)
    for expected, got in zip(reference.results, result.results):
        assert np.array_equal(expected.ids, got.ids)
        assert np.array_equal(expected.counts, got.counts)
    print("sharded results bit-identical to the unsharded index")

    single = reference.profile.query_total()
    critical = result.profile.query_total()
    print(f"unsharded batch: {single * 1e6:8.2f} simulated us")
    print(f"4-shard batch:   {critical * 1e6:8.2f} simulated us "
          f"({single / critical:.2f}x, critical path)")
    for position, profile in enumerate(result.shard_profiles):
        print(f"  shard {position}: {profile.query_total() * 1e6:7.2f} us "
              f"(match {profile.get('match') * 1e6:.2f} us)")
    print(f"host merge: {result.profile.get('result_merge') * 1e6:.2f} us")

    # --- the other partition strategy: contiguous object ranges --------
    ranged = session.create_index(objects, model="raw", name="ranged", shards=4)
    range_result = ranged.search(queries, k=K)
    assert all(
        np.array_equal(a.ids, b.ids)
        for a, b in zip(range_result.results, reference.results)
    )
    print(f"range partition {ranged.placement.layout} agrees; "
          f"critical path {range_result.profile.query_total() * 1e6:.2f} us")


if __name__ == "__main__":
    main()
