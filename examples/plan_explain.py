"""Query planning: explain, route, and force strategies on skewed traffic.

Builds a Fig. 12-style skewed workload — an Adult-like table sorted by
age, range-partitioned across four simulated shard devices — and shows:

* ``handle.explain(...)`` rendering the compiled plan for a narrow
  age-band query (routed to the one shard holding its band) vs a forced
  ``route="broadcast"`` plan,
* that routed and broadcast execution return bit-identical results while
  the routed plan leaves the pruned shards untouched,
* the ``plan="two-round"`` TPUT merge escape hatch (``plan="auto"`` is
  the one-round merge: two-round is a directive, never chosen for you),
* the plan cache answering repeated broadcast shapes without planning.

Run with: PYTHONPATH=src python examples/plan_explain.py
"""

import numpy as np

from repro.api import GenieSession
from repro.datasets.relational import adult_schema, make_adult_like

N_ROWS, N_SHARDS, K = 20_000, 4, 10


def main():
    columns = make_adult_like(n=N_ROWS, seed=0)
    order = np.argsort(columns["age"], kind="stable")
    columns = {name: values[order] for name, values in columns.items()}

    session = GenieSession()
    adult = session.create_index(
        columns, model="relational", schema=adult_schema(), name="adult",
        shards=N_SHARDS,
    )

    # A narrow age band lives in one shard of the age-sorted table.
    band = [{"age": (24.0, 26.0)}]

    print("pruned plan (the planner's default on range partitions):")
    print(adult.explain(band, k=K).render())
    print()
    print("forced broadcast plan:")
    print(adult.explain(band, k=K, route="broadcast").render())
    print()

    routed = adult.search(band, k=K)
    broadcast = adult.search(band, k=K, route="broadcast")
    assert np.array_equal(routed.results[0].ids, broadcast.results[0].ids)
    assert np.array_equal(routed.results[0].counts, broadcast.results[0].counts)
    print("routed and broadcast results are bit-identical (asserted)")
    print(f"routing: {routed.routing}")
    routed_busy = sum(p.query_total() for p in routed.shard_profiles)
    broadcast_busy = sum(p.query_total() for p in broadcast.shard_profiles)
    print(
        f"aggregate shard-device time: routed {routed_busy * 1e6:.2f}us "
        f"vs broadcast {broadcast_busy * 1e6:.2f}us "
        f"({routed.routing.pruned_fraction:.0%} of shard scans pruned)"
    )
    print()

    print("two-round TPUT merge (escape hatch):")
    tput = adult.search(band, k=K, plan="two-round")
    assert np.array_equal(routed.results[0].ids, tput.results[0].ids)
    print(tput.plan.render())
    print("still bit-identical (asserted)")
    print()

    # A pruned plan reads the batch's keywords, so it compiles per batch;
    # a broadcast plan reads only the batch's shape, so it is cached.
    adult.search(band, k=K, route="broadcast")
    plan_route = session.host.timings.get("plan_route")
    adult.search(band, k=K, route="broadcast")  # same shape: warm plan-cache lane
    assert session.host.timings.get("plan_route") == plan_route
    print(
        "repeat of the same broadcast shape hit the plan cache: "
        f"zero additional plan_route seconds "
        f"(cache stats: {session.plan_cache.stats()})"
    )


if __name__ == "__main__":
    main()
