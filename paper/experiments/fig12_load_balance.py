"""Fig. 12: effect of load balancing on the Adult workload.

Exact-match queries on a table with skewed categorical columns hit very
long postings lists. Expected shape (paper): with few queries, splitting
long lists clearly wins (idle SMs pick up the sublists); the gap shrinks
as the query count grows, and once the GPU is saturated the load-balanced
variant is slightly *slower* (split-index overhead).
"""

from __future__ import annotations

from paper.experiments.table import ResultTable
from repro.api.session import GenieSession
from repro.core.engine import GenieConfig
from repro.core.load_balance import LoadBalanceConfig
from repro.datasets import registry
from repro.datasets.relational import adult_schema, make_exact_match_queries

#: Scaled query counts (paper sweeps 1..16 on a 100M-row table).
DEFAULT_QUERY_COUNTS = (1, 2, 4, 8, 16)


def run(
    query_counts: tuple[int, ...] = DEFAULT_QUERY_COUNTS,
    n: int = 40_000,
    k: int = 10,
    max_sublist_len: int = 1024,
    seed: int = 0,
) -> ResultTable:
    """Run Adult exact-match queries with and without load balancing."""
    columns = registry.load("adult", n=n, seed=seed)
    query_pool = make_exact_match_queries(columns, max(query_counts), seed=seed + 1)

    variants = {
        "GENIE_LB": GenieConfig(k=k, load_balance=LoadBalanceConfig(max_sublist_len=max_sublist_len)),
        "GENIE_noLB": GenieConfig(k=k, load_balance=None),
    }
    indexes = {
        name: GenieSession().create_index(
            columns, model="relational", schema=adult_schema(), config=config
        )
        for name, config in variants.items()
    }

    table = ResultTable(
        title=f"Fig. 12: load balance on Adult ({n} rows, simulated seconds)",
        columns=["n_queries", "GENIE_LB", "GENIE_noLB"],
    )
    for n_queries in query_counts:
        row = {"n_queries": n_queries}
        for name, index in indexes.items():
            index.search(query_pool[:n_queries], k=k)
            row[name] = index.engine.last_profile.query_total()
        table.add_row(**row)
    return table


if __name__ == "__main__":
    print(run())
