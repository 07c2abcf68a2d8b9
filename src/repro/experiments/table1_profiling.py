"""Table I: per-stage time profile of GENIE on every dataset.

Stages: index build (offline, CPU), index transfer, query transfer, match,
select (DBLP's select includes edit-distance verification, as in the
paper). Expected shape: match dominates query time; transfers are a small
fraction; index build is the (excluded) one-off cost.
"""

from __future__ import annotations

import numpy as np

from repro.api.session import GenieSession
from repro.datasets import registry
from repro.datasets.documents import make_document_queries
from repro.datasets.relational import adult_schema, make_range_queries
from repro.datasets.sequences import make_query_set
from repro.experiments.common import DEFAULT_K, fit_genie_ocr, fit_genie_sift
from repro.experiments.table import ResultTable

STAGE_COLUMNS = ["index_build", "index_transfer", "query_transfer", "match", "select"]


def run(n_queries: int = 256, n: int | None = None, k: int = DEFAULT_K, seed: int = 0) -> ResultTable:
    """Profile GENIE's pipeline stages on the five datasets."""
    table = ResultTable(
        title=f"Table I: GENIE stage profile for {n_queries} queries (simulated seconds)",
        columns=["dataset"] + STAGE_COLUMNS,
        notes=["DBLP's select stage includes edit-distance verification (host)."],
    )

    for name in ("ocr", "sift"):
        dataset = registry.load(name, n=n, seed=seed)
        setup = fit_genie_ocr(dataset, seed=seed) if name == "ocr" else fit_genie_sift(dataset, seed=seed)
        reps = int(np.ceil(n_queries / len(dataset.queries)))
        queries = np.tile(dataset.queries, (reps, 1))[:n_queries]
        setup.handle.search(queries, k=k)
        _add_profile_row(table, name, setup.handle.engine, setup.session.host)

    titles = registry.load("dblp", n=n, seed=seed)
    session = GenieSession()
    seq_index = session.create_index(titles, model="sequence", n=3)
    seq_queries, _ = make_query_set(titles, min(n_queries, len(titles)), 0.2, seed=seed + 1)
    dev0 = session.device.timings.copy()
    host0 = session.host.timings.copy()
    for q in seq_queries:
        seq_index.search([q], k=1, n_candidates=32)
    profile = {s: session.device.timings.get(s) - dev0.get(s) for s in STAGE_COLUMNS}
    profile["select"] += session.host.timings.get("verify") - host0.get("verify")
    profile["index_build"] = session.host.timings.get("index_build")
    profile["index_transfer"] = dev0.get("index_transfer")
    table.add_row(dataset="dblp", **profile)

    docs = registry.load("tweets", n=n, seed=seed)
    doc_index = GenieSession().create_index(docs, model="document")
    doc_queries, _ = make_document_queries(docs, n_queries, seed=seed + 1)
    doc_index.search(doc_queries, k=k)
    _add_profile_row(table, "tweets", doc_index.engine, doc_index.engine.host)

    columns = registry.load("adult", n=n, seed=seed)
    rel_index = GenieSession().create_index(columns, model="relational", schema=adult_schema())
    rel_queries = make_range_queries(columns, n_queries, seed=seed + 1)
    rel_index.search(rel_queries, k=k)
    _add_profile_row(table, "adult", rel_index.engine, rel_index.engine.host)

    return table


def _add_profile_row(table: ResultTable, dataset: str, engine, host) -> None:
    profile = engine.last_profile
    row = {stage: profile.get(stage) for stage in STAGE_COLUMNS}
    row["index_build"] = host.timings.get("index_build")
    row["index_transfer"] = engine.device.timings.get("index_transfer")
    table.add_row(dataset=dataset, **row)


if __name__ == "__main__":
    print(run())
