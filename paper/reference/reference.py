"""The per-query specification of GENIE's match / select pipeline.

What the production scan (:mod:`repro.core.batch_scan`) computes for a whole
batch with flat arrays is written out here one query at a time, the way
Section III-B/C of the paper describes it: one block per query item, one
counter per object, and the c-PQ's top-k, final AuditThreshold and cost
statistics as pure functions of the final counts (Theorem 3.1 pins ``AT`` to
``MC_k + 1`` whatever the scan order). :func:`reference_query` runs the
exact Algorithm-1 c-PQ, update by update.

It lives outside the installed package, which never imports it
(``tests/test_layering.py``). :func:`plan_batch` assembles the same
:class:`~repro.core.batch_scan.BatchScanPlan` the production scan returns,
so the two are compared field by field; the GEN-SPQ baseline
(:mod:`paper.baselines.gen_spq`) reads its counts and launch statistics from
the same per-query plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from paper.reference.cpq import CountPriorityQueue
from repro.core.batch_scan import BatchScanPlan
from repro.core.inverted_index import InvertedIndex
from repro.core.load_balance import group_spans_into_blocks
from repro.core.types import Query, TopKResult


def match_counts(index: InvertedIndex, query: Query) -> np.ndarray:
    """Final per-object match counts of one query (the match-count model).

    Keywords resolve to spans, spans gather to object ids, and one
    ``bincount`` equals scanning the postings and bumping a counter per entry.
    """
    rows, found = index.keyword_rows(query.all_keywords())
    span_rows, _ = index.span_rows_for_keyword_rows(rows[found])
    ids = index.gather_span_rows(span_rows)
    return np.bincount(ids, minlength=index.n_objects).astype(np.int64)


def audit_threshold_from_counts(counts: np.ndarray, k: int) -> int:
    """The final AuditThreshold: ``MC_k + 1`` by Theorem 3.1.

    ``MC_k`` is the k-th largest count (0 if fewer than k objects exist).
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return 1
    k = min(int(k), counts.size)
    kth = np.partition(counts, counts.size - k)[counts.size - k]
    return int(kth) + 1


def topk_from_counts(counts: np.ndarray, k: int) -> TopKResult:
    """Exact top-k (count desc, id asc) from a final count vector.

    Only objects with positive counts are returned, matching the reference
    c-PQ (zero-count objects never enter the Hash Table).
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = int(k)
    n = counts.size
    if n == 0 or k <= 0:
        return TopKResult(ids=np.empty(0, dtype=np.int64), counts=np.empty(0, dtype=np.int64))
    take = min(k, n)
    threshold = audit_threshold_from_counts(counts, k) - 1
    # Everything above the k-th count is in; boundary ties (== threshold)
    # fill the remaining slots by ascending id, deterministically.
    sure = np.nonzero(counts > threshold)[0]
    ties = np.nonzero(counts == threshold)[0][: take - sure.size]
    top_ids = np.concatenate([sure, ties])
    top_counts = counts[top_ids]
    order = np.lexsort((top_ids, -top_counts))
    top_ids, top_counts = top_ids[order], top_counts[order]
    positive = top_counts > 0
    return TopKResult(ids=top_ids[positive], counts=top_counts[positive], threshold=threshold)


@dataclass
class CpqCostState:
    """Cost-relevant c-PQ statistics derived from a final count vector.

    Attributes:
        audit_threshold: Final ``AT``.
        ht_entries: Upper-bound estimate of Hash-Table population
            (``min(nonzero, k * AT)``, the Theorem 3.1 bound).
        gate_passes: Estimated Gate passes (Hash-Table write attempts).
        updates: Total Bitmap-Counter increments (= postings entries
            scanned for the query).
    """

    audit_threshold: int
    ht_entries: int
    gate_passes: float
    updates: int


def derive_cpq_cost(counts: np.ndarray, k: int) -> CpqCostState:
    """Derive c-PQ cost statistics from a query's final count vector.

    The Gate-pass estimate counts, for each count level ``c``, at most ``k``
    objects passing while ``AT == c`` plus all increments made by objects
    above the final threshold — a faithful stand-in for the scan-order-
    dependent exact number, and an upper bound of the same order.
    """
    counts = np.asarray(counts, dtype=np.int64)
    at = audit_threshold_from_counts(counts, k)
    nonzero = int(np.count_nonzero(counts))
    ht_entries = min(nonzero, int(k) * at)
    # Objects whose final count c >= AT-1 contributed ~ (c - AT + 2) passing
    # updates each; lower objects contributed at most k passes per level.
    high = counts[counts >= max(at - 1, 1)]
    passes_high = float(np.sum(high - max(at - 1, 1) + 1)) if high.size else 0.0
    passes_low = float(min(nonzero, k) * max(at - 1, 0))
    return CpqCostState(
        audit_threshold=at,
        ht_entries=ht_entries,
        gate_passes=passes_high + passes_low,
        updates=int(counts.sum()),
    )


@dataclass
class QueryScanPlan:
    """Work layout of one query's scan.

    Attributes:
        query_index: Position of the query in the batch.
        block_sizes: Postings entries scanned by each block of this query.
        counts: Final per-object match counts (the functional result).
        cpq_cost: Derived c-PQ cost statistics for the query.
    """

    query_index: int
    block_sizes: np.ndarray
    counts: np.ndarray
    cpq_cost: CpqCostState


def plan_query_scan(index: InvertedIndex, query: Query, query_index: int, k: int) -> QueryScanPlan:
    """Lay out the block structure and compute final counts for one query.

    Without load balancing each query item gets one block (the paper's
    baseline mapping); with load balancing, each item's sublists are grouped
    ``max_lists_per_block`` at a time. A query that scans nothing still
    launches one empty block.
    """
    block_sizes: list[int] = []
    lb = index.load_balance
    for item in query.items:
        spans = index.spans_for_keywords(item)
        if not spans:
            continue
        if lb is None:
            block_sizes.append(sum(end - start for start, end in spans))
        else:
            for group in group_spans_into_blocks(spans, lb.max_lists_per_block):
                block_sizes.append(sum(end - start for start, end in group))

    counts = match_counts(index, query)
    return QueryScanPlan(
        query_index=query_index,
        block_sizes=np.asarray(block_sizes or [0], dtype=np.int64),
        counts=counts,
        cpq_cost=derive_cpq_cost(counts, k),
    )


def plan_batch(index: InvertedIndex, queries: list[Query], k: int) -> BatchScanPlan:
    """The specification's :class:`BatchScanPlan`: one planner call per query."""
    return stack_plans([plan_query_scan(index, query, qi, k) for qi, query in enumerate(queries)], k)


def stack_plans(plans: list[QueryScanPlan], k: int) -> BatchScanPlan:
    """One :class:`BatchScanPlan` from a batch's per-query plans, in order."""
    positive = [plan.counts[plan.counts > 0] for plan in plans]
    return BatchScanPlan(
        n_queries=len(plans),
        block_sizes=np.concatenate([plan.block_sizes for plan in plans]),
        updates=np.asarray([plan.cpq_cost.updates for plan in plans], dtype=np.int64),
        gate_passes=np.asarray([plan.cpq_cost.gate_passes for plan in plans], dtype=np.float64),
        count_hist=np.bincount(np.concatenate(positive)),
        results=[topk_from_counts(plan.counts, k) for plan in plans],
    )


def reference_query(
    index: InvertedIndex,
    query: Query,
    k: int,
    count_bound: int,
    bits: int | None = None,
    expired_overwrite: bool = True,
) -> TopKResult:
    """Exact Algorithm-1 execution: scan postings in span order through c-PQ.

    ``bits`` (Bitmap-Counter width) and ``expired_overwrite`` (the Robin Hood
    modification) are the c-PQ's two ablation knobs.
    """
    cpq = CountPriorityQueue(index.n_objects, k, count_bound, bits=bits, expired_overwrite=expired_overwrite)
    for item in query.items:
        cpq.update_many(index.gather(index.spans_for_keywords(item)))
    return cpq.select_topk()
