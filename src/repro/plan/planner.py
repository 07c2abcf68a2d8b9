"""The rule-based planner: compile every search into one explicit plan.

:func:`compile_search` is the single lowering point for the session
layer's entry points (`IndexHandle.search` on serial and sharded
indexes, and `GenieServer`'s batch dispatch). It applies three rules, each
preserving bit-identical results:

1. **Skip elision** — queries a model marks unanswerable (``skip_empty``
   models with no indexed keywords) drop out of the scan node entirely;
   they would only produce empty results. (The serve layer's cache
   performs the same elision one level up, at admission, so cached
   queries never reach a plan at all.)
2. **Shard pruning** — for ``"range"``-partitioned sharded indexes, the
   query batch is routed to only the shards whose keyword bounds show
   they can contain candidates for at least one query. A shard with none
   of the batch's keywords would return empty candidate lists for every
   query (zero-count objects never enter the top-k), so pruning it
   cannot change the merged answer — it only stops the batch from paying
   that shard's scan/transfer overhead. Pruning is *batch-granular*: an
   eligible shard scans the whole batch in one launch identical to its
   broadcast launch (the device cost model amortizes atomics over a
   launch's active SMs, so thin per-query sub-batches would cost *more*
   simulated time, not less), which makes the routed critical path
   provably <= the broadcast one. Hash partitions spread every keyword
   across all shards, so the rule is skipped there unless forced with
   ``route="pruned"``.
3. **Two-round TPUT merge** — opt-in via ``plan="two-round"``: round one
   fetches ``first_round_k = ceil(2k / n_shards)`` candidates per shard
   (see :func:`first_round_k_for` for the over-fetch margin) plus each
   shard's round-one threshold (its lowest returned count);
   round two re-fetches the full ``k`` only from shards whose threshold
   proves an unfetched candidate could still enter the global top-k.
   The exact fallback (any doubt → top up) keeps results bit-identical
   to the one-round merge.

The escape hatches ``route=`` (``"auto"`` / ``"pruned"`` /
``"broadcast"``) and ``plan=`` (``"auto"`` / ``"one-round"`` /
``"two-round"``) force a strategy instead of letting the rules choose.

Nothing is priced. The route is a rule (range partitions prune, hash
partitions broadcast): a pruned plan scans a subset of the broadcast
plan's shards with identical launches and merges fewer candidates, so its
critical path is never longer. The merge is rule 3: one-round unless the
request says ``plan="two-round"``, so ``plan="auto"`` is ``"one-round"``
(:func:`validate_plan_args` canonicalizes it).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.cluster.plan import ShardPlan
from repro.core.types import QueryBatch
from repro.errors import QueryError
from repro.plan.nodes import (
    DeltaScanNode,
    EncodeNode,
    FinalizeNode,
    MergeNode,
    PlanNode,
    RoutingSummary,
    ScanNode,
    ShardScanNode,
)

#: Accepted values of the ``route=`` escape hatch.
ROUTE_CHOICES = ("auto", "pruned", "broadcast")

#: Accepted values of the ``plan=`` (merge strategy) escape hatch.
PLAN_CHOICES = ("auto", "one-round", "two-round")


@dataclass
class CompiledPlan:
    """A compiled search: the logical plan tree plus physical annotations.

    Attributes:
        root: The logical plan (what ``explain()`` returns and renders).
        index: Index name the plan targets.
        k: User-facing result width.
        retrieval_k: Scan/merge width (the model's shortlist ``k``).
        n_queries: Raw queries entering the plan.
        active: Positions of the queries that reach the scan (skip
            elision removes the rest).
        shards: The handle's partition (its
            :class:`~repro.cluster.plan.ShardPlan`) when the index is
            sharded, ``None`` for a serial plan.
        routes: Per shard, indices **into** ``active`` routed to it —
            the whole batch for eligible shards, empty for pruned ones
            (``None`` for serial plans).
        merge: ``"direct"`` (single serial part), ``"one-round"``, or
            ``"two-round-tput"``.
        first_round_k: TPUT round-one per-shard width (else ``None``).
        routing: Scan/prune pair accounting, or ``None`` for serial.
        routing_ops: Host operations the routing decision itself costs
            (binary-searching every query keyword against each shard's
            keyword bounds); the executor charges them to the host's
            ``plan_route`` stage so the decision step is accounted, not
            free. Like query encoding it is pre-dispatch work that
            overlaps device execution, so it does not join the batch's
            critical-path profile. ``0.0`` when no pruning was computed;
            ``explain()`` compiles without executing and never pays it.
    """

    root: PlanNode
    index: str
    k: int
    retrieval_k: int
    n_queries: int
    active: list[int]
    shards: ShardPlan | None
    routes: list[np.ndarray] | None
    merge: str
    first_round_k: int | None
    routing: RoutingSummary | None
    routing_ops: float = 0.0


def validate_plan_args(route, plan, sharded: bool) -> tuple[str, str]:
    """Normalize/validate the ``route=`` / ``plan=`` escape hatches.

    Called eagerly by the server at admission so a bad directive fails
    the submitting request, not a coalesced batch. The returned forms
    are canonical: directives that compile to the same strategy compare
    equal, so the server's coalescing lanes and the plan cache never split
    semantically identical requests. ``plan="auto"`` is ``"one-round"``
    (two-round is opt-in). ``route="auto"`` stays distinct from the
    explicit choices because its meaning is contextual — it depends on the
    partition strategy — so forcing a route and letting the planner choose
    it must land in different lanes.

    Raises:
        QueryError: Unknown value, or a shard-only strategy forced on a
            serial index.
    """
    route = "auto" if route is None else str(route)
    plan = "one-round" if plan is None else str(plan)
    if route not in ROUTE_CHOICES:
        raise QueryError(f"unknown route {route!r}; expected one of {ROUTE_CHOICES}")
    if plan not in PLAN_CHOICES:
        raise QueryError(f"unknown plan {plan!r}; expected one of {PLAN_CHOICES}")
    if not sharded:
        if route != "auto":
            raise QueryError(
                f"route={route!r} requires a sharded index (create_index(..., shards=N))"
            )
        if plan == "two-round":
            raise QueryError(
                "plan='two-round' requires a sharded index (the two-round "
                "merge trades shard fetch width against a top-up round)"
            )
    return route, "one-round" if plan == "auto" else plan


def eligibility_needed(route: str, strategy: str) -> bool:
    """Whether compiling ``route`` computes exact per-query eligibility.

    The single source of truth shared by :func:`compile_search` and the
    session's plan-cache gate: forced pruning always needs it, and
    ``route="auto"`` needs it where the rule prunes (range partitions).
    Broadcast never does — which is why only broadcast plans, whose
    compile reads the batch's shape alone, are cached.
    """
    return route == "pruned" or (route == "auto" and strategy == "range")


def active_batch(queries: QueryBatch, active: list[int]) -> QueryBatch:
    """The queries at the plan's ``active`` positions (the batch itself when all are)."""
    return queries if len(active) == len(queries) else queries.take(active)


def route_queries(
    queries: QueryBatch, shard_keywords: tuple[np.ndarray, ...]
) -> list[np.ndarray]:
    """Which queries can match in which shards, by keyword bounds.

    A query can only produce a positive match count in a shard if at
    least one of its keywords appears in that shard's slice of the
    corpus; otherwise every count is zero there and the shard's candidate
    list is empty by construction. The test is exact, so routing never
    changes results — only which shards pay scan overhead. (The planner
    consumes this per query as *eligibility*; execution prunes at batch
    granularity, skipping only shards eligible for no query at all.)

    Returns:
        Per shard, the (ascending) positions of the queries eligible on it.
    """
    flat, owner = queries.keywords, queries.keyword_query
    routes = []
    for shard_kw in shard_keywords:
        if flat.size == 0 or shard_kw.size == 0:
            routes.append(np.empty(0, dtype=np.int64))
            continue
        pos = np.minimum(np.searchsorted(shard_kw, flat), shard_kw.size - 1)
        routes.append(np.unique(owner[shard_kw[pos] == flat]))
    return routes


def first_round_k_for(retrieval_k: int, n_shards: int) -> int:
    """TPUT round-one per-shard fetch width: ``ceil(2k / n_shards)``.

    The factor-2 over-fetch is the classic TPUT safety margin: with
    candidates spread roughly evenly, a round-one pool of ~``2k``
    candidates pins the ``k``-th-count cutoff well above most shards'
    round-one thresholds, so few shards need the top-up round (a pool of
    exactly ``k`` would make the cutoff its own weakest member, which no
    shard threshold can beat, forcing every shard to top up). Capped at
    ``k - 1`` so round one always fetches strictly less than a one-round
    merge would; exactness never depends on the width — the top-up
    fallback covers any skew.
    """
    over_fetch = -(-2 * int(retrieval_k) // max(1, int(n_shards)))
    return max(1, min(int(retrieval_k) - 1, over_fetch))


def _merge_strategy(plan_choice: str, retrieval_k: int, n_shards: int):
    """Resolve a plan directive to ``(merge, first_round_k)``.

    A ``"two-round"`` request degenerates to one-round when there is a
    single shard or the round-one width cannot undercut ``retrieval_k``
    (nothing to save).
    """
    if plan_choice == "two-round":
        first_k = first_round_k_for(retrieval_k, n_shards)
        if n_shards > 1 and first_k < retrieval_k:
            return "two-round-tput", first_k
    return "one-round", None


def _dirty_stream(handle):
    """The handle's live stream state, or ``None`` for a clean index."""
    stream = getattr(handle, "_stream", None)
    if stream is not None and stream.dirty:
        return stream
    return None


def reprice_plan(compiled: CompiledPlan) -> CompiledPlan:
    """A plan-cache hit: the cached plan, whose routing was paid at first compile."""
    # A name the wall-clock harness wraps ("plan.compile" in benchmarks/wallclock/trace.py); goes with the plan cache.
    return dataclasses.replace(compiled, routing_ops=0.0)


def compile_search(
    handle,
    queries: QueryBatch,
    k: int,
    retrieval_k: int,
    route=None,
    plan=None,
) -> CompiledPlan:
    """Compile one search over ``handle`` into a :class:`CompiledPlan`.

    ``handle`` is duck-typed: the planner reads ``name``, ``model``,
    ``num_parts``, ``swap_parts``, ``placement`` (``None`` on an unsharded
    handle, which compiles a serial plan) and ``plan``, the partition whose
    slices' keyword tables a sharded plan routes against.

    Raises:
        QueryError: Invalid ``route=`` / ``plan=`` directives.
    """
    shards: ShardPlan | None = handle.plan if handle.placement is not None else None
    route, plan = validate_plan_args(route, plan, sharded=shards is not None)
    model_name = getattr(handle.model, "name", type(handle.model).__name__)
    stream = _dirty_stream(handle)

    # Rule 1: skip elision.
    if getattr(handle.model, "skip_empty", False):
        has_items = queries.items_per_query > 0
        active = np.flatnonzero(has_items).tolist()
        elided = tuple(np.flatnonzero(~has_items).tolist())
    else:
        active = list(range(len(queries)))
        elided = ()
    encode = EncodeNode(model=model_name, n_queries=len(queries), elided=elided)
    active_queries = active_batch(queries, active)

    routes = routing = first_k = None
    routing_ops = 0.0
    if shards is None:
        scan = ScanNode(
            index=handle.name,
            parts=handle.num_parts,
            swap_parts=handle.swap_parts,
            n_queries=len(active),
            k=retrieval_k,
            inputs=(encode,),
        )
        # A mutated serial index always merges: base part(s) plus the
        # delta run, tombstones filtered before the top-k.
        merge = "direct" if handle.num_parts <= 1 and stream is None else "one-round"
    else:
        # Rule 2: shard pruning (range partitions by default), applied at
        # batch granularity: a shard eligible for any query scans the
        # whole batch; a shard eligible for none is skipped entirely.
        everyone = np.arange(len(active), dtype=np.int64)
        if eligibility_needed(route, shards.strategy):
            # One binary search per (query keyword, shard) into the shard's
            # keyword bounds — the host cost of the routing decision.
            shard_keywords = [shard.keywords() for shard in shards.shards]
            routing_ops = float(active_queries.keywords.size) * sum(
                np.log2(max(kw.size, 2)) for kw in shard_keywords
            )
            eligible = route_queries(active_queries, shard_keywords)
            routes = [everyone if e.size else e for e in eligible]
        else:
            eligible = [everyone for _ in range(shards.n_shards)]
            routes = list(eligible)

        # Rule 3: two-round TPUT merge (exact by construction), opt-in.
        # Unavailable while the delta run is live: every source merges
        # one-round, the top-up protocol's per-shard thresholds do not
        # extend to the delta run.
        merge, first_k = _merge_strategy(
            "one-round" if stream is not None else plan, retrieval_k, shards.n_shards
        )
        scanned_pairs = int(sum(r.size for r in routes))
        total_pairs = shards.n_shards * len(active)
        routing = RoutingSummary(
            n_shards=shards.n_shards,
            n_queries=len(active),
            scanned_pairs=scanned_pairs,
            pruned_pairs=total_pairs - scanned_pairs,
        )
        scan = ShardScanNode(
            index=handle.name,
            strategy=shards.strategy,
            n_shards=shards.n_shards,
            n_queries=len(active),
            k=first_k if first_k is not None else retrieval_k,
            eligible=tuple(tuple(int(active[j]) for j in e) for e in eligible),
            broadcast=routing.broadcast,
            inputs=(encode,),
        )

    root: PlanNode = scan
    if merge != "direct":
        inputs: tuple[PlanNode, ...] = (scan,)
        if stream is not None:
            manifest = stream.manifest
            delta = DeltaScanNode(
                index=handle.name, n_objects=manifest.delta_objects, postings=manifest.delta_postings,
                tombstones=manifest.tombstones.size, n_queries=len(active), k=retrieval_k,
            )
            inputs = (scan, delta)
        root = MergeNode(
            strategy=merge,
            k=retrieval_k,
            first_round_k=first_k,
            inputs=inputs,
        )

    if getattr(handle.model, "finalize", None) is not None:
        root = FinalizeNode(model=model_name, k=k, inputs=(root,))

    return CompiledPlan(
        root=root,
        index=handle.name,
        k=k,
        retrieval_k=retrieval_k,
        n_queries=len(queries),
        active=active,
        shards=shards,
        routes=routes,
        merge=merge,
        first_round_k=first_k,
        routing=routing,
        routing_ops=routing_ops,
    )
