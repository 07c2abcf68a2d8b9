"""One execution loop: scan rounds over a source list, then one merge.

The paper has one retrieval step (scan postings → c-PQ top-k, Theorem
3.1) and one way to scale it (Section III-D: scan parts, merge their
top-k on the host). :func:`execute_plan` runs every plan
:func:`repro.plan.planner.compile_search` produces in that shape:

1. build the **source list** — replica 0 of every slice of the handle's
   partition (one slice, ``part_size`` slices sharing a device, or one
   shard slice per pool device) plus the delta run's slice while it holds
   live mutations;
2. run one :func:`_scan_round` over it (two for a TPUT plan), each scan
   through :func:`_scan_one` — fault check, replica choice, residency,
   engine call, ``swap_parts`` eviction, profile. Every source keeps one
   query-aligned :class:`~repro.core.types.TopKBatch` (an empty segment
   where it was not routed), its ids remapped to global ids with one
   gather as the scan lands;
3. strike tombstoned base candidates — one gather of per-id marks;
4. fold the per-source profiles along the timeline: sources on their own
   devices run concurrently (the slowest is the critical path), sources
   sharing a device add up;
5. finish with :func:`~repro.cluster.executor.merge_shard_results` —
   skipped only by the ``"direct"`` plan (one clean source), whose scan
   batch already is the answer.

Candidates cross all of it as flat arrays; nothing here walks queries or
(source, query) pairs in python.

Handle kind and stream state change the source list, never the loop, so
the planner's contract — **every strategy returns bit-identical
results** (ids, counts, tie order, thresholds) — and the fault,
residency and pricing rules hold for all of them alike.

Cost model notes:

* A routed shard scan pays query transfer / scan / select only for the
  queries routed to it; a fully pruned shard is not touched at all (not
  even made resident).
* A two-round TPUT execution's critical path is
  ``max(shard round-1) + round-1 threshold merge + max(shard round-2) +
  final merge`` — the rounds are global barriers, so the per-round
  critical paths add instead of max-ing over whole shard timelines.
* Base parts of a mutated index scan at a width of ``retrieval_k +
  tombstones``: filtering strikes at most ``tombstones`` candidates from
  a part's list, so the widened fetch still contains the part's live
  top-``retrieval_k``. The delta run scans the whole batch (recent
  writes obey no partition bounds) on the primary device after the base
  round, and the merge re-pins thresholds against the logical corpus
  size exactly as a from-scratch refit would.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.executor import critical_path_profile, merge_shard_results, pool_candidates
from repro.core.types import ID_DTYPE, QueryBatch, TopKBatch
from repro.errors import AvailabilityError
from repro.gpu.stats import StageTimings
from repro.plan.planner import CompiledPlan
from repro.replica.faults import STATUS_DOWN, FailoverEvent


def execute_plan(
    compiled: CompiledPlan,
    handle,
    queries: QueryBatch,
    batch_size: int | None,
    profile: StageTimings,
    trace=None,
) -> tuple[TopKBatch, list[StageTimings] | None]:
    """Run a compiled plan over the *active* queries.

    Args:
        compiled: The plan from :func:`~repro.plan.planner.compile_search`.
        handle: The session index handle owning the parts.
        queries: The active (post-elision) encoded batch, aligned with
            ``compiled.active``.
        batch_size: Device sub-batch size (Fig. 11 protocol), or ``None``.
        profile: Stage profile the execution accumulates into; for shard
            plans this receives the concurrent critical path.
        trace: Optional :class:`~repro.obs.trace.Span` the execution adds
            stage spans to (scan / delta-scan / tombstone-filter / merge),
            on a timeline starting at 0.0; the caller shifts the subtree
            onto absolute simulated time. ``None`` records nothing.

    Returns:
        ``(results, shard_profiles)``: one batch aligned with the active
        queries, and per-shard base-scan profile slices (``None`` for
        serial plans).
    """
    host = handle.session.host
    n_queries = len(queries)
    k = compiled.retrieval_k
    sharded = compiled.shards is not None
    stream = handle._stream
    dirty = stream is not None and stream.dirty
    if compiled.routing_ops:
        # The routing decision is pre-dispatch host work (binary searches
        # against the shard keyword bounds). Like query encoding — the
        # same class of work — it is charged to the host's accounting but
        # not to the batch profile: it happens before any device is
        # touched and overlaps device execution under pipelined dispatch,
        # so it is not on the batch's critical path.
        host.charge_ops(compiled.routing_ops, stage="plan_route")

    base = handle._parts
    delta = stream.delta_part() if dirty else None
    deltas = [delta] if delta is not None else []
    sources = base + deltas
    n_base = len(base)
    everyone = np.arange(n_queries, dtype=np.int64)
    routes = (list(compiled.routes) if sharded else [everyone] * n_base) + [everyone] * len(deltas)
    tombstones = stream.manifest.tombstones if dirty else np.empty(0, dtype=ID_DTYPE)
    two_round = compiled.merge == "two-round-tput"
    base_k = compiled.first_round_k if two_round else k + int(tombstones.size)

    # candidates[source]: the source's top-k per query under global ids,
    # an empty segment where the source was not scanned for the query.
    candidates = [TopKBatch.empty(n_queries) for _ in sources]
    scans = _scan_round(
        handle, sources, routes, [base_k] * n_base + [k] * len(deltas),
        queries, batch_size, candidates,
    )
    if two_round:
        topup_routes, threshold_seconds = _tput_topup_routes(
            candidates, n_queries, k, base_k, host
        )
        topups = _scan_round(
            handle, base, topup_routes, [k] * n_base, queries, batch_size, candidates
        )
    candidates[:n_base], filter_seconds = _strike_tombstones(candidates[:n_base], stream.manifest if dirty else None, host)

    _fold(profile, scans[:n_base], concurrent=sharded)
    if two_round:
        profile.add("result_merge", threshold_seconds)
        _fold(profile, topups, concurrent=sharded)
    _fold(profile, scans[n_base:], concurrent=False)
    if filter_seconds:
        profile.add("tombstone_filter", filter_seconds)
    if compiled.merge == "direct":
        merged = candidates[0]
    else:
        n_objects = stream.manifest.next_gid if dirty else handle.plan.n_objects
        merged, merge_seconds = merge_shard_results(
            candidates, n_queries, k, host, n_objects=n_objects
        )
        profile.add("result_merge", merge_seconds)

    if trace is not None:
        key, labels = "shard" if sharded else "part", range(n_base)
        name = "base_scan" if dirty else "shard_scan" if sharded else "scan"
        cursor = _trace_scans(trace, name, key, labels, routes, scans, 0.0, sharded)
        if two_round:
            trace.child("tput_threshold", start=cursor, duration=threshold_seconds)
            cursor = _trace_scans(
                trace, "shard_topup", key, labels, topup_routes, topups,
                cursor + threshold_seconds, sharded,
            )
        if filter_seconds:
            trace.child("tombstone_filter", start=cursor, duration=filter_seconds,
                        tombstones=int(tombstones.size))
            cursor += filter_seconds
        cursor = _trace_scans(
            trace, "delta_scan", "segment", range(len(deltas)),
            routes[n_base:], scans[n_base:], cursor, False,
        )
        if compiled.merge != "direct":
            trace.child("merge", start=cursor, duration=merge_seconds, sources=len(sources))

    if two_round:
        for total, topup in zip(scans, topups):
            total.merge(topup)
    return merged, scans[:n_base] if sharded else None


def _fold(profile: StageTimings, scans: list[StageTimings], concurrent: bool) -> None:
    """Add one group of source scans to the batch ``profile``.

    Sources on their own devices run concurrently, so the group costs its
    slowest member; sources sharing a device run back to back and add up.
    """
    if concurrent:
        profile.merge(critical_path_profile(scans))
    else:
        for scan in scans:
            profile.merge(scan)


def _trace_scans(
    trace, name: str, key: str, labels, routes, profiles, start: float, concurrent: bool
) -> float:
    """Record one scan span per scanned source; returns when the last ends.

    Concurrent sources (each on its own device) all start at ``start``
    and the group ends with the slowest; sources sharing a device run
    back to back. A group where nothing was scanned ends at ``start``.
    """
    end = start
    for label, route, profile in zip(labels, routes, profiles):
        if route.size == 0:
            continue
        seconds = profile.query_total()
        trace.child(name, start=start if concurrent else end, duration=seconds,
                    **{key: label}, queries=int(route.size))
        end = max(end, start + seconds) if concurrent else end + seconds
    return end


def _scan_round(
    handle,
    sources: list,
    routes: list[np.ndarray],
    widths: list[int],
    queries: QueryBatch,
    batch_size: int | None,
    candidates: list[TopKBatch],
) -> list[StageTimings]:
    """Scan each source's routed query subset at its width.

    Results land query-aligned in ``candidates[s]`` with their ids
    remapped to global ids (positions a source was not routed keep their
    previous contents — nothing in round one, the round-one candidates in
    a TPUT top-up round). Returns each source's stage profile for the
    round (including any swap-in it forced); empty for an unscanned source.
    """
    profiles = [StageTimings() for _ in sources]
    for s, (part, route, width) in enumerate(zip(sources, routes, widths)):
        if route.size == 0:
            continue
        everyone = route.size == len(queries)
        subset = queries if everyone else queries.take(route)
        results, profiles[s] = _scan_one(handle, part, subset, width, batch_size)
        results = TopKBatch(part.to_global(results.ids), results.counts, results.offsets, results.thresholds)
        candidates[s] = results if everyone else candidates[s].replace(route, results)
    return profiles


def _scan_one(
    handle,
    part,
    subset: QueryBatch,
    k: int,
    batch_size: int | None,
) -> tuple[TopKBatch, StageTimings]:
    """Scan one source's routed subset on the first live copy of it.

    The candidate order comes from ``handle._scan_candidates`` (every
    copy of the slice, least-loaded first; the part itself when it has
    no replicas). Under an injected
    :class:`~repro.replica.faults.FaultPlan`, a candidate on a crashed
    device is skipped — charging a deterministic seeded retry penalty
    onto the surviving scan's profile (the ``failover_retry`` stage, on
    the batch critical path) and emitting a
    :class:`~repro.replica.faults.FailoverEvent` — and a candidate on a
    slowed device scans with its stage timings stretched by the fault's
    factor. The attempt loop is bounded by the replica count (lint rule
    REPRO007's bounded-retry shape). The chosen copy is made resident
    (paying ``index_transfer`` when it has to swap in) and, on a
    ``swap_parts`` index, evicted again right after its scan — the
    paper's one-part-at-a-time multi-loading protocol.

    Raises:
        AvailabilityError: Every candidate's device is down.
    """
    session = handle.session
    faults = session.faults
    penalty = 0.0
    tried: list[int] = []
    for attempt, candidate in enumerate(handle._scan_candidates(part)):
        engine = candidate.engine
        device = engine.device
        position = session.device_position(device)
        factor = 1.0
        if faults is not None:
            status, factor = faults.state(position)
            if status == STATUS_DOWN:
                step = faults.retry_penalty_for(part.position, attempt)
                penalty += step
                tried.append(position)
                session._record_failover(
                    FailoverEvent(
                        index=handle.name,
                        shard=part.position,
                        device=position,
                        attempt=attempt,
                        permanent=faults.permanently_down(position),
                        penalty=step,
                    )
                )
                continue
        transfer_before = device.timings.get("index_transfer")
        session._ensure_resident(candidate)
        try:
            if batch_size is None:
                results = engine.query(subset, k=k)
            else:
                results = engine.query_batched(subset, k=k, batch_size=batch_size)
        finally:
            if handle.swap_parts:
                session._evict_part(candidate)
        scan_profile = engine.last_profile.copy()
        swap_seconds = device.timings.get("index_transfer") - transfer_before
        if swap_seconds > 0:
            scan_profile.add("index_transfer", swap_seconds)
        if factor > 1.0:
            # A slowed device does the same work on a stretched timeline;
            # counts and ids are untouched, only latency grows.
            scan_profile.scale(factor)
        if penalty > 0.0:
            scan_profile.add("failover_retry", penalty)
        session.device_load.record(position, scan_profile.query_total())
        return results, scan_profile
    raise AvailabilityError(
        handle.name, part.position, tried, segment=0 if part.position >= handle.num_parts else None
    )


def _strike_tombstones(
    base_candidates: list[TopKBatch], manifest, host
) -> tuple[list[TopKBatch], float]:
    """The base candidates without the ids ``manifest`` (``None`` on a clean index) tombstoned.

    Runs before any top-k decision — a dead base copy must never outrank
    a live object (its replacement may sit in the delta run under the
    same id). One gather of the manifest's per-id marks covers every
    source. Charged to the host as one binary search per candidate (stage
    ``tombstone_filter``), accumulated per (source, query) in that order;
    returns the struck batches and the charged seconds.
    """
    if manifest is None or not manifest.tombstones.size:
        return base_candidates, 0.0
    dead = manifest.is_tombstoned(np.concatenate([batch.ids for batch in base_candidates]))
    dead = np.split(dead, np.cumsum([batch.ids.size for batch in base_candidates[:-1]]))
    struck = [batch.compress(~gone) if gone.any() else batch for batch, gone in zip(base_candidates, dead)]
    probe_ops = np.log2(max(manifest.tombstones.size, 2))
    filter_ops = np.cumsum(np.concatenate([batch.sizes for batch in base_candidates]) * probe_ops)[-1]
    return struck, host.charge_ops(float(filter_ops), stage="tombstone_filter") if filter_ops else 0.0


def _tput_topup_routes(
    candidates: list[TopKBatch],
    n_queries: int,
    retrieval_k: int,
    first_round_k: int,
    host,
) -> tuple[list[np.ndarray], float]:
    """Which (shard, query) pairs the exact TPUT bound forces to top up.

    After round one, shard ``s`` is *complete* for a query when it
    returned fewer than ``first_round_k`` candidates (no positive-count
    object is unfetched — which also covers shards the query was never
    routed to: they hold no candidates at all). An incomplete shard's unfetched candidates all
    count at most its round-one threshold ``t_s`` (its lowest returned
    count). With ``C`` the ``retrieval_k``-th best count in the merged
    round-one pool, ``t_s < C`` proves every unfetched candidate counts
    strictly below the global top-``retrieval_k`` — ties included, since
    the tie-break only applies at equal counts — so the shard need not
    top up. Any doubt (``t_s >= C``, or a pool smaller than
    ``retrieval_k``) tops the shard up to the full width: the exact
    fallback that keeps results bit-identical.

    The threshold computation is charged to the host as a heap merge of
    the fetched candidates (stage ``result_merge``).

    Returns:
        ``(topup_routes, seconds)``: per shard, the query positions to
        re-fetch at full width, and the charged host seconds.
    """
    pool = pool_candidates(candidates, n_queries)
    # Pool too small: cutoff 0, so every incomplete shard must top up.
    cutoff = np.zeros(n_queries, dtype=ID_DTYPE)
    ranked = pool.sizes >= retrieval_k
    cutoff[ranked] = pool.counts[pool.offsets[:-1][ranked] + (retrieval_k - 1)]
    topup = []
    for batch in candidates:
        # Complete (nothing unfetched remains) below first_round_k candidates.
        incomplete = np.flatnonzero(batch.sizes >= first_round_k)
        lowest = batch.counts[batch.offsets[1:][incomplete] - 1]
        topup.append(incomplete[lowest >= cutoff[incomplete]])
    ops = int(pool.ids.size) * max(1.0, np.log2(max(len(candidates), 2)))
    return topup, host.charge_ops(ops, stage="result_merge")
