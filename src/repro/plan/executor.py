"""One executor for every compiled plan: serial, routed-shard, TPUT.

The session layer's three entry points all lower through
:func:`repro.plan.planner.compile_search` and execute here. The executor
owns the physical loop — residency, per-part/per-shard engine calls, the
host-side merges and their cost accounting — and guarantees the planner's
contract: **every strategy returns bit-identical results** (ids, counts,
tie order, thresholds) to a broadcast one-round execution. What changes
between plans is only the simulated time spent getting there.

Cost model notes:

* A routed shard scan pays query transfer / scan / select only for the
  queries routed to it; a fully pruned shard is not touched at all (not
  even made resident).
* A two-round TPUT execution's critical path is
  ``max(shard round-1) + round-1 threshold merge + max(shard round-2) +
  final merge`` — the rounds are global barriers, so the per-round
  critical paths add instead of max-ing over whole shard timelines.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.executor import critical_path_profile, merge_shard_results
from repro.core.types import ID_DTYPE, Query, TopKResult
from repro.errors import AvailabilityError
from repro.gpu.stats import StageTimings
from repro.plan.planner import CompiledPlan
from repro.replica.faults import STATUS_DOWN, FailoverEvent


def execute_plan(
    compiled: CompiledPlan,
    handle,
    queries: list[Query],
    batch_size: int | None,
    profile: StageTimings,
    trace=None,
) -> tuple[list[TopKResult], list[StageTimings] | None]:
    """Run a compiled plan over the *active* queries.

    Args:
        compiled: The plan from :func:`~repro.plan.planner.compile_search`.
        handle: The session index handle owning the parts.
        queries: The active (post-elision) encoded queries, aligned with
            ``compiled.active``.
        batch_size: Device sub-batch size (Fig. 11 protocol), or ``None``.
        profile: Stage profile the execution accumulates into; for shard
            plans this receives the concurrent critical path.
        trace: Optional :class:`~repro.obs.trace.Span` the execution adds
            stage spans to (scan / delta-scan / tombstone-filter / merge),
            on a timeline starting at 0.0; the caller shifts the subtree
            onto absolute simulated time. ``None`` records nothing.

    Returns:
        ``(results, shard_profiles)``: one result per active query, and
        per-shard profile slices (``None`` for serial plans).
    """
    stream = getattr(handle, "_stream", None)
    if stream is not None and stream.dirty:
        # Live mutations: compose the base scan with the delta-segment
        # scans, filtering tombstones before the top-k (repro.stream).
        return _run_stream(compiled, handle, queries, batch_size, profile, trace)
    if compiled.shards is None:
        results = _run_serial(
            handle, queries, compiled.retrieval_k, batch_size, profile, trace
        )
        return results, None
    return _run_shards(compiled, handle, queries, batch_size, profile, trace)


# ----------------------------------------------------------------------
# serial (single device, one or more multi-loading parts)


def _run_serial(
    handle,
    queries: list[Query],
    k: int,
    batch_size: int | None,
    profile: StageTimings,
    trace=None,
) -> list[TopKResult]:
    session = handle.session
    device = session.device
    parts = handle._parts
    if len(parts) == 1:
        part = parts[0]
        transfer_before = device.timings.get("index_transfer")
        session._ensure_resident(part)
        try:
            results = handle._query_engine(part.engine, queries, k, batch_size)
        finally:
            if handle.swap_parts:
                session._evict_part(part)
        profile.merge(part.engine.last_profile)
        swap_seconds = device.timings.get("index_transfer") - transfer_before
        if swap_seconds > 0:
            profile.add("index_transfer", swap_seconds)
        if trace is not None:
            trace.child(
                "scan",
                duration=part.engine.last_profile.query_total() + max(swap_seconds, 0.0),
                part=0, queries=len(queries),
            )
        return results

    # Multi-part: query each part, merge per query on the host (Fig. 6).
    # Parts partition the objects, so an object's count is complete within
    # its part and the merge is exact. The sharded merge
    # (repro.cluster.executor.merge_shard_results) parallels this ordering
    # deliberately — keep tie-order changes in sync.
    merged_ids: list[list[np.ndarray]] = [[] for _ in queries]
    merged_counts: list[list[np.ndarray]] = [[] for _ in queries]
    cursor = 0.0  # serial parts run back to back on the one device
    for part in parts:
        transfer_before = device.timings.get("index_transfer")
        session._ensure_resident(part)
        try:
            part_results = handle._query_engine(part.engine, queries, k, batch_size)
        finally:
            if handle.swap_parts:
                session._evict_part(part)
        profile.merge(part.engine.last_profile)
        swap_seconds = device.timings.get("index_transfer") - transfer_before
        profile.add("index_transfer", swap_seconds)
        if trace is not None:
            part_seconds = part.engine.last_profile.query_total() + max(swap_seconds, 0.0)
            trace.child(
                "scan", start=cursor, duration=part_seconds,
                part=part.position, queries=len(queries),
            )
            cursor += part_seconds
        for qi, part_result in enumerate(part_results):
            merged_ids[qi].append(part_result.ids + part.offset)
            merged_counts[qi].append(part_result.counts)

    results = []
    merge_ops = 0.0
    for qi in range(len(queries)):
        ids = np.concatenate(merged_ids[qi]) if merged_ids[qi] else np.empty(0, dtype=ID_DTYPE)
        counts = (
            np.concatenate(merged_counts[qi]) if merged_counts[qi] else np.empty(0, dtype=ID_DTYPE)
        )
        order = np.lexsort((ids, -counts))[:k]
        results.append(TopKResult(ids=ids[order], counts=counts[order]))
        merge_ops += ids.size * max(1.0, np.log2(max(ids.size, 2)))
    session.host.charge_ops(merge_ops, stage="result_merge")
    merge_seconds = merge_ops / session.host.spec.ops_per_second
    profile.add("result_merge", merge_seconds)
    if trace is not None:
        trace.child("merge", start=cursor, duration=merge_seconds, parts=len(parts))
    return results


# ----------------------------------------------------------------------
# sharded (one device per shard, routed, one- or two-round merge)


def _trace_scans(trace, name: str, routes, profiles, start: float) -> float:
    """Record one concurrent scan span per routed shard; returns the barrier.

    Shards run concurrently, so every span starts at ``start`` and the
    returned barrier time is ``start`` plus the slowest shard (``start``
    itself when every shard was pruned).
    """
    end = start
    for shard, route in enumerate(routes):
        if route.size == 0:
            continue
        seconds = profiles[shard].query_total()
        trace.child(name, start=start, duration=seconds, shard=shard, queries=int(route.size))
        end = max(end, start + seconds)
    return end


def _empty_result() -> TopKResult:
    return TopKResult(ids=np.empty(0, dtype=ID_DTYPE), counts=np.empty(0, dtype=ID_DTYPE))


def _scan_round(
    handle,
    parts: list,
    routes: list[np.ndarray],
    queries: list[Query],
    k: int,
    batch_size: int | None,
    per_shard: list[list[TopKResult]],
    shard_profiles: list[StageTimings],
) -> None:
    """Scan each part's routed query subset at width ``k``.

    ``parts`` is usually ``handle._parts`` (one per shard) but the
    streamed path also feeds delta-segment parts through here. Results
    land query-aligned in ``per_shard`` (positions a part was not routed
    keep their previous contents — empty for round one, the round-one
    candidates for a TPUT top-up round); each part's stage profile
    (including any swap-in it forced) accumulates into
    ``shard_profiles``.
    """
    for shard, part in enumerate(parts):
        route = routes[shard]
        if route.size == 0:
            continue
        subset = [queries[int(j)] for j in route]
        results, shard_profile = _scan_one(handle, part, subset, k, batch_size)
        shard_profiles[shard].merge(shard_profile)
        for j, result in zip(route, results):
            per_shard[shard][int(j)] = result


def _scan_one(
    handle,
    part,
    subset: list[Query],
    k: int,
    batch_size: int | None,
) -> tuple[list[TopKResult], StageTimings]:
    """Scan one slice's routed subset on the first live replica.

    The candidate order comes from ``handle._scan_candidates`` (every
    copy of the slice, least-loaded first). Under an injected
    :class:`~repro.replica.faults.FaultPlan`, a candidate on a crashed
    device is skipped — charging a deterministic seeded retry penalty
    onto the surviving scan's profile (the ``failover_retry`` stage, on
    the batch critical path) and emitting a
    :class:`~repro.replica.faults.FailoverEvent` — and a candidate on a
    slowed device scans with its stage timings stretched by the fault's
    factor. The attempt loop is bounded by the replica count (lint rule
    REPRO007's bounded-retry shape).

    Raises:
        AvailabilityError: Every candidate's device is down.
    """
    session = handle.session
    faults = getattr(session, "faults", None)
    candidates = handle._scan_candidates(part)
    penalty = 0.0
    tried: list[int] = []
    for attempt, candidate in enumerate(candidates):
        device = candidate.engine.device
        factor = 1.0
        if faults is not None:
            position = session.device_position(device)
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
        results = handle._query_engine(candidate.engine, subset, k, batch_size)
        shard_profile = candidate.engine.last_profile.copy()
        swap_seconds = device.timings.get("index_transfer") - transfer_before
        if swap_seconds > 0:
            shard_profile.add("index_transfer", swap_seconds)
        if factor > 1.0:
            # A slowed device does the same work on a stretched timeline;
            # counts and ids are untouched, only latency grows.
            shard_profile.scale(factor)
        if penalty > 0.0:
            shard_profile.add("failover_retry", penalty)
        session._note_device_busy(device, shard_profile.query_total())
        return results, shard_profile
    raise AvailabilityError(handle.name, part.position, tried)


def _tput_topup_routes(
    per_shard: list[list[TopKResult]],
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
    topup: list[list[int]] = [[] for _ in per_shard]
    fetched = 0
    for qi in range(n_queries):
        counts_parts = [
            shard_results[qi].counts
            for shard_results in per_shard
            if shard_results[qi].counts.size
        ]
        pool = np.concatenate(counts_parts) if counts_parts else np.empty(0, dtype=ID_DTYPE)
        fetched += int(pool.size)
        if pool.size >= retrieval_k:
            cutoff = int(np.partition(pool, pool.size - retrieval_k)[pool.size - retrieval_k])
        else:
            cutoff = 0  # pool too small: every incomplete shard must top up
        for shard, shard_results in enumerate(per_shard):
            result = shard_results[qi]
            if result.ids.size < first_round_k:
                continue  # complete: nothing unfetched remains
            if int(result.counts[-1]) >= cutoff:
                topup[shard].append(qi)
    ops = fetched * max(1.0, np.log2(max(len(per_shard), 2)))
    seconds = host.charge_ops(ops, stage="result_merge")
    return [np.asarray(positions, dtype=np.int64) for positions in topup], seconds


def _run_shards(
    compiled: CompiledPlan,
    handle,
    queries: list[Query],
    batch_size: int | None,
    profile: StageTimings,
    trace=None,
) -> tuple[list[TopKResult], list[StageTimings]]:
    session = handle.session
    parts = handle._parts
    n_queries = len(queries)
    shards = compiled.shards
    if compiled.routing_ops:
        # The routing decision is pre-dispatch host work (binary searches
        # against the shard keyword bounds). Like query encoding — the
        # same class of work — it is charged to the host's accounting but
        # not to the batch profile: it happens before any device is
        # touched and overlaps device execution under pipelined dispatch,
        # so it is not on the batch's critical path.
        session.host.charge_ops(compiled.routing_ops, stage="plan_route")
    per_shard: list[list[TopKResult]] = [
        [_empty_result() for _ in range(n_queries)] for _ in parts
    ]
    round1_profiles = [StageTimings() for _ in parts]

    if compiled.merge == "two-round-tput":
        first_k = compiled.first_round_k
        _scan_round(handle, parts, compiled.routes, queries, first_k, batch_size,
                    per_shard, round1_profiles)
        topup_routes, threshold_seconds = _tput_topup_routes(
            per_shard, n_queries, compiled.retrieval_k, first_k, session.host,
        )
        round2_profiles = [StageTimings() for _ in parts]
        _scan_round(handle, parts, topup_routes, queries, compiled.retrieval_k,
                    batch_size, per_shard, round2_profiles)
        profile.merge(critical_path_profile(round1_profiles))
        profile.add("result_merge", threshold_seconds)
        profile.merge(critical_path_profile(round2_profiles))
        shard_profiles = [StageTimings() for _ in parts]
        for shard in range(len(parts)):
            shard_profiles[shard].merge(round1_profiles[shard])
            shard_profiles[shard].merge(round2_profiles[shard])
        if trace is not None:
            barrier = _trace_scans(trace, "shard_scan", compiled.routes,
                                   round1_profiles, 0.0)
            trace.child("tput_threshold", start=barrier, duration=threshold_seconds)
            scan_end = _trace_scans(trace, "shard_topup", topup_routes,
                                    round2_profiles, barrier + threshold_seconds)
    else:
        _scan_round(handle, parts, compiled.routes, queries, compiled.retrieval_k,
                    batch_size, per_shard, round1_profiles)
        profile.merge(critical_path_profile(round1_profiles))
        shard_profiles = round1_profiles
        if trace is not None:
            scan_end = _trace_scans(trace, "shard_scan", compiled.routes,
                                    round1_profiles, 0.0)

    merged, merge_seconds = merge_shard_results(
        per_shard, [part.global_ids for part in parts], n_queries,
        compiled.retrieval_k, session.host, n_objects=shards.n_objects,
    )
    profile.add("result_merge", merge_seconds)
    if trace is not None:
        trace.child("merge", start=scan_end, duration=merge_seconds,
                    shards=len(parts))
    return merged, shard_profiles


# ----------------------------------------------------------------------
# streamed (mutated index: base scan + delta-segment scans + tombstones)


def _run_stream(
    compiled: CompiledPlan,
    handle,
    queries: list[Query],
    batch_size: int | None,
    profile: StageTimings,
    trace=None,
) -> tuple[list[TopKResult], list[StageTimings] | None]:
    """Execute a plan over a mutated index (see :mod:`repro.stream`).

    The base part(s) scan at a width of ``retrieval_k + tombstones`` —
    filtering can strike at most ``tombstones`` candidates from a part's
    list, so the widened fetch provably still contains the part's live
    top-``retrieval_k``. Base candidates are remapped to global ids and
    tombstone-filtered (host binary searches, stage ``tombstone_filter``),
    then every delta segment scans the whole batch on the session's
    primary device, and one exact one-round merge over all sources
    re-pins thresholds against the logical corpus size (``next_gid``)
    exactly as a from-scratch refit would compute them.

    Returns the base per-shard profiles for sharded handles (delta and
    merge work lands on the batch profile only), ``None`` for serial.
    """
    session = handle.session
    stream = handle._stream
    manifest = stream.manifest
    n_queries = len(queries)
    if compiled.routing_ops:
        session.host.charge_ops(compiled.routing_ops, stage="plan_route")

    base_parts = list(handle._parts)
    everyone = np.arange(n_queries, dtype=np.int64)
    if compiled.shards is not None and compiled.routes is not None:
        base_routes = compiled.routes
    else:
        base_routes = [everyone for _ in base_parts]

    tombstones = stream.tombstone_array()
    base_k = compiled.retrieval_k + int(tombstones.size)
    per_part: list[list[TopKResult]] = [
        [_empty_result() for _ in range(n_queries)] for _ in base_parts
    ]
    base_profiles = [StageTimings() for _ in base_parts]
    _scan_round(handle, base_parts, base_routes, queries, base_k, batch_size,
                per_part, base_profiles)

    # Remap base candidates to global ids and strike the tombstoned ones
    # before any top-k decision — a dead base copy must never outrank a
    # live object (its replacement may sit in a segment under the same id).
    filter_ops = 0.0
    for part, part_results in zip(base_parts, per_part):
        for qi, result in enumerate(part_results):
            if result.ids.size == 0:
                continue
            if part.global_ids is not None:
                gids = part.global_ids[result.ids]
            else:
                gids = result.ids + part.offset
            counts = result.counts
            if tombstones.size:
                filter_ops += gids.size * np.log2(max(tombstones.size, 2))
                pos = np.searchsorted(tombstones, gids)
                dead = (pos < tombstones.size) & (
                    tombstones[np.minimum(pos, tombstones.size - 1)] == gids
                )
                gids = gids[~dead]
                counts = counts[~dead]
            part_results[qi] = TopKResult(ids=gids, counts=counts)
    filter_seconds = 0.0
    if filter_ops:
        filter_seconds = session.host.charge_ops(filter_ops, stage="tombstone_filter")

    # Delta segments: every query scans every segment (recent writes obey
    # no partition bounds), sequentially on the session's primary device.
    all_results = per_part
    delta_profiles: list[StageTimings] = []
    for part in stream.delta_parts():
        segment_results: list[TopKResult] = [_empty_result() for _ in range(n_queries)]
        segment_profile = [StageTimings()]
        _scan_round(handle, [part], [everyone], queries, compiled.retrieval_k,
                    batch_size, [segment_results], segment_profile)
        for qi, result in enumerate(segment_results):
            if result.ids.size:
                segment_results[qi] = TopKResult(
                    ids=part.global_ids[result.ids], counts=result.counts
                )
        all_results.append(segment_results)
        delta_profiles.append(segment_profile[0])

    identity = np.arange(max(manifest.next_gid, 1), dtype=ID_DTYPE)
    merged, merge_seconds = merge_shard_results(
        all_results, [identity] * len(all_results), n_queries,
        compiled.retrieval_k, session.host, n_objects=manifest.next_gid,
    )

    if compiled.shards is not None:
        profile.merge(critical_path_profile(base_profiles))
        shard_profiles: list[StageTimings] | None = base_profiles
    else:
        for base_profile in base_profiles:
            profile.merge(base_profile)
        shard_profiles = None
    for delta_profile in delta_profiles:
        profile.merge(delta_profile)
    if filter_seconds:
        profile.add("tombstone_filter", filter_seconds)
    profile.add("result_merge", merge_seconds)
    if trace is not None:
        if compiled.shards is not None:
            cursor = _trace_scans(trace, "base_scan", base_routes, base_profiles, 0.0)
        else:
            cursor = 0.0  # serial base parts share one device: back to back
            for position, base_profile in enumerate(base_profiles):
                seconds = base_profile.query_total()
                trace.child("base_scan", start=cursor, duration=seconds,
                            part=position, queries=n_queries)
                cursor += seconds
        if filter_seconds:
            trace.child("tombstone_filter", start=cursor, duration=filter_seconds,
                        tombstones=int(tombstones.size))
            cursor += filter_seconds
        # Delta segments scan sequentially on the session's primary device.
        for segment, delta_profile in enumerate(delta_profiles):
            seconds = delta_profile.query_total()
            trace.child("delta_scan", start=cursor, duration=seconds,
                        segment=segment, queries=n_queries)
            cursor += seconds
        trace.child("merge", start=cursor, duration=merge_seconds,
                    sources=len(all_results))
    return merged, shard_profiles
