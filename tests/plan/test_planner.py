"""Planner rule tests: elision, routing, merge selection, escape hatches."""

import numpy as np
import pytest

from repro.api import GenieSession
from repro.core.types import Query, QueryBatch
from repro.errors import QueryError
from repro.plan import (
    EncodeNode,
    FinalizeNode,
    MergeNode,
    ScanNode,
    ShardScanNode,
    compile_search,
    first_round_k_for,
    route_queries,
    validate_plan_args,
)
from repro.sa.relational import AttributeSpec

OBJECTS = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]


def sharded_handle(shards=3, strategy="range", **kwargs):
    session = GenieSession()
    return session.create_index(
        OBJECTS, model="raw", name="toy", shards=shards,
        shard_strategy=strategy, **kwargs,
    )


def compile_for(handle, raw_queries, k=2, **kwargs):
    queries = handle.encode_queries(raw_queries)
    return compile_search(handle, queries, k=k, retrieval_k=k, **kwargs)


class TestRouteQueries:
    def test_membership_routing(self):
        queries = QueryBatch.from_queries(
            [Query.from_keywords([0]), Query.from_keywords([9]), Query.from_keywords([0, 5])]
        )
        shard_keywords = (np.array([0, 1, 2]), np.array([4, 5, 6]))
        routes = route_queries(queries, shard_keywords)
        assert routes[0].tolist() == [0, 2]
        assert routes[1].tolist() == [2]

    def test_empty_query_routes_nowhere(self):
        routes = route_queries(QueryBatch.from_queries([Query(items=[])]), (np.array([0, 1]),))
        assert routes[0].size == 0

    def test_empty_shard_gets_nothing(self):
        routes = route_queries(
            QueryBatch.from_queries([Query.from_keywords([0])]), (np.empty(0, dtype=np.int64),)
        )
        assert routes[0].size == 0


def compile_rule(raw_queries, strategy="range", **kwargs):
    """Compile on a toy sharded index."""
    return compile_for(sharded_handle(strategy=strategy), raw_queries, **kwargs)


class TestRules:
    def test_range_partition_prunes_by_default(self):
        compiled = compile_rule([[0], [5]])
        assert compiled.routing.pruned_pairs > 0
        scan = compiled.root.find(ShardScanNode)
        assert not scan.broadcast
        assert compiled.routing_ops > 0.0  # the membership test ran

    def test_hash_partition_broadcasts_by_default(self):
        compiled = compile_rule([[0], [5]], strategy="hash")
        assert compiled.routing.broadcast
        assert all(r.size == 2 for r in compiled.routes)
        assert compiled.routing_ops == 0.0  # no membership test ran

    def test_hash_partition_can_force_pruning(self):
        # Membership routing is exact for any strategy; forcing it on a
        # hash partition is allowed, it just rarely prunes.
        compiled = compile_rule([[0]], strategy="hash", route="pruned")
        scanned = sum(r.size for r in compiled.routes)
        assert scanned <= compiled.routing.n_shards

    def test_forced_broadcast_on_range(self):
        compiled = compile_rule([[0]], route="broadcast")
        assert compiled.routing.broadcast
        assert compiled.root.find(ShardScanNode).broadcast

    def test_two_round_merge_opt_in(self):
        compiled = compile_rule([[0, 5]], k=2, plan="two-round")
        assert compiled.merge == "two-round-tput"
        assert compiled.first_round_k == first_round_k_for(2, 3) == 1
        merge = compiled.root.find(MergeNode)
        assert merge.strategy == "two-round-tput"
        assert merge.first_round_k == 1
        # The shard scan advertises the round-one width.
        assert compiled.root.find(ShardScanNode).k == 1

    def test_two_round_falls_back_when_nothing_to_save(self):
        compiled = compile_rule([[0]], k=1, plan="two-round")
        assert compiled.merge == "one-round"  # ceil(1/3) == 1 == k
        assert compiled.first_round_k is None

    def test_skip_elision(self):
        session = GenieSession()
        handle = session.create_index(
            ["abcdef", "bcdefg", "cdefgh"], model="ngram", name="seqs"
        )
        queries = handle.encode_queries(["bcde", "zzzz"])  # zzzz: no indexed grams
        compiled = compile_search(handle, queries, k=2, retrieval_k=2)
        assert compiled.active == [0]
        assert compiled.root.find(EncodeNode).elided == (1,)

    def test_serial_plan_shapes(self):
        session = GenieSession()
        single = session.create_index(OBJECTS, model="raw", name="one")
        compiled = compile_for(single, [[0]])
        assert compiled.merge == "direct"
        assert isinstance(compiled.root, ScanNode)

        multi = session.create_index(OBJECTS, model="raw", name="parts", part_size=2)
        compiled = compile_for(multi, [[0]])
        assert compiled.merge == "one-round"
        assert isinstance(compiled.root, MergeNode)
        assert compiled.root.find(ScanNode).parts == 3

    def test_finalize_node_for_verifying_models(self):
        session = GenieSession()
        handle = session.create_index(
            ["abcdef", "bcdefg", "cdefgh"], model="sequence", name="seqs"
        )
        queries = handle.encode_queries(["bcde"])
        compiled = compile_search(handle, queries, k=1, retrieval_k=3)
        assert isinstance(compiled.root, FinalizeNode)
        assert compiled.root.k == 1
        assert compiled.root.find(ScanNode).k == 3  # the shortlist width


class TestEscapeHatchValidation:
    def test_unknown_values_rejected(self):
        with pytest.raises(QueryError, match="unknown route"):
            validate_plan_args("sideways", None, sharded=True)
        with pytest.raises(QueryError, match="unknown plan"):
            validate_plan_args(None, "three-round", sharded=True)

    def test_shard_strategies_rejected_on_serial(self):
        with pytest.raises(QueryError, match="requires a sharded index"):
            validate_plan_args("broadcast", None, sharded=False)
        with pytest.raises(QueryError, match="requires a sharded index"):
            validate_plan_args(None, "two-round", sharded=False)

    def test_auto_accepted_and_canonicalized(self):
        # plan="auto" is one-round (two-round is opt-in), so it
        # canonicalizes to "one-round": the server's coalescing lanes and
        # the plan cache key both forms alike. route="auto" stays "auto" —
        # its meaning depends on the partition strategy.
        assert validate_plan_args(None, None, sharded=False) == ("auto", "one-round")
        assert validate_plan_args("auto", "auto", sharded=False) == ("auto", "one-round")
        assert validate_plan_args("auto", "one-round", sharded=False) == ("auto", "one-round")
        assert validate_plan_args(None, "two-round", sharded=True) == ("auto", "two-round")

    @pytest.mark.parametrize(
        "route, plan, sharded, canonical",
        [
            (None, None, False, ("auto", "one-round")),
            ("auto", "auto", False, ("auto", "one-round")),
            (None, "one-round", False, ("auto", "one-round")),
            (None, "auto", True, ("auto", "one-round")),
            ("broadcast", None, True, ("broadcast", "one-round")),
            ("pruned", "auto", True, ("pruned", "one-round")),
            ("auto", "two-round", True, ("auto", "two-round")),
            ("pruned", "two-round", True, ("pruned", "two-round")),
        ],
    )
    def test_canonical_forms(self, route, plan, sharded, canonical):
        assert validate_plan_args(route, plan, sharded=sharded) == canonical

    def test_search_surface_rejects_bad_directives(self):
        session = GenieSession()
        handle = session.create_index(OBJECTS, model="raw", name="serial")
        with pytest.raises(QueryError, match="requires a sharded index"):
            handle.search([[0]], k=1, route="broadcast")
        sharded = sharded_handle()
        with pytest.raises(QueryError, match="unknown plan"):
            sharded.search([[0]], k=1, plan="tput")


class TestRoutingAccounting:
    def test_routing_decision_charged_to_host_not_profile(self):
        # The membership test is pre-dispatch host work: accounted under
        # the host's plan_route stage (not free), but — like query
        # encoding — off the batch's device critical path.
        handle = sharded_handle()
        host = handle.session.host
        before = host.timings.get("plan_route")
        result = handle.search([[0]], k=2)
        assert host.timings.get("plan_route") > before
        assert "plan_route" not in result.profile.seconds

    def test_broadcast_plans_pay_no_routing(self):
        handle = sharded_handle()
        host = handle.session.host
        handle.search([[0]], k=2, route="broadcast")
        assert host.timings.get("plan_route") == 0.0

    def test_explain_never_pays_routing(self):
        handle = sharded_handle()
        handle.explain([[0]], k=2)
        assert handle.session.host.timings.get("plan_route") == 0.0


def test_routing_actually_prunes_on_sorted_range_data():
    # The oracle (tests/test_oracle.py) proves every route answers exactly;
    # this pins that a range-sharded relational table really exercises the
    # pruning rule (a vacuous broadcast-everything equivalence would prove
    # nothing). Pruning is batch-granular, so it shows on band-local
    # batches — the serving shape — not on one mixed batch spanning every
    # age band.
    rng = np.random.default_rng(7)
    data = {"age": np.sort(rng.uniform(18, 90, size=80)), "job": rng.integers(0, 4, size=80)}
    schema = [AttributeSpec("age", "numeric", bins=24), AttributeSpec("job", "categorical")]
    queries = [{"age": (a, a + 4.0)} for a in rng.uniform(18, 85, size=8)]
    handle = GenieSession().create_index(data, model="relational", name="adult", shards=4, schema=schema)
    mixed = handle.search(queries, k=5)
    assert mixed.routing.broadcast  # bands cover every shard together

    pruned_total = 0
    routed_busy = broadcast_busy = 0.0
    for query in queries:
        routed = handle.search([query], k=5)
        broadcast = handle.search([query], k=5, route="broadcast")
        assert broadcast.routing.pruned_pairs == 0
        pruned_total += routed.routing.pruned_pairs
        # A scanned shard's launch is identical to its broadcast launch,
        # so the critical path can only shrink (up to float accumulation
        # noise in the device's running stage totals); pruned shards stop
        # paying their scan entirely (aggregate device seconds drop).
        routed_busy += sum(p.query_total() for p in routed.shard_profiles)
        broadcast_busy += sum(p.query_total() for p in broadcast.shard_profiles)
        assert routed.profile.query_total() <= broadcast.profile.query_total() * (1 + 1e-9)
    assert pruned_total > 0
    assert routed_busy < broadcast_busy
