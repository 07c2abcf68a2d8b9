"""Cost model v2: pricing math, calibration plumbing, and costed ``auto``.

The heavy end-to-end accuracy bounds (prediction error <= 25%, the
1.3x TPUT win) live in ``benchmarks/test_cost_model.py`` — this module
pins the *semantics*: what the model computes, what calibration
persists, and which plan a calibrated ``auto`` picks on each traffic
shape. Tests inject :data:`CALIBRATED` (captured once from
``calibrate_session(seed=0)`` on the default device) instead of
recalibrating — the full probe replay builds production-scale LSH
indexes and belongs in the benchmark tier.
"""

import numpy as np
import pytest

import repro.plan.cost as cost_mod
from repro.api import GenieSession
from repro.core.engine import GenieConfig
from repro.gpu.device import Device
from repro.gpu.host import HostCpu
from repro.plan import (
    COEFFICIENT_NAMES,
    CostModel,
    MergeNode,
    ShardScanNode,
    calibrate_session,
    concentration,
    serial_share,
)

#: Representative calibrated coefficients (``calibrate_session(seed=0)``
#: on the default device spec). Magnitudes mirror the simulated device's
#: cycle costs; the exact values only matter in that they reproduce the
#: calibrated planner's choices deterministically.
CALIBRATED = dict(zip(COEFFICIENT_NAMES, (
    2.585834e-07,   # match.const
    -5.436928e-11,  # match.postings
    3.121391e-11,   # match.gated
    1.643105e-08,   # match.hot
    1.886245e-01,   # topup.const
    9.583689e-01,   # topup.concentration
)))


def cost_model(coefficients) -> CostModel:
    """A model over the default device, host and engine configuration."""
    return CostModel(coefficients, Device(), HostCpu(), GenieConfig())


def banded_corpus(n_objects=1600, n_bands=8, seed=0):
    # Object i carries its band id plus one cold filler keyword: range
    # shards become contiguous bands and a single-band query is the
    # concentrated serving shape (prunes to ~2 shards, chi -> 1).
    rng = np.random.default_rng(seed)
    return [[i // (n_objects // n_bands), int(rng.integers(1000, 5000))]
            for i in range(n_objects)]


def lsh_handle(session, n_points=1200, dim=16, n_queries=16, seed=0):
    """Hash-sharded e2lsh over Gaussian points: the even-spread shape."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n_points, dim))
    handle = session.create_index(
        points, model="ann-e2lsh", num_functions=32, dim=dim, width=4.0,
        seed=0, domain=512, name="ann", shards=8, shard_strategy="hash",
    )
    picks = rng.choice(n_points, size=n_queries, replace=False)
    queries = list(points[picks] + 0.01 * rng.normal(size=(n_queries, dim)))
    return handle, queries


class TestCostModelMath:
    def test_missing_coefficients_read_zero(self):
        model = cost_model({})
        assert not model.calibrated
        assert model.match_seconds(1000.0, 10) == 0.0
        assert model.topup_fraction(0.5) == 0.0
        # What the simulator defines is priced with no coefficient at all.
        exact = model.transfer_select_seconds(4, 10.0, 10, count_bound=3)
        assert exact > 0.0
        assert model.scan_seconds(4, 10.0, 1000.0, 10, count_bound=3) == exact
        assert model.merge_seconds(500.0, 4) == model.host.price_ops(1000.0)

    def test_calibrated_requires_every_name(self):
        full = {name: 1.0 for name in COEFFICIENT_NAMES}
        assert cost_model(full).calibrated
        partial = dict(full)
        del partial["match.gated"]
        assert not cost_model(partial).calibrated
        # A stale dict from before the exact terms contributes nothing.
        stale = cost_model({"scan.width": 1.0, "scan.postings": 1.0, "merge.ops": 1.0})
        assert not stale.calibrated
        assert stale.match_seconds(1000.0, 10, hot=50.0) == 0.0

    def test_negative_predictions_clamp_to_zero(self):
        model = cost_model({name: -1.0 for name in COEFFICIENT_NAMES})
        assert model.match_seconds(1000.0, 10, hot=50.0) == 0.0
        assert model.scan_seconds(4, 10.0, 1000.0, 10) == model.transfer_select_seconds(4, 10.0, 10)

    def test_topup_fraction_clips_to_unit_interval(self):
        model = cost_model({"topup.const": 0.2, "topup.concentration": 1.0})
        assert model.topup_fraction(0.5) == pytest.approx(0.7)
        assert model.topup_fraction(2.0) == 1.0
        assert model.topup_fraction(-1.0) == 0.0

    def test_two_round_price_combines_both_rounds(self):
        # Gate-only match (postings * sqrt(width)) + 50% top-up: the scan
        # is round one plus half a full round — each the exact terms plus
        # the heaviest shard's match — and both TPUT merges are charged.
        model = cost_model({"match.gated": 1.0, "topup.const": 0.5})
        args = dict(n_queries=1, keywords=3.0, shard_postings=[100.0, 400.0],
                    n_shards=2, retrieval_k=16, count_bound=3)
        price = model.price(merge="two-round-tput", first_round_k=4, **args)
        round_one = model.transfer_select_seconds(1, 3.0, 4, 3) + 400.0 * 2.0
        full = model.transfer_select_seconds(1, 3.0, 16, 3) + 400.0 * 4.0
        assert price.scan_seconds == pytest.approx(round_one + 0.5 * full)
        # round-one merge: 2 shards * 1 query * k=4 candidates; round
        # two adds the topped-up share of the full fan-in (log2(2) = 1).
        assert price.merge_seconds == pytest.approx(model.host.price_ops(8 + (8 + 0.5 * 32)))
        one = model.price(merge="one-round", **args)
        assert one.scan_seconds == pytest.approx(full)
        assert one.merge_seconds == model.host.price_ops(32)
        assert one.critical_path == one.scan_seconds + one.merge_seconds

    def test_merge_fan_in_has_log2_floor(self):
        model = cost_model({})
        assert model.merge_seconds(8.0, 1) == model.host.price_ops(8.0)
        assert model.merge_seconds(8.0, 8) == model.host.price_ops(24.0)


class TestExactTerms:
    """Transfer, select and merge are the simulator's own prices, not fits."""

    @staticmethod
    def _check(session, handle, queries, k):
        result = handle.search(queries, k=k, route="broadcast", plan="one-round")
        batch = handle.encode_queries(queries)
        model = CostModel({}, session.device, session.host, handle.config)
        shards = handle.plan
        width = result.plan.find(MergeNode).k
        price = model.price(
            n_queries=len(batch), keywords=float(batch.keywords.size),
            shard_postings=[0.0] * shards.n_shards, n_shards=shards.n_shards,
            retrieval_k=width, merge="one-round", count_bound=model.count_bound_of(batch),
        )
        observed = result.profile.get("query_transfer") + result.profile.get("select")
        assert price.scan_seconds == pytest.approx(observed, rel=1e-12)
        # Every shard holds >= k matches per query, so the merge's
        # candidate count is the planner's, not an upper bound of it.
        assert price.merge_seconds == result.profile.get("result_merge") > 0.0

    @pytest.mark.parametrize("k", [1, 13, 50])
    def test_range_index(self, k):
        rng = np.random.default_rng(5)
        corpus = [np.unique(rng.integers(0, 24, size=6)).tolist() for _ in range(1600)]
        queries = [np.sort(rng.choice(24, size=4, replace=False)).tolist() for _ in range(8)]
        session = GenieSession()
        handle = session.create_index(
            corpus, model="raw", name="dense", shards=4, shard_strategy="range",
        )
        self._check(session, handle, queries, k)
        session.close()

    @pytest.mark.parametrize("k", [1, 13, 50])
    def test_e2lsh_index(self, k):
        session = GenieSession()
        handle, queries = lsh_handle(session)
        self._check(session, handle, queries, k)
        session.close()


class TestFeatureHelpers:
    def test_serial_share_is_excess_over_saturated(self):
        # A saturated launch (blocks >= SMs) pays nothing extra; a
        # single-block launch pays nearly its whole postings load.
        assert serial_share(2400.0, 24, 24) == 0.0
        assert serial_share(2400.0, 48, 24) == 0.0
        assert serial_share(2400.0, 1, 24) == pytest.approx(2400.0 * (1 - 1 / 24))
        vec = serial_share(np.array([100.0, 100.0]), np.array([1, 24]), 24)
        assert vec[1] == 0.0 and vec[0] > 0.0

    def test_concentration_bounds(self):
        assert concentration([10.0]) == 1.0
        assert concentration([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.25)
        assert concentration([10.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)


class TestCalibrationPlumbing:
    def test_calibrate_session_persists_finite_coefficients(self):
        session = GenieSession()
        epoch_before = session._cost_epoch
        coefficients = calibrate_session(session, seed=0)
        assert set(coefficients) == set(COEFFICIENT_NAMES)
        assert all(np.isfinite(v) for v in coefficients.values())
        assert session.cost_coefficients == coefficients
        assert session._cost_epoch == epoch_before + 1
        # Calibration probes ran on a *scratch* session: this session's
        # device and host never moved.
        assert session.device.timings.query_total() == 0.0
        assert session.host.timings.query_total() == 0.0
        session.close()

    def test_calibrate_cost_model_is_the_session_spelling(self, monkeypatch):
        sentinel = {name: 1.0 for name in COEFFICIENT_NAMES}
        monkeypatch.setattr(cost_mod, "calibrate_coefficients",
                            lambda **kwargs: dict(sentinel))
        session = GenieSession()
        assert session.calibrate_cost_model() == sentinel
        assert session.cost_coefficients == sentinel
        session.close()

    def test_assigning_coefficients_bumps_epoch_and_flushes_plans(self):
        session = GenieSession()
        handle = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        handle.search([[1, 2]], k=5)
        assert len(session.plan_cache) == 1
        epoch = session._cost_epoch
        session.cost_coefficients = CALIBRATED
        assert session._cost_epoch == epoch + 1
        assert len(session.plan_cache) == 0
        session.cost_coefficients = None
        assert session.cost_coefficients is None
        assert session._cost_epoch == epoch + 2
        session.close()


class TestCostedAuto:
    def test_even_spread_lsh_auto_picks_two_round(self):
        session = GenieSession()
        session.cost_coefficients = CALIBRATED
        handle, queries = lsh_handle(session)
        plan = handle.explain(queries, k=50)
        merge = plan.find(MergeNode)
        scan = plan.find(ShardScanNode)
        assert merge.strategy == "two-round-tput"
        assert merge.first_round_k == scan.k == 13  # ceil(2*50/8)
        session.close()

    def test_banded_range_auto_picks_pruned_one_round(self):
        session = GenieSession()
        session.cost_coefficients = CALIBRATED
        handle = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        result = handle.search([[1, 2]], k=10)
        assert result.plan.find(MergeNode).strategy == "one-round"
        assert not result.plan.find(ShardScanNode).broadcast
        assert result.routing.pruned_pairs > 0
        session.close()

    def test_cost_lines_appear_only_when_calibrated(self):
        session = GenieSession()
        handle = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        assert "cost≈" not in handle.explain([[1, 2]], k=10).render()
        session.cost_coefficients = CALIBRATED
        rendered = handle.explain([[1, 2]], k=10).render()
        assert "cost≈" in rendered
        session.close()

    def test_predicted_cost_reported_only_when_calibrated(self):
        session = GenieSession()
        handle = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        assert handle.search([[1, 2]], k=10).predicted_cost is None
        session.cost_coefficients = CALIBRATED
        result = handle.search([[1, 2]], k=10)
        assert result.predicted_cost is not None
        assert result.predicted_cost > 0.0
        session.close()

    def test_costed_explain_still_pays_no_routing(self):
        # Pricing adds a feature pass to *executed* searches (charged to
        # plan_route); explain remains entirely free.
        session = GenieSession()
        session.cost_coefficients = CALIBRATED
        handle = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        handle.explain([[1, 2]], k=10)
        assert session.host.timings.get("plan_route") == 0.0
        # A fresh shape pays the (routing + pricing) pass when executed…
        handle.search([[3, 4]], k=10)
        charged = session.host.timings.get("plan_route")
        assert charged > 0.0
        # …but a shape explain() already compiled is warm in the plan
        # cache: the search reuses it and pays nothing further.
        handle.search([[1, 2]], k=10)
        assert session.host.timings.get("plan_route") == charged
        session.close()

    def test_uncalibrated_auto_keeps_the_rules(self):
        # Without coefficients "auto" must fall back to the PR-5 rules:
        # range partitions prune, hash partitions broadcast, merge stays
        # one-round — bit-for-bit the same plans as before this PR.
        session = GenieSession()
        ranged = session.create_index(
            banded_corpus(), model="raw", name="band", shards=4,
            shard_strategy="range",
        )
        plan = ranged.explain([[1, 2]], k=10)
        assert plan.find(MergeNode).strategy == "one-round"
        assert not plan.find(ShardScanNode).broadcast

        hashed = session.create_index(
            banded_corpus(), model="raw", name="hashed", shards=4,
            shard_strategy="hash",
        )
        plan = hashed.explain([[1, 2]], k=10)
        assert plan.find(MergeNode).strategy == "one-round"
        assert plan.find(ShardScanNode).broadcast
        session.close()

    def test_costed_auto_is_bit_identical_to_forced_plans(self):
        session = GenieSession()
        session.cost_coefficients = CALIBRATED
        handle, queries = lsh_handle(session, n_points=600, n_queries=8)
        auto = handle.search(queries, k=20)
        forced_one = handle.search(queries, k=20, plan="one-round")
        forced_two = handle.search(queries, k=20, plan="two-round")
        for other in (forced_one, forced_two):
            for ref, got in zip(auto.results, other.results):
                assert np.array_equal(ref.ids, got.ids)
                assert np.array_equal(ref.counts, got.counts)
                assert ref.threshold == got.threshold
        session.close()
