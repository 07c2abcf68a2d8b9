"""Tests for GenieSession: residency, budgets, eviction, the uniform surface."""

import numpy as np
import pytest

from repro.api import GenieSession, ResidencyLog
from repro.core.types import Query
from repro.errors import ConfigError, QueryError
from repro.sa.relational import AttributeSpec
from repro.serve import GenieServer


def _docs(n=30):
    words = ["gpu", "index", "search", "fast", "cat", "dog", "tree", "blue"]
    rng = np.random.default_rng(0)
    return [" ".join(rng.choice(words, size=4, replace=False)) for _ in range(n)]


class TestSessionBasics:
    def test_create_and_lookup_by_name(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document", name="tweets")
        assert session.index("tweets") is handle
        assert session.indexes == ("tweets",)

    def test_auto_names_unique(self):
        session = GenieSession()
        a = session.create_index(_docs(), model="document")
        b = session.create_index(_docs(), model="document")
        assert a.name != b.name

    def test_duplicate_name_rejected(self):
        session = GenieSession()
        session.create_index(_docs(), model="document", name="x")
        with pytest.raises(ConfigError, match="already exists"):
            session.create_index(_docs(), model="document", name="x")

    def test_unknown_name_lookup(self):
        with pytest.raises(ConfigError, match="no index named"):
            GenieSession().index("missing")

    def test_bad_budget_rejected(self):
        for budget in (0, float("nan"), 1.5, True):
            with pytest.raises(ConfigError, match="memory_budget"):
                GenieSession(memory_budget=budget)


    def test_search_before_fit_raises(self):
        session = GenieSession()
        handle = session.declare_index("document")
        with pytest.raises(QueryError, match="fitted"):
            handle.search(["hello"], k=1)

    def test_empty_batch_rejected(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        with pytest.raises(QueryError, match="empty query batch"):
            handle.search([], k=1)
        with pytest.raises(QueryError, match="raw_queries must be iterable"):
            handle.search(None, k=1)

    @pytest.mark.parametrize("option", ["k", "batch_size"])
    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf"), -float("inf"), 1.5, True, "3", np.float64(0.5)])
    def test_bad_k_rejected(self, value, option):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        with pytest.raises(QueryError, match=f"{option} must be"):
            handle.search(["gpu index"], **{option: value})

    @pytest.mark.parametrize("k", [2, np.int64(2), np.int32(2), 2.0, np.float64(2.0)])
    def test_integral_k_accepted(self, k):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        assert handle.search(["gpu index"], k=k).results[0].as_pairs() == handle.search(["gpu index"], k=2).results[0].as_pairs()

    def test_unsupported_search_option_rejected(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        with pytest.raises(QueryError):
            handle.search(["gpu index"], k=1, n_candidates=5)

    def test_drop_unregisters_and_frees(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document", name="x")
        assert handle.resident
        session.drop("x")
        assert session.indexes == ()
        assert session.resident_bytes == 0

    def test_close_evicts_everything(self):
        session = GenieSession()
        session.create_index(_docs(), model="document", name="x")
        session.create_index([[1, 2], [2, 3]], model="raw", name="y")
        assert session.resident_bytes > 0
        session.close()
        assert session.resident_bytes == 0
        assert session.indexes == ("x", "y")

    def test_evict_all_keeps_session_usable(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document", name="x")
        session.evict_all()
        assert session.resident_bytes == 0 and not session.closed
        result = handle.search(["gpu index"], k=2)  # swaps back in
        assert result.swapped_in == 1


class TestLifecycle:
    def test_close_is_idempotent_and_flagged(self):
        session = GenieSession()
        assert not session.closed
        session.close()
        session.close()
        assert session.closed

    def test_search_after_close_raises(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document", name="x")
        session.close()
        with pytest.raises(ConfigError, match="session is closed"):
            handle.search(["gpu index"], k=2)

    def test_create_index_after_close_raises(self):
        session = GenieSession()
        session.close()
        with pytest.raises(ConfigError, match="session is closed"):
            session.create_index(_docs(), model="document")

    def test_failed_create_index_leaves_no_zombie(self):
        # Regression: create_index registered the handle before fitting,
        # so a fit that raised left an unfitted index under the name.
        session = GenieSession()
        ann = dict(model="ann-e2lsh", name="x", num_functions=8, dim=2, width=4.0)
        with pytest.raises(ConfigError, match="non-finite"):
            session.create_index(np.array([[np.nan, 1.0]]), **ann)
        assert "x" not in session.indexes
        assert session.resident_bytes == 0
        with GenieServer(session) as server:
            with pytest.raises(ConfigError, match="no index named 'x'"):
                server.submit("x", np.zeros(2), k=1)
        handle = session.create_index(np.array([[0.0, 1.0], [2.0, 3.0]]), **ann)
        assert session.indexes == ("x",)
        assert int(handle.search(np.array([[0.0, 1.0]]), k=1)[0].ids[0]) == 0

    def test_fit_after_close_raises(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document", name="x")
        session.close()
        with pytest.raises(ConfigError, match="session is closed"):
            handle.fit(_docs())

    def test_context_manager_closes_on_exit(self):
        with GenieSession() as session:
            handle = session.create_index(_docs(), model="document", name="x")
            assert handle.resident
        assert session.closed
        assert session.resident_bytes == 0

    def test_entering_closed_session_raises(self):
        session = GenieSession()
        session.close()
        with pytest.raises(ConfigError, match="session is closed"):
            with session:
                pass


class TestResidencyLogBound:
    def test_log_is_bounded_with_total_counter(self):
        corpus = [[i % 11] for i in range(600)]
        session = GenieSession()
        session.residency_log = ResidencyLog(limit=4)
        whole = session.create_index(corpus, model="raw", name="whole")
        session.memory_budget = max(whole.device_bytes // 2, 16)
        parted = session.create_index(corpus, model="raw", name="parted", part_size=150)
        query = Query.from_keywords([0, 3])
        for _ in range(3):
            parted.search([query], k=5)  # each pass swaps 4 parts through
        log = session.residency_log
        assert len(log) <= 4
        assert log.total_events > len(log)
        assert log.dropped == log.total_events - len(log)
        assert all(e.kind in ("attach", "evict") for e in log)

    def test_search_result_events_exact_despite_tight_limit(self):
        # SearchResult.swapped_in/evicted must count every event a search
        # caused, even when the bounded session log retains fewer.
        corpus = [[i % 11] for i in range(600)]
        session = GenieSession()
        session.residency_log = ResidencyLog(limit=2)
        whole = session.create_index(corpus, model="raw", name="whole")
        session.memory_budget = max(whole.device_bytes // 2, 16)
        parted = session.create_index(corpus, model="raw", name="parted", part_size=150)
        result = parted.search([Query.from_keywords([0, 3])], k=5)
        assert result.swapped_in == 4  # all four parts transferred
        assert len(result.evicted) >= 2  # the budget forced swap-outs
        # More events were reported than the bounded log retains.
        assert result.swapped_in + len(result.evicted) > len(session.residency_log)
        assert len(session.residency_log) <= 2

    def test_since_survives_dropped_events(self):
        session = GenieSession()
        session.residency_log = ResidencyLog(limit=2)
        mark = session.residency_log.mark()
        session.create_index([[1]], model="raw", name="a")
        session.create_index([[2]], model="raw", name="b")
        session.create_index([[3]], model="raw", name="c")
        recent = session.residency_log.since(mark)
        # Only the retained tail is reported; never duplicates, never errors.
        assert [e.index for e in recent] == ["b", "c"]

    def test_bad_limit_rejected(self):
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="limit"):
                ResidencyLog(limit=bad)

    def test_search_events_unaffected_within_limit(self):
        session = GenieSession()  # default limit is generous
        handle = session.create_index(_docs(), model="document")
        session.evict_all()
        result = handle.search(["gpu index"], k=2)
        assert result.swapped_in == 1


class TestSearchSurface:
    def test_document_search_result_shape(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        result = handle.search(["gpu index search", "cat dog"], k=3)
        assert len(result) == 2
        assert len(result.ids) == 2 and len(result.counts) == 2
        assert result.payload is None
        assert result.profile.get("match") > 0

    def test_relational_search(self):
        session = GenieSession()
        handle = session.create_index(
            {"A": np.array([1, 2, 1]), "B": np.array([2, 1, 3]), "C": np.array([1, 2, 3])},
            model="relational",
            schema=[AttributeSpec(n, "categorical") for n in "ABC"],
        )
        result = handle.search([{"A": (1, 2), "B": (1, 1), "C": (2, 3)}], k=3)
        assert result[0].as_pairs() == [(1, 3), (2, 2), (0, 1)]

    def test_sequence_search_payload_verified(self):
        titles = ["approximate string matching", "inverted index search", "graph processing systems"]
        session = GenieSession()
        handle = session.create_index(titles, model="sequence", n=3)
        result = handle.search(["approximate string matcing"], k=1, n_candidates=3)
        seq = result.payload[0]
        assert seq.best.sequence_id == 0
        assert seq.best.distance == 1
        assert result.profile.get("verify") > 0

    def test_sequence_unseen_query_skipped(self):
        session = GenieSession()
        handle = session.create_index(["abcdef", "bcdefg"], model="sequence", n=3)
        result = handle.search(["zzzzzz"], k=1, n_candidates=2)
        assert len(result[0]) == 0
        assert result.payload[0].matches == []

    def test_ann_search_estimates(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((40, 8))
        session = GenieSession()
        handle = session.create_index(
            points, model="ann-e2lsh", num_functions=16, dim=8, width=4.0, seed=0, domain=67
        )
        assert handle.config.count_bound == 16
        result = handle.search(points[:3], k=2)
        for (ids, counts, estimates), top in zip(result.payload, result.results):
            assert np.allclose(estimates, counts / 16.0)
            assert np.array_equal(ids, top.ids)

    def test_batched_search_matches_single_batch(self):
        session = GenieSession()
        docs = _docs(40)
        handle = session.create_index(docs, model="document")
        queries = [docs[i] for i in range(8)]
        whole = handle.search(queries, k=3)
        split = handle.search(queries, k=3, batch_size=3)
        for a, b in zip(whole.results, split.results):
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.counts, b.counts)


class TestNonIntegralKeywords:
    """A float keyword with a fraction must not be truncated into another element."""

    @pytest.mark.parametrize("bad", [1.5, np.nan, np.inf])
    def test_raw_model_rejects_fractional_and_non_finite_keywords(self, bad):
        session = GenieSession()
        with pytest.raises(QueryError):
            session.create_index([[1, 2], [bad]], model="raw")
        handle = session.create_index([[1, 2], [2, 3], [3]], model="raw")
        with pytest.raises(QueryError):
            handle.search([[bad]], k=1)

    def test_integer_valued_float_equals_int(self):
        handle = GenieSession().create_index([[1, 2], [2, 3], [3]], model="raw")
        a, b = handle.search([[2.0]], k=2), handle.search([[2]], k=2)
        assert a[0].as_pairs() == b[0].as_pairs() == [(0, 1), (1, 1)]


class TestResidency:
    def test_multiple_indexes_share_budget_with_lru_eviction(self):
        corpus_a = [[i % 7] for i in range(600)]
        corpus_b = [[i % 5] for i in range(600)]
        session = GenieSession()
        a = session.create_index(corpus_a, model="raw", name="a")
        b_bytes = a.device_bytes  # same shape, same footprint
        session.memory_budget = a.device_bytes + b_bytes // 2  # only one fits
        b = session.create_index(corpus_b, model="raw", name="b")
        # Creating b evicted a (LRU) to fit within the budget.
        assert b.resident and not a.resident
        assert session.resident_parts() == [("b", 0)]

        result = a.search([Query.from_keywords([0])], k=2)
        assert result.swapped_in == 1
        assert [e.index for e in result.evicted] == ["b"]
        assert a.resident and not b.resident

    def test_resident_search_needs_no_swap(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        result = handle.search(["gpu index"], k=2)
        assert result.swapped_in == 0 and result.evicted == ()
        assert "index_transfer" not in result.profile.seconds

    def test_swap_in_charged_to_profile(self):
        session = GenieSession()
        handle = session.create_index(_docs(), model="document")
        session.evict(handle.name)
        result = handle.search(["gpu index"], k=2)
        assert result.swapped_in == 1
        assert result.profile.get("index_transfer") > 0

    def test_oversized_part_rejected_with_hint(self):
        session = GenieSession(memory_budget=8)
        with pytest.raises(ConfigError, match="part_size"):
            session.create_index([[i] for i in range(100)], model="raw")

    def test_index_larger_than_device_raises_oom(self):
        # With no explicit budget the hardware-level error surfaces, as it
        # always has for the engine/wrapper path.
        from repro.errors import GpuOutOfMemoryError
        from repro.gpu.device import Device
        from repro.gpu.specs import small_device

        session = GenieSession(device=Device(small_device(1024)))
        with pytest.raises(GpuOutOfMemoryError):
            session.create_index([[i] for i in range(1000)], model="raw")

    def test_partitioned_index_swaps_through_budget(self):
        corpus = [[i % 11] for i in range(1000)]
        session = GenieSession()
        whole = session.create_index(corpus, model="raw", name="whole")
        budget = whole.device_bytes // 2
        session.memory_budget = max(budget, 16)
        parted = session.create_index(corpus, model="raw", name="parted", part_size=250)
        assert parted.num_parts == 4

        query = Query.from_keywords([0, 3])
        result = parted.search([query], k=5)
        assert result.swapped_in >= 4  # every part transferred at least once
        assert len(result.evicted) > 0  # the budget forced swap-outs
        assert result.profile.get("index_transfer") > 0
        assert result.profile.get("result_merge") > 0

    def test_multimodal_session_within_budget(self):
        """Acceptance demo: >= 3 modalities resident under one stated budget."""
        rng = np.random.default_rng(1)
        session = GenieSession(memory_budget=512 * 1024)
        docs = session.create_index(_docs(50), model="document", name="tweets")
        seqs = session.create_index(
            ["approximate string matching", "generic inverted index", "similarity search on gpu"],
            model="sequence", name="titles",
        )
        ann = session.create_index(
            rng.standard_normal((60, 8)), model="ann-e2lsh",
            num_functions=8, dim=8, width=4.0, domain=67, name="points",
        )
        assert docs.resident and seqs.resident and ann.resident
        assert session.resident_bytes <= session.memory_budget

        assert docs.search(["gpu index search"], k=3).results
        assert seqs.search(["generic inverted indx"], k=1, n_candidates=2).payload[0].best is not None
        assert ann.search(rng.standard_normal((2, 8)), k=3).payload

    def test_ensure_resident_bumps_touched_part_to_mru(self):
        # Re-touching a resident part must move it to the MRU end, so the
        # *other* index is the eviction victim when the budget tightens.
        session = GenieSession()
        a = session.create_index([[i % 7] for i in range(400)], model="raw", name="a")
        b = session.create_index([[i % 7] for i in range(400)], model="raw", name="b")
        assert session.resident_parts() == [("a", 0), ("b", 0)]
        a.search([Query.from_keywords([0])], k=2)  # touch a: LRU order is now b, a
        assert session.resident_parts() == [("b", 0), ("a", 0)]
        # Room for two residents: attaching c evicts exactly the LRU one.
        session.memory_budget = 2 * a.device_bytes + b.device_bytes // 2
        session.create_index([[i % 7] for i in range(400)], model="raw", name="c")
        assert not b.resident and a.resident  # b was LRU, a survived

    def test_interleaved_multi_index_eviction_is_exactly_lru(self):
        corpus = [[i % 5] for i in range(300)]
        session = GenieSession()
        handles = {n: session.create_index(corpus, model="raw", name=n) for n in "abcd"}
        one = handles["a"].device_bytes
        session.memory_budget = 4 * one  # everything fits so far
        query = [Query.from_keywords([0])]
        # Interleaved touches: LRU order becomes c, a, d, b.
        for name in ["b", "c", "a", "d", "c", "a", "d", "b"]:
            handles[name].search(query, k=1)
        assert [n for n, _ in session.resident_parts()] == ["c", "a", "d", "b"]
        # Room for three residents: attaching a new index must evict the
        # two least recently used ones, in exactly LRU order.
        session.memory_budget = 3 * one + one // 2
        log_mark = session.residency_log.mark()
        session.create_index(corpus, model="raw", name="e")
        evicted = [e.index for e in session.residency_log.since(log_mark) if e.kind == "evict"]
        assert evicted == ["c", "a"]
        assert [n for n, _ in session.resident_parts()] == ["d", "b", "e"]

    def test_refit_replaces_parts(self):
        session = GenieSession()
        handle = session.create_index([[1], [2]], model="raw", name="x")
        first_bytes = handle.device_bytes
        handle.fit([[1], [2], [3], [4], [5]])
        assert handle.device_bytes > first_bytes
        assert handle.resident
        result = handle.search([Query.from_keywords([5])], k=1)
        assert int(result[0].ids[0]) == 4
