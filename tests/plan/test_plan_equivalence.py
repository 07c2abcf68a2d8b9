"""Property suite: every planner strategy is bit-identical to serial search.

The planner's contract (extending PR 4's shard-equivalence suite to
planned execution): shard-pruned, forced-broadcast, and two-round-TPUT
plans must reproduce the *serial* ``IndexHandle.search`` answer exactly —
same ids, same counts, same count-desc / id-asc tie order, same
thresholds, same model payloads — across every modality, both partition
strategies, and any shard count. Only the simulated time may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.core.types import Query
from repro.plan import COEFFICIENT_NAMES
from repro.sa.relational import AttributeSpec

#: Every (route, plan) strategy combination the planner can execute.
STRATEGIES = (
    {"route": None, "plan": None},                     # rule-chosen (pruned on range)
    {"route": "pruned", "plan": None},                 # forced pruning
    {"route": "broadcast", "plan": None},              # forced broadcast
    {"route": None, "plan": "two-round"},              # TPUT merge
    {"route": "broadcast", "plan": "two-round"},       # TPUT without routing
)


def assert_bit_identical(reference, planned):
    assert len(reference.results) == len(planned.results)
    for ref, got in zip(reference.results, planned.results):
        assert np.array_equal(ref.ids, got.ids), (ref.ids, got.ids)
        assert np.array_equal(ref.counts, got.counts)
        assert got.ids.dtype == ref.ids.dtype
        assert ref.threshold == got.threshold


corpora = st.lists(st.lists(st.integers(0, 15), max_size=6), min_size=1, max_size=25)
query_batches = st.lists(
    st.lists(st.lists(st.integers(0, 25), max_size=4), max_size=4),
    min_size=1,
    max_size=5,
)


@settings(max_examples=50, deadline=None)
@given(
    raw_objects=corpora,
    raw_queries=query_batches,
    n_shards=st.integers(1, 5),
    strategy=st.sampled_from(["range", "hash"]),
    mode=st.sampled_from(STRATEGIES),
    k=st.integers(1, 8),
)
def test_planned_equals_serial_property(raw_objects, raw_queries, n_shards, strategy, mode, k):
    queries = [Query(items=items) for items in raw_queries]
    reference = (
        GenieSession()
        .create_index(raw_objects, model="raw", name="ref")
        .search(queries, k=k)
    )
    handle = GenieSession().create_index(
        raw_objects, model="raw", name="sharded",
        shards=n_shards, shard_strategy=strategy, shard_seed=3,
    )
    planned = handle.search(queries, k=k, **mode)
    assert_bit_identical(reference, planned)
    assert planned.routing is not None
    assert len(planned.shard_profiles) == n_shards


# ----------------------------------------------------------------------
# fixed-seed modality grid


def _relational_workload(rng):
    n = 80
    age = np.sort(rng.uniform(18, 90, size=n))  # sorted: range shards get age bands
    job = rng.integers(0, 4, size=n)
    data = {"age": age, "job": job}
    schema = [AttributeSpec("age", "numeric", bins=24), AttributeSpec("job", "categorical")]
    queries = [{"age": (a, a + 4.0)} for a in rng.uniform(18, 85, size=8)]
    return dict(data=data, model="relational", queries=queries,
                kwargs={"schema": schema})


def _document_workload(rng):
    words = ["gpu", "index", "fox", "dog", "honey", "park", "query", "batch",
             "shard", "plan", "merge", "cache"]
    docs = [" ".join(rng.choice(words, size=5, replace=False)) for _ in range(60)]
    queries = [" ".join(rng.choice(words, size=3, replace=False)) for _ in range(8)]
    return dict(data=docs, model="document", queries=queries, kwargs={})


def _sequence_workload(rng):
    alphabet = np.array(list("acgt"))
    seqs = ["".join(rng.choice(alphabet, size=12)) for _ in range(50)]
    queries = ["".join(rng.choice(alphabet, size=10)) for _ in range(6)] + ["zzzz"]
    return dict(data=seqs, model="sequence", queries=queries, kwargs={},
                opts={"n_candidates": 8})


def _ngram_workload(rng):
    alphabet = np.array(list("acgt"))
    seqs = ["".join(rng.choice(alphabet, size=12)) for _ in range(50)]
    queries = ["".join(rng.choice(alphabet, size=8)) for _ in range(6)] + ["zzzz"]
    return dict(data=seqs, model="ngram", queries=queries, kwargs={})


def _ann_workload(rng):
    points = rng.normal(size=(60, 8))
    queries = rng.normal(size=(6, 8))
    return dict(data=points, model="ann-e2lsh", queries=queries,
                kwargs={"num_functions": 16, "dim": 8, "width": 4.0,
                        "seed": 0, "domain": 67})


WORKLOADS = {
    "relational": _relational_workload,
    "document": _document_workload,
    "sequence": _sequence_workload,
    "ngram": _ngram_workload,
    "ann": _ann_workload,
}


def _assert_payload_identical(model, reference, planned):
    if reference.payload is None:
        assert planned.payload is None
        return
    assert len(reference.payload) == len(planned.payload)
    for ref, got in zip(reference.payload, planned.payload):
        if model == "sequence":
            assert ref.matches == got.matches
            assert ref.certified == got.certified
        else:  # ann: (ids, counts, counts/m) triples
            for a, b in zip(ref, got):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("modality", sorted(WORKLOADS))
@pytest.mark.parametrize("strategy", ["range", "hash"])
@pytest.mark.parametrize("n_shards", [2, 4])
def test_modality_grid_bit_identical(modality, strategy, n_shards):
    spec = WORKLOADS[modality](np.random.default_rng(7))
    opts = spec.get("opts", {})

    serial = GenieSession().create_index(
        spec["data"], model=spec["model"], name="ref", **spec["kwargs"]
    )
    reference = serial.search(spec["queries"], k=5, **opts)

    handle = GenieSession().create_index(
        spec["data"], model=spec["model"], name="planned",
        shards=n_shards, shard_strategy=strategy, **spec["kwargs"],
    )
    for mode in STRATEGIES:
        planned = handle.search(spec["queries"], k=5, **mode, **opts)
        assert_bit_identical(reference, planned)
        _assert_payload_identical(spec["model"], reference, planned)


def test_routing_actually_prunes_on_sorted_range_data():
    # The grid above proves correctness; this pins that the range-sharded
    # relational workload really exercises the pruning rule (a vacuous
    # broadcast-everything equivalence would prove nothing). Pruning is
    # batch-granular, so it shows on band-local batches — the serving
    # shape — not on one mixed batch spanning every age band.
    spec = _relational_workload(np.random.default_rng(7))
    handle = GenieSession().create_index(
        spec["data"], model=spec["model"], name="adult",
        shards=4, **spec["kwargs"],
    )
    mixed = handle.search(spec["queries"], k=5)
    assert mixed.routing.broadcast  # bands cover every shard together

    pruned_total = 0
    routed_busy = broadcast_busy = 0.0
    for query in spec["queries"]:
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


# ----------------------------------------------------------------------
# costed "auto" under adversarial calibration

#: Deliberately wrong coefficient dicts. The planner's invariant is that
#: pricing only ever *selects among exact candidates*, so no calibration
#: — absurd, negative, degenerate, or partial — can change results.
MISCALIBRATIONS = (
    {name: 1.0 for name in COEFFICIENT_NAMES},      # everything costs seconds
    {name: -1.0 for name in COEFFICIENT_NAMES},     # negative: clamps to free
    {name: 0.0 for name in COEFFICIENT_NAMES},      # all candidates tie
    {"match.hot": 5e3},                             # partial: missing keys read 0
    {"topup.const": -7.0, "topup.concentration": 99.0,
     "match.gated": 1e6, "match.postings": -3.0},   # inconsistent mixture
)


@pytest.mark.parametrize("coefficients", MISCALIBRATIONS,
                         ids=["huge", "negative", "zero", "partial", "mixed"])
@pytest.mark.parametrize("strategy", ["range", "hash"])
def test_miscalibrated_auto_stays_bit_identical(coefficients, strategy):
    rng = np.random.default_rng(11)
    objects = [np.unique(rng.integers(0, 24, size=4)).tolist() for _ in range(60)]
    batches = [[np.sort(rng.choice(24, size=3, replace=False)).tolist()
                for _ in range(4)] for _ in range(3)]
    reference_handle = GenieSession().create_index(objects, model="raw", name="ref")

    session = GenieSession()
    session.cost_coefficients = coefficients
    handle = session.create_index(
        objects, model="raw", name="sharded", shards=4, shard_strategy=strategy,
    )
    for batch in batches:
        for k in (1, 5):
            reference = reference_handle.search(batch, k=k)
            assert_bit_identical(reference, handle.search(batch, k=k))


def test_two_round_merge_tops_up_only_when_needed():
    # All mass in one shard: the busy shard must top up (its round-one
    # threshold can't rule out unfetched candidates), while shards with
    # fewer than first_round_k candidates are complete and never rescan.
    objects = [[0, 1, 2]] * 10 + [[9]]  # shard bounds split heavy prefix
    handle = GenieSession().create_index(
        objects, model="raw", name="skew", shards=2,
    )
    reference = GenieSession().create_index(
        objects, model="raw", name="ref"
    ).search([[0, 1, 2]], k=6)
    planned = handle.search([[0, 1, 2]], k=6, plan="two-round")
    assert_bit_identical(reference, planned)
