"""``IndexHandle.explain()``: exact snapshot of the rendered plan text.

The rendering is part of the public surface (README transcripts, the
``plan_explain`` example, operator tooling); these snapshots pin it.
"""

import pytest

from repro.api import GenieSession
from repro.errors import QueryError

OBJECTS = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6]]


def test_explain_serial_snapshot():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy")
    assert handle.explain([[0], [5]], k=2).render() == "\n".join([
        "Scan(index='toy', parts=1, queries=2, k=2)",
        "└─ Encode(model='raw', queries=2)",
    ])


def test_explain_multipart_snapshot():
    session = GenieSession()
    handle = session.create_index(
        OBJECTS, model="raw", name="parts", part_size=2, swap_parts=True
    )
    assert handle.explain([[0]], k=2).render() == "\n".join([
        "Merge(one-round, k=2)",
        "└─ Scan(index='parts', parts=3, swap_parts, queries=1, k=2)",
        "   └─ Encode(model='raw', queries=1)",
    ])


def test_explain_routed_shards_snapshot():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy", shards=3)
    assert handle.explain([[0], [5], [0, 5]], k=2).render() == "\n".join([
        "Merge(one-round, k=2)",
        "└─ ShardScan(index='toy', strategy='range', shards=3, queries=3, k=2, routed shards=2/3)",
        "   · shard 0 ← eligible queries [0, 2]",
        "   · shard 1 ← (pruned)",
        "   · shard 2 ← eligible queries [1, 2]",
        "   └─ Encode(model='raw', queries=3)",
    ])


def test_explain_two_round_snapshot():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy", shards=3)
    rendered = handle.explain(
        [[0], [5]], k=4, route="broadcast", plan="two-round"
    ).render()
    assert rendered == "\n".join([
        "Merge(two-round-tput, k=4, first_round_k=3)",
        "└─ ShardScan(index='toy', strategy='range', shards=3, queries=2, k=3, broadcast)",
        "   └─ Encode(model='raw', queries=2)",
    ])


def test_explain_sequence_finalize_and_elision_snapshot():
    session = GenieSession()
    handle = session.create_index(
        ["abcdef", "bcdefg", "cdefgh"], model="sequence", name="seqs"
    )
    rendered = handle.explain(["bcde", "zzzz"], k=1, n_candidates=2).render()
    assert rendered == "\n".join([
        "Finalize(model='sequence', k=1)",
        "└─ Scan(index='seqs', parts=1, queries=1, k=2)",
        "   └─ Encode(model='sequence', queries=2, elided=[1])",
    ])


def test_explain_matches_executed_plan():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy", shards=3)
    queries = [[0], [5]]
    explained = handle.explain(queries, k=2)
    result = handle.search(queries, k=2)
    assert result.plan.render() == explained.render()


def test_explain_does_not_execute():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy", shards=2)
    before = {d: d.timings.copy().seconds for d in session.shard_devices(2)}
    events = session.residency_log.total_events
    handle.explain([[0]], k=1)
    for device, seconds in before.items():
        assert device.timings.seconds == seconds
    assert session.residency_log.total_events == events
    assert handle.last_result is None


def test_explain_validates_like_search():
    session = GenieSession()
    handle = session.create_index(OBJECTS, model="raw", name="toy")
    with pytest.raises(QueryError, match="empty query batch"):
        handle.explain([], k=1)
    for call in (handle.explain, handle.search):
        with pytest.raises(QueryError, match="raw_queries must be iterable, got NoneType"):
            call(None, k=1)
    with pytest.raises(QueryError, match="k must be >= 1"):
        handle.explain([[0]], k=0)
    with pytest.raises(QueryError, match="requires a sharded index"):
        handle.explain([[0]], k=1, route="pruned")
    with pytest.raises(QueryError, match="does not accept search options"):
        handle.explain([[0]], k=1, bogus=3)
