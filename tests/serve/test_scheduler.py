"""Tests for BatchPolicy and MicroBatchScheduler: triggers, fairness, lanes."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.serve.scheduler import BatchPolicy, MicroBatchScheduler


class _Req:
    """Minimal queued item: arrival/seq/lane, as the scheduler requires."""

    _next_seq = 0

    def __init__(self, arrival=0.0, lane=(10, ())):
        self.arrival = arrival
        self.lane = lane
        self.seq = _Req._next_seq
        _Req._next_seq += 1

    def __repr__(self):
        return f"_Req(seq={self.seq}, t={self.arrival}, lane={self.lane})"


class TestBatchPolicy:
    def test_defaults_are_micro(self):
        policy = BatchPolicy()
        assert policy == BatchPolicy.micro()
        assert policy.max_batch >= 1

    def test_fifo_is_single_request(self):
        assert BatchPolicy.fifo() == BatchPolicy.micro(max_batch=1, max_wait=0.0)

    def test_bad_max_batch_rejected(self):
        with pytest.raises(ConfigError, match="max_batch"):
            BatchPolicy.micro(max_batch=0)

    @pytest.mark.parametrize("max_batch", [1.5, 2.0, "2", None])
    def test_non_integral_max_batch_rejected(self, max_batch):
        with pytest.raises(ConfigError, match="max_batch must be an integer"):
            BatchPolicy.micro(max_batch=max_batch)

    def test_negative_max_wait_rejected(self):
        with pytest.raises(ConfigError, match="max_wait"):
            BatchPolicy.micro(max_wait=-1e-3)

    def test_nan_max_wait_rejected(self):
        with pytest.raises(ConfigError, match="max_wait"):
            BatchPolicy.micro(max_wait=float("nan"))

    def test_an_infinite_wait_is_flushed_by_a_drain(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=4, max_wait=float("inf")))
        request = _Req(arrival=0.0)
        sched.enqueue("x", request)
        assert sched.next_deadline() == float("inf") and sched.pop_ready(now=1e300) == []
        assert sched.pop_all() == [("x", [request])]


class TestFifo:
    def test_queues_drain_round_robin_one_request_a_batch(self):
        # Micro-batching of one: a scheduler holding several queues takes one
        # request from each per sweep, not the globally oldest first.
        sched = MicroBatchScheduler(BatchPolicy.fifo())
        a = _Req(arrival=0.1)
        b = _Req(arrival=0.12)
        c = _Req(arrival=0.15)
        sched.enqueue("x", a)
        sched.enqueue("x", b)
        sched.enqueue("y", c)
        batches = sched.pop_ready(now=1.0)
        assert [(name, reqs[0]) for name, reqs in batches] == [("x", a), ("y", c), ("x", b)]
        assert all(len(reqs) == 1 for _, reqs in batches)
        assert sched.depth == 0

    def test_next_deadline_is_oldest_arrival(self):
        sched = MicroBatchScheduler(BatchPolicy.fifo())
        assert sched.next_deadline() is None
        sched.enqueue("x", _Req(arrival=0.7))
        sched.enqueue("y", _Req(arrival=0.3))
        assert sched.next_deadline() == 0.3


class TestMicro:
    def test_not_ready_before_wait_or_size(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=4, max_wait=0.5))
        sched.enqueue("x", _Req(arrival=0.0))
        sched.enqueue("x", _Req(arrival=0.1))
        assert sched.pop_ready(now=0.4) == []
        assert sched.depth == 2

    def test_size_trigger_dispatches_full_batch(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=3, max_wait=100.0))
        reqs = [_Req(arrival=0.0) for _ in range(3)]
        for r in reqs:
            sched.enqueue("x", r)
        batches = sched.pop_ready(now=0.0)
        assert batches == [("x", reqs)]

    def test_wait_trigger_fires_exactly_at_deadline(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=8, max_wait=0.5))
        first = _Req(arrival=0.25)
        sched.enqueue("x", first)
        deadline = sched.next_deadline()
        assert deadline == 0.25 + 0.5
        assert sched.pop_ready(now=deadline - 1e-9) == []
        batches = sched.pop_ready(now=deadline)
        assert batches == [("x", [first])]

    def test_round_robin_interleaves_ready_indexes(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=2, max_wait=0.0))
        hot = [_Req(arrival=0.0) for _ in range(6)]
        cold = [_Req(arrival=0.0)]
        for r in hot:
            sched.enqueue("hot", r)
        sched.enqueue("cold", cold[0])
        batches = sched.pop_ready(now=0.0)
        names = [name for name, _ in batches]
        # The cold index is served within the first sweep, not after every
        # hot batch: round-robin means position 0 or 1, never last.
        assert "cold" in names[:2]
        assert names.count("hot") == 3
        served_hot = [r for name, reqs in batches if name == "hot" for r in reqs]
        assert served_hot == hot  # order preserved within the hot queue

    def test_lane_gather_splits_incompatible_requests(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=8, max_wait=0.0))
        k10 = [_Req(arrival=0.0, lane=(10, ())) for _ in range(2)]
        k5 = _Req(arrival=0.0, lane=(5, ()))
        sched.enqueue("x", k10[0])
        sched.enqueue("x", k5)  # different lane interleaved
        sched.enqueue("x", k10[1])
        batches = sched.pop_ready(now=0.0)
        assert ("x", k10) in [(n, r) for n, r in batches]
        assert ("x", [k5]) in [(n, r) for n, r in batches]

    def test_pop_all_chunks_by_max_batch(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=2, max_wait=100.0))
        reqs = [_Req(arrival=0.0) for _ in range(5)]
        for r in reqs:
            sched.enqueue("x", r)
        batches = sched.pop_all()
        assert [len(r) for _, r in batches] == [2, 2, 1]
        assert [r for _, reqs in batches for r in reqs] == reqs
        assert sched.depth == 0

    def test_pop_all_ignores_readiness(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=2, max_wait=100.0))
        only = _Req(arrival=0.0)
        sched.enqueue("x", only)
        assert sched.pop_ready(now=0.0) == []  # neither size nor wait is due
        assert sched.pop_all() == [("x", [only])]

    def test_depths_per_index(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=8, max_wait=100.0))
        sched.enqueue("x", _Req())
        sched.enqueue("x", _Req())
        sched.enqueue("y", _Req())
        assert sched.depths() == {"x": 2, "y": 1}
        assert sched.depth == 3


class _ReferenceSweep:
    """The scheduler's specification: a rotation deque, one full sweep a pass.

    Every sweep rotates the whole rotation and sweeps again until nothing
    is ready — no early exit, no depth counter. A dropped index's empty
    queue leaves the rotation, as the scheduler forgets it.
    """

    def __init__(self, policy):
        self.policy = policy
        self.queues = {}
        self.rotation = deque()

    def enqueue(self, index, request):
        self.queues.setdefault(index, deque()).append(request)
        if index not in self.rotation:
            self.rotation.append(index)

    def forget(self, index):
        if index in self.queues and not self.queues[index]:
            del self.queues[index]
            self.rotation.remove(index)

    def pop(self, now, drain):
        batches, progressed = [], True
        while progressed:
            progressed = False
            for _ in range(len(self.rotation)):
                name = self.rotation[0]
                self.rotation.rotate(-1)
                queue = self.queues[name]
                ready = queue and (
                    drain or len(queue) >= self.policy.max_batch
                    or now >= queue[0].arrival + self.policy.max_wait
                )
                if not ready:
                    continue
                lane, batch, kept = queue[0].lane, [], []
                while queue and len(batch) < self.policy.max_batch:
                    request = queue.popleft()
                    (batch if request.lane == lane else kept).append(request)
                queue.extendleft(reversed(kept))
                batches.append((name, batch))
                progressed = True
        return batches


_TIMES = st.integers(0, 12).map(lambda quarter: quarter / 4)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.sampled_from("xyz"), st.sampled_from([(10, ()), (5, ())]), _TIMES),
        st.tuples(st.just("pop_ready"), _TIMES),
        st.tuples(st.just("pop_all"), _TIMES),
        st.tuples(st.just("drop"), st.sampled_from("xyz")),
    ),
    max_size=60,
)


class TestAgainstTheFullSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        max_batch=st.integers(1, 4),
        max_wait=st.sampled_from([0.0, 0.5, 1.25, float("inf")]),
        steps=_STEPS,
    )
    def test_every_step_matches_the_reference(self, max_batch, max_wait, steps):
        policy = BatchPolicy.micro(max_batch=max_batch, max_wait=max_wait)
        sched, ref = MicroBatchScheduler(policy), _ReferenceSweep(policy)
        for step in steps:
            if step[0] == "enqueue":
                _, name, lane, arrival = step
                request = _Req(arrival=arrival, lane=lane)
                sched.enqueue(name, request)
                ref.enqueue(name, request)
            elif step[0] == "pop_ready":
                assert sched.pop_ready(step[1]) == ref.pop(step[1], drain=False)
            elif step[0] == "pop_all":
                assert sched.pop_all(step[1]) == ref.pop(step[1], drain=True)
            else:
                sched.forget(step[1])
                ref.forget(step[1])
            assert sched.depth == sum(len(q) for q in ref.queues.values())
            assert sched.depths() == {name: len(q) for name, q in ref.queues.items() if q}
            heads = [q[0].arrival + max_wait for q in ref.queues.values() if q]
            assert sched.next_deadline() == (min(heads) if heads else None)

    def test_forget_keeps_a_queue_that_still_holds_requests(self):
        sched = MicroBatchScheduler(BatchPolicy.micro(max_batch=4, max_wait=100.0))
        request = _Req()
        sched.enqueue("x", request)
        sched.forget("x")
        sched.forget("never-queued")
        assert sched.depths() == {"x": 1}
        assert sched.pop_all() == [("x", [request])]
        sched.forget("x")
        assert sched._queues == {}
