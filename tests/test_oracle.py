"""The one oracle: a state machine over model × handle kind × mutations × faults × directives.

GENIE's contract is exact: every query's top-k ids, counts, tie order and
Theorem 3.1 threshold equal a full match-count scan of the logical corpus.
One machine per (model, handle kind, batch policy, result cache) cell
interleaves mutations, faults, directives, served bursts and edge inputs,
and checks every answer it sees against
:func:`~repro.core.match_count.brute_force_topk` over its own encoded
corpus (one slot per global id, dead slots empty, encoded by a second
model instance). Every raised error must be a
:class:`~repro.errors.ReproError`. The scripted tests at the end replay
the cross-feature bugs found so far through the same machine.
"""

import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import Phase, currently_in_test_context, event, seed, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.api import GenieSession
from repro.api.models import resolve_model
from repro.core.match_count import brute_force_topk
from repro.core.types import Corpus
from repro.errors import AvailabilityError, ConfigError, QueryError, ReproError
from repro.replica import FaultEvent, FaultPlan
from repro.sa.relational import AttributeSpec
from repro.serve import BatchPolicy, GenieServer
from repro.stream import StreamConfig

N = 24
HUGE = 2**63 - 1  # the largest keyword an int64 posting holds
INF = math.inf
NAN = math.nan
WORDS = ("gpu", "index", "fox", "dog", "honey", "park", "query", "batch", "shard", "plan", "merge", "cache")

KINDS = {
    "serial": {},
    "multi": {"part_size": 8},
    "multi-swap": {"part_size": 8, "swap_parts": True},
    "shards-1": {"shards": 1},
    "range": {"shards": 3},
    "hash-r2": {"shards": 3, "shard_strategy": "hash", "replicas": 2},
}
#: The server's batch policy: ``BatchPolicy.micro(max_batch, max_wait)``.
POLICIES = {"micro1": (1, 0.0), "micro4": (4, 1e-4)}
#: The server's result cache size (``None``: off).
CACHES = {"cache": 64, "nocache": None}

RAW_OBJECTS = st.lists(st.sampled_from((*range(20), HUGE)), min_size=1, max_size=5)
KS = st.sampled_from([1, 3, "many"])  # "many": more than the corpus holds
ROUTES = st.sampled_from([None, "pruned", "broadcast"])
PLANS = st.sampled_from([None, "one-round", "two-round"])
#: The probe invariant's directives, cycled: (k, batch_size, route, plan).
PROBE_DIRECTIVES = list(itertools.product([1, 3, "many"], [None, 3], [None, "pruned", "broadcast"], [None, "two-round"]))


# ----------------------------------------------------------------------
# models on small seeded data


@dataclass(frozen=True)
class Model:
    """One match model: its arguments, seeded data and raw-query strategy."""

    name: str
    kwargs: dict
    data: object  # rng -> raw corpus
    queries: object  # raw corpus -> strategy of one raw query
    empty: object  # a raw corpus with no objects
    probe: object  # one valid raw query (and what a refused insert passes)


def _range_query(lo, hi, job):
    query = {"age": (min(lo, hi), max(lo, hi))}  # ±inf: an open side
    if job is not None:
        query["job"] = (job, job)
    return query


def _documents(rng):
    # Document i holds WORDS[i % 12], so every word is indexed.
    return [" ".join([WORDS[i % len(WORDS)], *rng.choice(WORDS, size=3)]) for i in range(N)]


def _point_query(points):
    def near(i, seed):
        return points[i] + 0.5 * np.random.default_rng(seed).normal(size=points.shape[1])

    return st.builds(near, st.integers(0, len(points) - 1), st.integers(0, 99))


MODELS = {
    "raw": Model(
        "raw", {}, lambda rng: [rng.integers(0, 16, size=int(rng.integers(1, 6))).tolist() for _ in range(N)],
        lambda data: st.lists(st.sampled_from((*range(20), HUGE)), max_size=4),
        [], [1, 2],
    ),
    "relational": Model(
        "relational",
        {"schema": [AttributeSpec("age", "numeric", bins=12), AttributeSpec("job", "categorical")]},
        lambda rng: {"age": np.sort(rng.uniform(18, 90, size=N)), "job": rng.integers(0, 4, size=N)},
        lambda data: st.builds(
            _range_query, st.sampled_from([-INF, 18.0, 30.0, 45.0, 60.0]),
            st.sampled_from([25.0, 40.0, 70.0, INF]), st.sampled_from([None, 0, 1, 2, 3]),
        ),
        {"age": np.empty(0), "job": np.empty(0, dtype=np.int64)},
        {"age": (30.0, 50.0)},
    ),
    "document": Model(
        "document", {}, _documents,
        lambda data: st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
        [], "gpu dog",
    ),
    "sequence": Model(
        "sequence", {},
        lambda rng: ["".join(rng.choice(list("acgt"), size=8)) for _ in range(N)],
        lambda data: st.text("acgt", min_size=2, max_size=9) | st.just("zzzz"),
        [], "acgtacgt",
    ),
    "ann-e2lsh": Model(
        "ann-e2lsh", {"num_functions": 8, "dim": 6, "width": 4.0, "seed": 0, "domain": 67},
        lambda rng: rng.normal(size=(N, 6)),
        _point_query, np.empty((0, 6)), np.zeros(6),
    ),
}


def note(text):
    """A statistics event (``--hypothesis-show-statistics``); scripted tests run outside hypothesis."""
    if currently_in_test_context():
        event(text)


def step(checks=False, **strategies):
    """A ``rule`` that records its firing.

    ``checks``: the rule checks answers itself or cannot change them, so
    the probe invariant skips the step after it; a rule that returns
    ``True`` says the same of one firing.
    """
    def wrap(method):
        @functools.wraps(method)
        def fired(self, **kwargs):
            note(f"rule {method.__name__}")
            self.checked = bool(method(self, **kwargs)) or checks

        return rule(**strategies)(fired)

    return wrap


class OracleMachine(RuleBasedStateMachine):
    """Drive one (model, kind) index behind one server; check every answer against brute force."""

    model_name = "raw"
    kind = "serial"
    policy = "micro1"
    cache = "cache"
    name = "idx"

    @initialize(corpus_seed=st.integers(0, 2), auto_compact=st.booleans(), recut=st.booleans(), data=st.data())
    def init(self, corpus_seed, auto_compact, recut, data):
        corpus = MODELS[self.model_name].data(np.random.default_rng(corpus_seed))
        self.begin(corpus, auto_compact)
        self.probes = data.draw(self.queries, "probes")
        self.steps = data.draw(st.integers(0, len(PROBE_DIRECTIVES) - 1), "directive cycle start")
        if recut:  # start from rebalanced cuts (a no-op unless range-sharded)
            self.rebalance(weights=[10.0, 1.0, 1.0])

    def begin(self, data, auto_compact=False):
        spec = self.spec = MODELS[self.model_name]
        self.data = data
        self.session = GenieSession()
        self.handle = self.session.create_index(
            data, model=spec.name, name=self.name,
            stream_config=StreamConfig(compact_ratio=0.5, auto_compact=auto_compact),
            **KINDS[self.kind], **spec.kwargs,
        )
        self.server = GenieServer(
            self.session, policy=BatchPolicy.micro(*POLICIES[self.policy]), cache_size=CACHES[self.cache]
        )
        # The logical corpus, encoded by a model instance of its own.
        self.reference = resolve_model(spec.name, **spec.kwargs)
        self.logical = [np.asarray(row) for row in self.reference.encode_corpus(data)]
        self.queries = st.lists(spec.queries(data), min_size=1, max_size=3)
        self.twin = None
        if spec.name in ("sequence", "ann-e2lsh") and self.kind != "serial":
            self.twin = GenieSession().create_index(data, model=spec.name, **spec.kwargs)
        self.events, self.cuts, self.pending, self.steps, self.memo, self.dead = [], None, [], 0, {}, set()
        self.probes, self.checked = [spec.probe], False
        self.last_search = self.last_burst = self.last_result = None

    def teardown(self):
        if not hasattr(self, "server"):
            return
        self.server.close()  # drains: every future resolves
        self.settle()
        assert not self.pending
        self.session.close()
        if self.twin is not None:
            self.twin.session.close()

    def live(self) -> list[int]:
        return [gid for gid in range(len(self.logical)) if gid not in self.dead]

    def dirty(self) -> bool:
        return self.handle.manifest is not None and self.handle.manifest.dirty

    def resolve(self, k, route, plan):
        """``(k, opts, route, plan)``: ``"many"`` is past the corpus size, sequences widen
        the shortlist, and route / merge directives are for sharded handles only."""
        k = len(self.logical) + 3 if k == "many" else k
        opts = {"n_candidates": max(k, 6)} if self.spec.name == "sequence" else {}
        sharded = self.handle.placement is not None
        return k, opts, route if sharded else None, plan if sharded else None

    def expected(self, query, k):
        """Brute force ``(ids, counts, threshold)``, remembered until the corpus changes."""
        key = (tuple(tuple(item.tolist()) for item in query.items), k)
        if key not in self.memo:
            # min(k, n) objects, zero counts included: the last count is the k-th count.
            top = brute_force_topk(query, Corpus(self.logical), k)
            self.memo[key] = [i for i, c in top if c], [c for _, c in top if c], top[-1][1] if top else 0
        return self.memo[key]

    def check_answers(self, raws, k, results, opts):
        width = int(opts.get("n_candidates", k))
        encoded = self.reference.encode_queries(raws)
        assert len(results) == len(encoded)
        for query, got in zip(encoded, results):
            assert (got.ids.tolist(), got.counts.tolist(), int(got.threshold)) == self.expected(query, width)

    def check_payload(self, raws, k, opts, payload):
        """Sequence and ANN payloads equal a serial handle's after the same deletes."""
        if self.twin is None:
            return
        reference = self.twin.search(raws, k=k, **opts).payload
        assert len(payload) == len(reference)
        for got, want in zip(payload, reference):
            if self.spec.name == "sequence":
                assert (got.matches, got.certified) == (want.matches, want.certified)
            else:  # ANN: (ids, counts, counts / m)
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def check_available(self, raws, when, error=None):
        """``AvailabilityError`` exactly when a batch with keywords must scan a lost delta run.

        At most ``replicas - 1`` devices are ever crashed, so every base group
        keeps a live copy; the run lives on device 0 alone (ROADMAP 4(e)).
        """
        faults, manifest = self.session.faults, self.handle.manifest
        lost = bool(faults and manifest and len(manifest.delta) and 0 in faults.plan.down_devices(when))
        if error is not None:
            assert lost and (error.segment, error.devices) == (0, (0,)), error
            note("AvailabilityError: the delta run's device is down")
        elif self.reference.encode_queries(raws).items_per_query.any():
            assert not lost

    def check_search(self, raws, k=3, batch_size=None, route=None, plan=None, **extra):
        k, opts, route, plan = self.resolve(k, route, plan)
        opts.update(extra)
        self.last_search = (raws, k, batch_size, route, plan, extra)
        try:
            result = self.handle.search(raws, k=k, batch_size=batch_size, route=route, plan=plan, **opts)
        except AvailabilityError as error:
            return self.check_available(raws, self.server.clock.now(), error)
        self.check_available(raws, self.server.clock.now())
        self.last_result = result
        self.check_answers(raws, k, result.results, opts)
        self.check_payload(raws, k, opts, result.payload)
        if self.handle.swap_parts and self.reference.encode_queries(raws).items_per_query.any():
            # Multi-loading: every base part swapped in for its scan and out again.
            assert self.handle.resident_parts == 0 and result.swapped_in >= self.handle.num_parts

    def serve(self, raws, k=3, route=None, plan=None, finish="drain"):
        k, opts, route, plan = self.resolve(k, route, plan)
        self.last_burst = (raws, k, route, plan, finish)
        futures = self.server.submit_many(self.name, raws, k=k, route=route, plan=plan, **opts)
        self.pending += [(future, raw, k, opts) for future, raw in zip(futures, raws)]
        if finish == "drain":
            self.server.drain()
        else:
            self.server.advance(finish)
        self.settle()

    def settle(self):
        """Check every answered future; nothing mutates between a dispatch and this check."""
        waiting = []
        for future, raw, k, opts in self.pending:
            if not future.done():
                waiting.append((future, raw, k, opts))
                continue
            try:
                got = future.result()
            except AvailabilityError as error:
                self.check_available([raw], future.metadata.dispatched, error)
                continue
            if not future.metadata.cache_hit:
                self.check_available([raw], future.metadata.dispatched)
            self.check_answers([raw], k, [got], opts)
            self.check_payload([raw], k, opts, [future.payload])
        self.pending = waiting

    @invariant()
    def probes_answer_like_brute_force(self):
        """After every step that may move an answer, the probes answer exactly under the next directives."""
        if self.cuts is not None:
            # Rebalanced cuts survive every compaction, manual or automatic.
            assert self.handle.plan.bounds[:-1] == self.cuts
        if self.checked:
            return
        self.steps += 5  # coprime to the cycle: every combination comes round
        self.check_search(self.probes, *PROBE_DIRECTIVES[self.steps % len(PROBE_DIRECTIVES)])

    @step(objects=st.lists(RAW_OBJECTS, min_size=1, max_size=3))
    def insert(self, objects):
        if self.spec.name != "raw":
            with pytest.raises(ConfigError, match="online ingest"):
                self.handle.insert([self.spec.probe])
            return
        gids = self.handle.insert(objects)
        assert gids.tolist() == list(range(len(self.logical), len(self.logical) + len(objects)))
        self.logical += [np.unique(np.asarray(row, dtype=np.int64)) for row in objects]
        self.memo.clear()

    @precondition(lambda self: self.live())
    @step(pick=st.integers(0, 10**6), obj=RAW_OBJECTS)
    def update(self, pick, obj):
        live = self.live()
        gid = live[pick % len(live)]
        if self.spec.name != "raw":
            with pytest.raises(ConfigError, match="online ingest"):
                self.handle.update(gid, self.spec.probe)
            return
        self.handle.update(gid, obj)
        self.logical[gid] = np.unique(np.asarray(obj, dtype=np.int64))
        self.memo.clear()

    @precondition(lambda self: self.live())
    @step(picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=2, unique=True))
    def delete(self, picks):
        live = self.live()
        victims = sorted({live[p % len(live)] for p in picks})
        self.handle.delete(victims)
        if self.twin is not None:
            self.twin.delete(victims)
        for gid in victims:
            self.logical[gid] = np.empty(0, dtype=np.int64)
        self.dead.update(victims)
        self.memo.clear()

    @step()
    def compact(self):
        dirty = self.dirty()
        assert self.handle.compact() is dirty
        return not dirty

    @step(weights=st.lists(st.sampled_from([0.0, 1.0, 10.0]), min_size=3, max_size=3))
    def rebalance(self, weights):
        placement, dirty = self.handle.placement, self.dirty()
        moved = self.handle.rebalance(weights)
        if placement is None or placement.strategy != "range" or dirty:
            assert moved is False
        if moved:
            self.cuts = self.handle.plan.bounds[:-1]

    @step()
    def re_replicate(self):
        placed = self.handle.re_replicate()
        faults = self.session.faults
        if faults is None or self.handle.placement is None:
            assert placed == 0
            return
        # A third pool device is always live, so no copy stays on a dead one.
        for group in self.handle.placement.layout:
            assert not any(faults.permanently_down(device) for device in group)

    @step(kind=st.sampled_from(["crash", "slow", "clear"]), device=st.integers(0, 2),
          length=st.sampled_from([1e-4, 1e-3, None]))
    def fault(self, kind, device, length):
        """A crash or slow window from now on — transient, or permanent (``length`` None) — or none at all."""
        if kind == "clear":
            self.events = []
            self.session.inject_faults(None)
            return
        placement, now = self.handle.placement, self.server.clock.now()
        device %= placement.pool_size if placement is not None else 1
        crashes = [e for e in self.events if e.kind == "crash"]
        replicas = placement.replicas if placement is not None else 1
        if kind == "crash" and (replicas < 2 or any(e.end is None or e.end > now for e in crashes)):
            kind = "slow"  # never more than replicas - 1 = 1 device down
        self.events.append(FaultEvent(device, now, None if length is None else now + length, kind))
        self.session.inject_faults(FaultPlan(self.events), clock=self.server.clock)

    @step(checks=True, data=st.data(), k=KS, batch_size=st.sampled_from([None, 1, 3]), route=ROUTES, plan=PLANS)
    def search(self, data, k, batch_size, route, plan):
        self.check_search(data.draw(self.queries, "queries"), k, batch_size, route, plan)

    @precondition(lambda self: self.last_search is not None)
    @step(checks=True)
    def repeat_search(self):
        """The same batch shape again: a plan-cache hit where the plan is cacheable."""
        raws, k, batch_size, route, plan, extra = self.last_search
        self.check_search(raws, k, batch_size, route, plan, **extra)

    @step(data=st.data(), k=KS, route=ROUTES, plan=PLANS, finish=st.sampled_from([0.0, 5e-5, 2e-3, "drain"]))
    def burst(self, data, k, route, plan, finish):
        self.serve(data.draw(self.queries, "queries"), k, route, plan, finish)

    @precondition(lambda self: self.last_burst is not None)
    @step()
    def repeat_burst(self):
        """The same requests again: result-cache hits when the cache is on and still valid."""
        self.serve(*self.last_burst)

    # Edge inputs: the oracle's answer or a taxonomy error, never a hang.

    @precondition(lambda self: self.spec.name == "relational")
    @step(checks=True, bounds=st.sampled_from([(NAN, 40.0), (30.0, NAN), (NAN, NAN), (NAN, INF)]))
    def nan_bounds(self, bounds):
        with pytest.raises(QueryError, match="range is a"):
            self.handle.search([{"age": bounds}], k=1)
        with pytest.raises(QueryError, match="range is a"):
            self.server.submit(self.name, {"age": bounds}, k=1)

    @step(checks=True, where=st.sampled_from(["max_wait", "advance"]))
    def nan_clock(self, where):
        now = self.server.clock.now()
        with pytest.raises(ConfigError):
            if where == "max_wait":
                BatchPolicy.micro(4, NAN)
            else:
                self.server.advance(NAN)
        assert self.server.clock.now() == now

    @step(checks=True)
    def empty_index(self):
        """``create_index([])``: an index that answers nothing, or a refusal that registers nothing."""
        spec = self.spec
        try:
            empty = self.session.create_index(spec.empty, model=spec.name, name="empty", **KINDS[self.kind], **spec.kwargs)
        except ConfigError:
            assert "empty" not in self.session.indexes  # no zombie: a retry may reuse the name
            return
        try:
            results = empty.search([spec.probe], k=3).results
        except QueryError:  # no indexed word, gram or code to match
            results = []
        assert all((got.ids.tolist(), got.counts.tolist(), got.threshold) == ([], [], 0) for got in results)
        self.session.drop("empty")

    @step(which=st.sampled_from(["unknown", "dead", "negative", "float"]),
          op=st.sampled_from(["delete", "update"]), with_live=st.booleans())
    def bad_id(self, which, op, with_live):
        """Ids that name no live object are refused, all or nothing."""
        bad = {
            "unknown": len(self.logical) + 3,
            "dead": min(self.dead, default=len(self.logical)),
            "negative": -1,
            "float": 1.5,
        }[which]
        with pytest.raises(QueryError):
            if op == "update":
                self.handle.update(bad, [1])
            else:
                self.handle.delete([*self.live()[:1] * with_live, bad])

    @precondition(lambda self: self.spec.name == "raw")
    @step(checks=True, obj=RAW_OBJECTS, copies=st.integers(3, 6))
    def tie_at_kth(self, obj, copies):
        """Many objects tied at the k-th count: the tie ranks by id."""
        self.insert(objects=[obj] * copies)
        self.check_search([obj], k=copies // 2 + 1)

    @precondition(lambda self: self.spec.name == "raw")
    @step(checks=True)
    def huge_keyword(self):
        """A keyword at 2**63 - 1, searched across a compaction."""
        self.insert(objects=[[HUGE, 1]])
        self.check_search([[HUGE], [HUGE, 1]])
        self.compact()
        self.check_search([[HUGE]], k="many")

    @step(checks=True, value=st.sampled_from([0, -1, 1.5, NAN, True, "3"]), option=st.sampled_from(["k", "batch_size"]))
    def bad_count(self, value, option):
        """A bad ``k`` / ``batch_size`` is refused before any residency event or charge."""
        mark = self.session.residency_log.mark()
        host, device = self.session.host.timings.total, self.session.device.timings.total
        with pytest.raises(QueryError, match=option):
            self.handle.search([self.spec.probe], **{option: value})
        assert not self.session.residency_log.since(mark)
        assert (self.session.host.timings.total, self.session.device.timings.total) == (host, device)

    @step(checks=True, which=st.sampled_from(
        [{"shards": 2.5}, {"shards": NAN}, {"part_size": 1.5}, {"part_size": 0}, "queue", "budget", "search", "insert"]
    ))
    def bad_option(self, which):
        """Bad constructor options raise ConfigError; a ``None`` batch a taxonomy error."""
        with pytest.raises(ReproError):
            if isinstance(which, dict):
                self.session.create_index(self.data, model=self.spec.name, name="bad", **which, **self.spec.kwargs)
            elif which == "queue":
                GenieServer(self.session, max_queue_depth=NAN)
            elif which == "budget":
                GenieSession(memory_budget=NAN)
            elif which == "search":
                self.handle.search(None)
            else:
                self.handle.insert(None)
        assert "bad" not in self.session.indexes


#: Examples and steps per machine: 2 x 12 in tier-1. ``REPRO_ORACLE_DEPTH="examples,steps"``
#: runs the same seeded machines deeper (CI's ``oracle-depth`` job, outside tier-1).
DEPTH = os.environ.get("REPRO_ORACLE_DEPTH")
EXAMPLES, STEPS = (int(n) for n in (DEPTH or "2,12").split(","))
#: At depth a failure is reported as found, unshrunk: shrinking a long run takes minutes,
#: past the per-test watchdog (``conftest.py``), which would end the run before the
#: falsifying example is printed. Tier-1's short runs keep shrinking.
PHASES = tuple(phase for phase in Phase if phase is not Phase.shrink) if DEPTH else settings().phases

#: One machine per (model, handle kind, policy, cache) cell, so every cell is reached.
ORACLES = {}
for _position, _cell in enumerate(itertools.product(MODELS, KINDS, POLICIES, CACHES)):
    _fields = dict(zip(("model_name", "kind", "policy", "cache"), _cell))
    _machine = type(f"Oracle[{', '.join(_cell)}]", (OracleMachine,), _fields)
    ORACLES[_cell] = _machine
    _machine.TestCase.settings = settings(max_examples=EXAMPLES, stateful_step_count=STEPS, deadline=None,
                                          database=None, phases=PHASES)
    seed(_position)(_machine)  # the same examples on every run
    globals()["TestOracle_" + "_".join(_cell).replace("-", "_")] = _machine.TestCase
del _position, _cell, _fields, _machine


# ----------------------------------------------------------------------
# scripted sequences: the seams bugs were found in, through the machine


def machine(model, kind, data=None):
    """A started machine on ``data`` (the model's seed-0 corpus when omitted)."""
    oracle = ORACLES[model, kind, "micro1", "cache"]()
    oracle.begin(MODELS[model].data(np.random.default_rng(0)) if data is None else data)
    return oracle


def test_healing_survives_the_next_rebuild():
    # A rebuild places from the healed layout, not back on the dead device.
    oracle = machine("raw", "hash-r2")
    oracle.fault(kind="crash", device=1, length=None)
    oracle.re_replicate()
    layout = oracle.handle.replica_layout()
    assert all(1 not in devices for devices in layout.values())
    oracle.insert(objects=[[3, 4]])
    oracle.compact()
    assert oracle.handle.replica_layout() == layout
    oracle.check_search([[3, 4], [1, 2]])
    assert oracle.last_result.failovers == ()
    oracle.teardown()


def test_only_the_delta_run_is_lost_with_device_0():
    oracle = machine("raw", "hash-r2")
    oracle.insert(objects=[[1, 2]])
    oracle.fault(kind="crash", device=0, length=None)
    oracle.check_search([[1, 2], [3]])
    assert oracle.last_result is None  # check_available saw the AvailabilityError
    oracle.serve([[1, 2]], finish="drain")
    oracle.compact()  # folded into the replicated base: available again
    oracle.check_search([[1, 2], [3]])
    assert oracle.last_result.failovers
    oracle.teardown()


def test_a_failed_create_index_leaves_no_zombie():
    oracle = machine("ann-e2lsh", "serial")
    oracle.empty_index()  # refused, and nothing registered under the name
    oracle.session.create_index(oracle.data, model="ann-e2lsh", name="empty", **oracle.spec.kwargs)
    oracle.teardown()


def test_a_compacted_index_rebalances_again():
    oracle = machine("raw", "range")
    oracle.insert(objects=[[1, 2]])
    oracle.delete(picks=[0])
    oracle.rebalance(weights=[10.0, 1.0, 1.0])  # refused while dirty
    assert oracle.cuts is None
    oracle.compact()
    oracle.rebalance(weights=[10.0, 1.0, 1.0])
    assert oracle.cuts is not None
    oracle.probes_answer_like_brute_force()
    oracle.teardown()


def test_a_recut_onto_the_equal_size_cuts_survives_compaction():
    # Found at depth: a rebalance landing on the equal-size cuts was recut
    # equal-size by the next compaction, as if never rebalanced.
    oracle = machine("raw", "range")
    for weights in ([10.0, 1.0, 1.0], [1.0, 0.0, 0.0]):
        oracle.rebalance(weights=weights)
    oracle.insert(objects=[[0], [0]])
    oracle.compact()
    oracle.rebalance(weights=[1.0, 1.0, 10.0])
    assert oracle.cuts == [0, 8, 17]  # the equal-size cuts of 26 objects
    oracle.huge_keyword()
    oracle.probes_answer_like_brute_force()
    oracle.teardown()


def test_compaction_keeps_a_rebalanced_partitions_cuts():
    oracle = machine("raw", "range")
    oracle.rebalance(weights=[10.0, 1.0, 1.0])
    assert oracle.cuts is not None
    oracle.insert(objects=[[1, 2], [3]])
    oracle.delete(picks=[5])
    oracle.compact()
    oracle.probes_answer_like_brute_force()  # checks the cuts survived
    oracle.teardown()


def test_an_unhashable_search_option_compiles_uncached():
    # A clean hash-sharded index consults the plan cache, which cannot hash this value.
    oracle = machine("sequence", "hash-r2")
    oracle.check_search(["acgtac", "ggta"], k=2, n_candidates=np.array(6))
    oracle.teardown()


@pytest.mark.parametrize("kind", ["serial", "range", "hash-r2"])
def test_a_replacement_that_ties_the_kth_count_ranks_by_its_id(kind):
    # Every object counts 1 for the query, so rank is id order alone. The
    # replacement of base object 3 enters the run *after* five inserts with
    # higher ids; were the run kept in arrival order its top-4 would be the
    # inserts and object 3 would lose its tie against base objects 4, 5, ...
    oracle = machine("raw", kind, data=[[5, i + 10] for i in range(10)])
    oracle.insert(objects=[[5, 30 + i] for i in range(5)])
    oracle.update(pick=3, obj=[5, 99])
    assert oracle.handle.manifest.delta.global_ids.tolist() == [3, 10, 11, 12, 13, 14]
    for k in (3, 4, 5, 11, 12):
        oracle.check_search([[5]], k=k)
        assert oracle.last_result.results[0].ids.tolist() == list(range(k))
    oracle.teardown()


def test_two_round_merge_tops_up_the_skewed_shard():
    # The busy shard's round-one threshold cannot rule out unfetched candidates.
    oracle = machine("raw", "range", data=[[0, 1, 2]] * 10 + [[9]])
    oracle.check_search([[0, 1, 2]], k=6, plan="two-round")
    oracle.teardown()
