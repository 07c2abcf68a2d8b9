"""The four workloads and the recorder that times their calls.

Every workload drives only public ``repro`` entry points, builds its
inputs from the seed through ``repro.datasets`` (the program receives the
generated inputs, never the seed), and is a closed loop of one caller:
each call returns before the next is issued.

A run's timed phase is a sequence of *steps* (one search batch, one served
request, one ingest round).  The first ``window`` steps are the **exact
window**: everything deterministic — simulated seconds, counts, the
answers digest, the oracle sample — is taken over it alone, so those
values do not depend on how many further steps fit into ``--seconds``.
Wall-clock metrics use every step.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from repro.api import GenieSession
from repro.datasets import adult_schema, make_document_queries, registry
from repro.errors import ReproError
from repro.lsh.rbh import RandomBinningHash, estimate_kernel_width
from repro.replica import FaultEvent, FaultPlan
from repro.serve import BatchPolicy, GenieServer, TrafficSource, VirtualClock, sample_trace
from repro.stream import StreamConfig

from . import oracle
from .probe import INTERVAL_S
from .spec import SIM_STAGES
from .trace import IDLE

K = 10


def _feed(sha, part) -> None:
    if isinstance(part, np.ndarray):
        sha.update(np.ascontiguousarray(part).tobytes())
    elif isinstance(part, str):
        sha.update(part.encode())
    elif isinstance(part, dict):
        for key in sorted(part):
            _feed(sha, key)
            _feed(sha, part[key])
    else:
        for item in part:
            _feed(sha, item)
            sha.update(b"|")


def _digest(*parts) -> str:
    """SHA-256 over generated inputs (arrays, strings, dicts and lists of them)."""
    sha = hashlib.sha256()
    _feed(sha, parts)
    return sha.hexdigest()


class Recorder:
    """Times every call into the program and keeps what the metrics need."""

    def __init__(self, tracer, window: int, probe):
        self.tracer = tracer
        self.window = window
        self.probe = probe         # machine-speed samples between timed calls
        self._probed_at = 0.0
        self.step = 0
        self.in_window = True
        self.busy = 0.0            # wall seconds inside timed calls, all steps
        self.window_busy = 0.0     # same, exact window only
        self.ops = 0               # attempted
        self.failed = 0            # raised, rejected, failed future, or oracle mismatch
        self.verified = 0
        self.latencies: list[float] = []
        self.sim = 0.0
        self.sim_stages = dict.fromkeys(SIM_STAGES, 0.0)
        self.answers = hashlib.sha256()
        self.failovers: list[tuple[int, float]] = []   # (step, simulated penalty)
        self.shard_busy: dict[int, float] = {}

    def begin(self, step: int) -> None:
        self.step = step
        self.in_window = step < self.window

    def timed(self, ops: int, fn, *args, **kwargs):
        """One call into the program: ``(result or None, start, end)``.

        A call that raises a :class:`~repro.errors.ReproError` fails its
        ``ops`` and the run goes on; anything else is a crash.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.op, tracer.counting = self.step, self.in_window
        self.ops += ops
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except ReproError:
            out = None
            self.failed += ops
        end = perf_counter()
        if tracer is not None:
            tracer.op, tracer.counting = IDLE, False
        self.busy += end - start
        if self.in_window:
            self.window_busy += end - start
        if self.busy - self._probed_at >= INTERVAL_S:
            self._probed_at = self.busy
            self.probe.sample()
        return out, start, end

    def add_profile(self, profile) -> None:
        for stage in SIM_STAGES:
            self.sim_stages[stage] += profile.get(stage)

    def add_answers(self, results) -> None:
        for result in results:
            self.answers.update(np.ascontiguousarray(result.ids).tobytes())
            self.answers.update(np.ascontiguousarray(result.counts).tobytes())

    def keep(self, result) -> None:
        """Fold one direct ``SearchResult`` of the exact window into the exact channel."""
        self.sim += result.profile.query_total()
        self.add_profile(result.profile)
        self.add_answers(result.results)
        for event in result.failovers:
            self.failovers.append((self.step, event.penalty))
        for shard, profile in enumerate(result.shard_profiles or ()):
            self.shard_busy[shard] = self.shard_busy.get(shard, 0.0) + profile.query_total()

    def verify(self, corpus, queries, results, k: int) -> None:
        for query, result in zip(queries, results):
            self.verified += 1
            if not oracle.agrees(corpus, query, result, k):
                self.failed += 1

    def shard_imbalance(self) -> float:
        busy = list(self.shard_busy.values())
        mean = sum(busy) / len(busy) if busy else 0.0
        return max(busy) / mean if mean else 0.0


class Workload:
    """Base: scale table, seeded verification picks, direct-search plumbing."""

    name = ""
    why = ""
    SCALES: dict[str, dict] = {}
    #: Steps of the exact window whose answers the oracle checks, and how
    #: many queries of each; 8 x 4 = 32 verified ops per run.
    VERIFY_STEPS = 8
    VERIFY_QUERIES = 4

    def __init__(self, scale: str, obs: bool = False):
        self.size = self.SCALES[scale]
        self.window = int(self.size["window"])
        self.obs = obs
        self.session = None
        self._flat = None
        self._plan_baseline = (0, 0)

    # -- phases --------------------------------------------------------

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def step(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def close_window(self, rec: Recorder) -> dict:
        """Exact per-layer values readable off public results, window only."""
        return {}

    def finish(self, rec: Recorder) -> None:
        """After the last step (the serve workload drains here)."""

    def checks(self, rec: Recorder, exact: dict) -> dict[str, bool]:
        return {}

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    # -- helpers -------------------------------------------------------

    def _pick_steps(self, seed: int, lo: int, hi: int, count: int) -> set[int]:
        rng = np.random.default_rng([seed, 99, lo])
        count = min(count, hi - lo)
        return set(int(s) for s in rng.choice(np.arange(lo, hi), size=count, replace=False))

    def _mark_plan_baseline(self) -> None:
        stats = self.session.plan_cache.stats()
        self._plan_baseline = (stats["hits"], stats["misses"])

    def _plan_hit_ratio(self) -> float:
        stats = self.session.plan_cache.stats()
        hits = stats["hits"] - self._plan_baseline[0]
        misses = stats["misses"] - self._plan_baseline[1]
        return hits / (hits + misses) if hits + misses else 0.0

    def _search(self, rec: Recorder, handle, raw, verify: bool, corpus=None):
        """One timed ``handle.search`` batch: an op per query, one latency sample."""
        result, start, end = rec.timed(len(raw), handle.search, raw, k=K)
        rec.latencies.append(end - start)
        if result is None:
            return None
        if rec.in_window:
            rec.keep(result)
        if verify:
            if corpus is None:
                if self._flat is None:
                    self._flat = oracle.FlatCorpus.from_handle(handle)
                corpus = self._flat
            picks = list(range(0, len(raw), max(1, len(raw) // self.VERIFY_QUERIES)))[: self.VERIFY_QUERIES]
            queries = handle.encode_queries([raw[j] for j in picks])
            rec.verify(corpus, queries, [result.results[j] for j in picks], K)
        return result


class AnnBatch(Workload):
    name = "ann_batch"
    why = ("large E2LSH batches on one device (the paper's Fig. 9 case): the dense "
           "batch-scan kernel dominates and serve/plan/stream/cluster do nothing")
    SCALES = {
        "full": dict(n=8000, functions=64, batch=256, window=40),
        "tiny": dict(n=300, functions=8, batch=16, window=4),
    }

    def generate(self, seed):
        size = self.size
        dataset = registry.load("sift", n=size["n"], seed=seed)
        repeats = -(-size["batch"] // len(dataset.queries))
        self.data = dataset.data
        self.base = np.tile(dataset.queries, (repeats, 1))[: size["batch"]]
        self.rng = np.random.default_rng([seed, 1])
        self.verify_at = self._pick_steps(seed, 0, self.window, self.VERIFY_STEPS)
        self.inputs_sha256 = _digest(self.data, self.base)

    def setup(self):
        self.session = GenieSession()
        self.handle = self.session.create_index(
            self.data, model="ann-e2lsh", name="sift",
            num_functions=self.size["functions"], dim=self.data.shape[1],
            width=4.0, domain=67, seed=0,
        )

    def _batch(self):
        # A fresh N(0, 0.01) perturbation per call: no two batches repeat.
        return self.base + self.rng.normal(0.0, 0.01, size=self.base.shape)

    def warm_up(self):
        for _ in range(2):
            self.handle.search(self._batch(), k=K)

    def step(self, i, rec):
        self._search(rec, self.handle, self._batch(), verify=i in self.verify_at)


class OcrSharded(Workload):
    name = "ocr_sharded"
    why = ("RBH-encoded batches over 4 hash shards x 2 replicas with a device crash "
           "mid-run: murmur-heavy encoding, plan cache, shard merge and failover all run")
    # 16 functions, not Fig. 9's 32: a batch costs ~3000 murmur calls at
    # m=32 whatever its size, which leaves ~65 calls in a run — too few
    # samples beyond p90.
    SCALES = {
        "full": dict(n=8000, functions=16, batch=64, crash_at=50, window=70),
        "tiny": dict(n=300, functions=4, batch=8, crash_at=3, window=6),
    }

    def generate(self, seed):
        size = self.size
        dataset = registry.load("ocr", n=size["n"], seed=seed)
        self.data = dataset.data
        self.base = dataset.queries[: size["batch"]]
        self.rng = np.random.default_rng([seed, 1])
        crash = size["crash_at"]
        half = self.VERIFY_STEPS // 2
        self.verify_at = (self._pick_steps(seed, 0, crash, half)
                          | self._pick_steps(seed, crash, self.window, half))
        self.inputs_sha256 = _digest(self.data, self.base)

    def setup(self):
        size = self.size
        self.session = GenieSession()
        sigma = estimate_kernel_width(self.data, seed=0)
        family = RandomBinningHash(size["functions"], self.data.shape[1], sigma, seed=0)
        self.handle = self.session.create_index(
            self.data, model="ann", family=family, domain=1024, name="ocr",
            shards=4, replicas=2, shard_strategy="hash",
        )
        # The fault schedule runs on a benchmark-owned virtual clock that
        # reads "timed batch number": device 1 dies for good at crash_at.
        self.clock = VirtualClock()
        self.session.inject_faults(
            FaultPlan([FaultEvent(device=1, start=float(size["crash_at"]))]), clock=self.clock
        )

    def _batch(self):
        return self.base + self.rng.normal(0.0, 0.01, size=self.base.shape)

    def warm_up(self):
        for _ in range(2):
            self.handle.search(self._batch(), k=K)
        self._mark_plan_baseline()

    def step(self, i, rec):
        self.clock.advance_to(float(i))
        self._search(rec, self.handle, self._batch(), verify=i in self.verify_at)

    def close_window(self, rec):
        return {"plan.cache_hit_ratio": self._plan_hit_ratio()}

    def checks(self, rec, exact):
        crash = self.size["crash_at"]
        return {
            "no_failover_before_crash": not any(step < crash for step, _ in rec.failovers),
            "failover_after_crash": any(step >= crash for step, _ in rec.failovers),
        }


class ServeMix(Workload):
    name = "serve_mix"
    why = ("single-query requests over three modalities through GenieServer micro-batching "
           "with a result cache smaller than the working set: per-request host overhead")
    # The tweet hot set is 96 queries, not 256: every miss of any modality
    # inserts into the 512-entry LRU, so a 256-query hot set is evicted
    # between reuses and the overall hit ratio falls to ~0.17.
    SCALES = {
        "full": dict(tweets=4000, adult=4000, sift=4000, hot=96, cold=4000, window=8192,
                     max_batch=32, cache=512, queue=1024, chunk=4096),
        "tiny": dict(tweets=300, adult=400, sift=300, hot=12, cold=300, window=192,
                     max_batch=8, cache=32, queue=256, chunk=256),
    }
    RATE = 5e7          # offered requests per *virtual* second (open-loop Poisson)
    MIX = (("tweets", 0.6), ("adult", 0.35), ("sift", 0.05))
    VERIFY_MISSES, VERIFY_HITS = 24, 8

    def generate(self, seed):
        size = self.size
        self.docs = registry.load("tweets", n=size["tweets"], seed=seed)
        self.adult = registry.load("adult", n=size["adult"], seed=seed)
        self.sift = registry.load("sift", n=size["sift"], seed=seed)
        hot, _ = make_document_queries(self.docs, size["hot"], seed=[seed, 2])
        cold, _ = make_document_queries(self.docs, size["cold"], seed=[seed, 3])
        dim = self.sift.data.shape[1]

        def tweet_query(rng):  # half from the hot set, half uniform from the cold pool
            pool = hot if rng.random() < 0.5 else cold
            return pool[int(rng.integers(len(pool)))]

        def adult_query(rng):  # fresh ranges: never repeats
            lo = float(rng.uniform(10, 60))
            return {
                "age": (lo, lo + 25.0),
                "education_num": (float(rng.uniform(0, 40)), 100.0),
                "sex": (int(rng.integers(0, 2)),) * 2,
            }

        makers = {"tweets": tweet_query, "adult": adult_query,
                  "sift": lambda rng: rng.standard_normal(dim)}
        self.sources = [TrafficSource(index, makers[index], weight=w, k=K) for index, w in self.MIX]
        self.seed = seed
        self.trace: list = []
        self._chunks = 0
        self._extend_trace()
        self.inputs_sha256 = _digest(
            self.sift.data, self.adult, self.docs, hot, cold,
            [a.raw_query if a.index != "adult" else repr(a.raw_query) for a in self.trace],
        )

    def _extend_trace(self):
        start = self.trace[-1].time if self.trace else 0.0
        self.trace.extend(sample_trace(
            self.sources, self.size["chunk"], rate=self.RATE,
            seed=[self.seed, 4, self._chunks], start=start,
        ))
        self._chunks += 1

    def setup(self):
        size = self.size
        self.session = GenieSession()
        self.session.create_index(self.docs, model="document", name="tweets")
        self.session.create_index(self.adult, model="relational", schema=adult_schema(), name="adult")
        self.session.create_index(
            self.sift.data, model="ann-e2lsh", name="sift", num_functions=32,
            dim=self.sift.data.shape[1], width=4.0, domain=256, seed=0,
        )
        self.server = GenieServer(
            self.session,
            policy=BatchPolicy.micro(max_batch=size["max_batch"], max_wait=1e-4),
            cache_size=size["cache"], max_queue_depth=size["queue"],
            trace_sample=1 if self.obs else None,
        )
        self.pending: list = []       # (submit start, future) not yet seen done
        self.futures: list = []       # (trace position, future), exact window

    def warm_up(self):
        # Two direct searches per index: first-call costs paid, server untouched.
        for arrival in self.trace[: 2 * len(self.MIX) * 4]:
            self.session.index(arrival.index).search([arrival.raw_query], k=K)

    def _collect(self, rec, now):
        """Latency samples for every pending future a driver call just resolved."""
        still = []
        for start, future in self.pending:
            if future.done():
                rec.latencies.append(now - start)
                self._settle(rec, future)
            else:
                still.append((start, future))
        self.pending = still

    @staticmethod
    def _settle(rec, future):
        try:
            future.result()
        except ReproError:
            rec.failed += 1

    def step(self, i, rec):
        while i >= len(self.trace):
            self._extend_trace()
        arrival, server = self.trace[i], self.server
        depth = server.depth
        _, _, end = rec.timed(0, server.advance_to, arrival.time)
        if server.depth < depth:
            self._collect(rec, end)
        depth = server.depth
        future, start, end = rec.timed(1, server.submit, arrival.index, arrival.raw_query, k=arrival.k)
        if future is None:
            return  # refused at admission: counted failed by the recorder
        if rec.in_window:
            self.futures.append((i, future))
        if future.done():
            rec.latencies.append(end - start)
            self._settle(rec, future)
        else:
            self.pending.append((start, future))
        if server.depth <= depth and not future.metadata.cache_hit:
            self._collect(rec, end)

    def _drain(self, rec):
        _, _, end = rec.timed(0, self.server.drain)
        self._collect(rec, end)

    def close_window(self, rec):
        self._drain(rec)
        snapshot, _, _ = rec.timed(0, self.server.snapshot)
        done = [(i, f) for i, f in self.futures if f.done()]
        profiles = {id(f.metadata.profile): f.metadata.profile
                    for _, f in done if f.metadata.profile is not None}
        for profile in profiles.values():
            rec.add_profile(profile)
        completed = [f.metadata.completed for _, f in done if f.metadata.completed is not None]
        rec.sim = max(completed) - self.trace[0].time if completed else 0.0
        results = []
        for _, future in done:
            try:
                results.append(future.result())
            except ReproError:
                pass  # already counted by _settle
        rec.add_answers(results)
        self._verify_sample(rec, done)
        lookups = snapshot["cache_hits"] + snapshot["cache_misses"]
        return {
            "serve.batches": snapshot["batches"],
            "serve.mean_batch_size": snapshot["mean_batch_size"],
            "serve.cache_hit_ratio": snapshot["cache_hits"] / lookups if lookups else 0.0,
            "serve.rejected": snapshot["rejected"],
            "serve.sim_throughput_qps": snapshot["throughput_qps"],
            "serve.sim_latency_p95_s": snapshot["latency_p95"],
        }

    def _verify_sample(self, rec, done):
        """Oracle check of a seeded sample of served answers, cache hits included."""
        rng = np.random.default_rng([self.seed, 99])
        hits = [(i, f) for i, f in done if f.metadata.cache_hit]
        misses = [(i, f) for i, f in done if not f.metadata.cache_hit]
        sample = []
        for group, count in ((misses, self.VERIFY_MISSES), (hits, self.VERIFY_HITS)):
            if group:
                chosen = rng.choice(len(group), size=min(count, len(group)), replace=False)
                sample.extend(group[int(c)] for c in chosen)
        corpora = {}
        for position, future in sample:
            arrival = self.trace[position]
            handle = self.session.index(arrival.index)
            if arrival.index not in corpora:
                corpora[arrival.index] = oracle.FlatCorpus.from_handle(handle)
            try:
                result = future.result()
            except ReproError:
                continue  # already counted by _settle
            rec.verify(corpora[arrival.index], handle.encode_queries([arrival.raw_query]), [result], K)

    def finish(self, rec):
        self._drain(rec)

    def checks(self, rec, exact):
        return {"nothing_rejected": exact.get("serve.rejected", 0) == 0,
                "all_resolved": not self.pending}

    def close(self):
        self.server.close()
        super().close()


class StreamIngest(Workload):
    name = "stream_ingest"
    why = ("inserts, deletes and updates beside searches on a range-sharded raw index with "
           "auto-compaction: delta segments, tombstones and rebuilds, no encoder at all")
    SCALES = {
        "full": dict(base=8000, vocab=2000, insert=40, delete=10, queries=32, window=400,
                     min_compactions=5),
        "tiny": dict(base=300, vocab=100, insert=8, delete=2, queries=4, window=24,
                     min_compactions=1),
    }
    SHARDS = 4
    QUERY_KEYWORDS = 6

    def _objects(self, n):
        sizes = self.rng.integers(4, 12, size=n)
        flat = self.rng.integers(0, self.size["vocab"], size=int(sizes.sum()))
        return np.split(flat, np.cumsum(sizes)[:-1])

    def generate(self, seed):
        self.rng = np.random.default_rng([seed, 1])
        self.base = self._objects(self.size["base"])
        self.verify_at = self._pick_steps(seed, 0, self.window, self.VERIFY_STEPS)
        self.inputs_sha256 = _digest(self.base)

    def setup(self):
        self.session = GenieSession()
        self.handle = self.session.create_index(
            self.base, model="raw", name="live", shards=self.SHARDS,
            shard_strategy="range", stream_config=StreamConfig(),
        )
        # Shadow of what is live, kept by the benchmark for the oracle.
        self.live = dict(enumerate(self.base))
        self.live_ids = list(range(len(self.base)))
        self.compactions_seen = 0

    def _queries(self):
        return list(self.rng.integers(
            0, self.size["vocab"], size=(self.size["queries"], self.QUERY_KEYWORDS)))

    def _sim_timings(self):
        clocks = [self.session.host, *self.session.shard_devices(self.SHARDS)]
        stages: dict[str, float] = {}
        for clock in clocks:
            for stage, seconds in clock.timings.seconds.items():
                stages[stage] = stages.get(stage, 0.0) + seconds
        return stages

    def warm_up(self):
        for _ in range(2):
            self.handle.search(self._queries(), k=K)
        self._mark_plan_baseline()
        self._sim_before = self._sim_timings()

    def _drop_live(self, count):
        """Remove ``count`` random live ids from the shadow (swap-remove)."""
        ids = []
        for _ in range(count):
            slot = int(self.rng.integers(len(self.live_ids)))
            self.live_ids[slot], self.live_ids[-1] = self.live_ids[-1], self.live_ids[slot]
            gid = self.live_ids.pop()
            del self.live[gid]
            ids.append(gid)
        return ids

    def step(self, i, rec):
        size, handle = self.size, self.handle
        fresh = self._objects(size["insert"])
        gids, _, _ = rec.timed(len(fresh), handle.insert, fresh)
        if gids is not None:
            for gid, obj in zip(gids, fresh):
                self.live[int(gid)] = obj
                self.live_ids.append(int(gid))
        rec.timed(size["delete"], handle.delete, self._drop_live(size["delete"]))
        target = self.live_ids[int(self.rng.integers(len(self.live_ids)))]
        replacement = self._objects(1)[0]
        rec.timed(1, handle.update, target, replacement)
        self.live[target] = replacement
        # Verify the seeded picks and the first search after every compaction.
        compactions = handle.manifest.compactions
        verify = rec.in_window and (i in self.verify_at or compactions > self.compactions_seen)
        self.compactions_seen = compactions
        corpus = oracle.FlatCorpus(list(self.live.values()), list(self.live)) if verify else None
        self._search(rec, handle, self._queries(), verify=verify, corpus=corpus)

    def close_window(self, rec):
        # Index rebuilds are the point here, so the simulated total is the
        # host + device-pool delta, not the sum of search profiles.
        after = self._sim_timings()
        delta = {stage: after[stage] - self._sim_before.get(stage, 0.0) for stage in after}
        rec.sim = sum(delta.values())
        rec.sim_stages = {stage: delta.get(stage, 0.0) for stage in SIM_STAGES}
        manifest = self.handle.manifest
        return {
            "plan.cache_hit_ratio": self._plan_hit_ratio(),
            "stream.compactions": manifest.compactions,
            "stream.delta_postings_final": manifest.delta_postings,
        }

    def checks(self, rec, exact):
        return {"enough_compactions": exact["stream.compactions"] >= self.size["min_compactions"]}


WORKLOADS = {w.name: w for w in (AnnBatch, OcrSharded, ServeMix, StreamIngest)}
