"""The calibrated stage-cost model: price candidate plans at compile time.

PR 5's planner picks strategies by *rules* (prune range partitions,
never auto-select the two-round merge), which leaves throughput on the
table: the TPUT merge is 1.63x on its even-spread home workload but
0.82x on single-shard band traffic, so a rule that cannot tell the two
apart must abstain. This module gives ``compile_search`` the missing
signal — a :class:`CostModel` whose per-stage linear coefficients are
*fitted* (least squares) against the simulated device/host by replaying
a seeded probe workload, so the planner can price every candidate in
the strategy lattice and pick the cheapest.

The model prices the stages a sharded batch actually pays:

* **scan** (per shard, device): ``query_transfer + match + select`` of
  one launch, modeled as affine in the observable features — batch size,
  total query keywords, postings touched in the shard
  (:meth:`~repro.cluster.plan.ShardSlice.posting_counts` makes these
  exact, not estimated), and fetch width ``n_queries * k``.
* **merge** (host): affine in ``candidates * log2(n_shards)``, the
  S-way heap-merge charge of
  :func:`repro.cluster.executor.merge_shard_results`.
* **top-up fraction** (two-round TPUT only): the fraction of the
  full-width round-two scan the exact threshold test actually triggers,
  modeled as affine in the batch's postings *concentration* (the max
  shard share): concentrated traffic (one busy shard) always tops up,
  evenly-spread traffic almost never does. This single feature is what
  lets a calibrated ``plan="auto"`` pick the two-round merge on the
  even-spread workload and refuse it on band traffic.

Coefficients live on the session as a plain ``dict[str, float]``
(:attr:`GenieSession.cost_coefficients`) — inspectable, serializable,
and overridable in tests (a deliberately *mis*-calibrated model must
change only simulated time, never results; the equivalence suite pins
this). Calibration runs in a *scratch* session built from the same
device/host specs, so probing never pollutes the caller's timings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Stages whose sum the scan model predicts (one shard launch).
SCAN_STAGES = ("query_transfer", "match", "select")

#: Stages a sharded batch's predicted critical path covers (scan + merge).
PREDICTED_STAGES = SCAN_STAGES + ("result_merge",)

#: Every coefficient a fully calibrated model carries.
COEFFICIENT_NAMES = (
    "scan.const",
    "scan.queries",
    "scan.keywords",
    "scan.postings",
    "scan.gated",
    "scan.hot",
    "scan.width",
    "merge.const",
    "merge.ops",
    "topup.const",
    "topup.concentration",
)


# ----------------------------------------------------------------------
# feature extraction (shared by calibration and the planner's pricing)


def postings_per_keyword(index) -> np.ndarray:
    """Posting-list length per keyword row of an ``InvertedIndex``.

    Row ``i`` aligns with ``index.keyword_array[i]`` (load-balanced
    sub-lists re-joined) — no walk over the corpus.
    """
    return np.diff(index.list_offsets).astype(np.float64)


def _keyword_postings(
    keywords: np.ndarray, keyword_array: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per query keyword, the postings it touches in one shard/index.

    ``keyword_array`` is the sorted distinct keywords; ``counts`` the
    aligned per-keyword posting lengths. Keywords absent from the index
    touch nothing (``0.0``).
    """
    if keywords.size == 0 or keyword_array.size == 0:
        return np.zeros(keywords.size, dtype=np.float64)
    pos = np.minimum(np.searchsorted(keyword_array, keywords), keyword_array.size - 1)
    return np.where(keyword_array[pos] == keywords, counts[pos], 0.0)


def postings_for_keywords(
    keywords: np.ndarray, keyword_array: np.ndarray, counts: np.ndarray
) -> float:
    """Total postings the given query keywords touch in one shard/index."""
    return float(_keyword_postings(keywords, keyword_array, counts).sum())


def shard_postings_matrix(queries, shard_keywords, shard_postings) -> np.ndarray:
    """Per (query, shard) postings touched, shape ``[n_queries, n_shards]``.

    The planner's pricing features: column sums are each shard's batch
    scan work, and the column-share maximum is the batch's postings
    *concentration* (see :meth:`CostModel.topup_fraction`). ``queries`` is
    a :class:`~repro.core.types.QueryBatch`; one lookup of its flat
    keyword array per shard.
    """
    matrix = np.zeros((len(queries), len(shard_keywords)), dtype=np.float64)
    for s, (kw, counts) in enumerate(zip(shard_keywords, shard_postings)):
        matrix[:, s] = np.bincount(
            queries.keyword_query,
            weights=_keyword_postings(queries.keywords, kw, counts),
            minlength=len(queries),
        )
    return matrix


def shard_block_matrix(queries, shard_keywords, shard_postings) -> np.ndarray:
    """Match blocks per (query, shard): query items with postings there.

    The match kernel maps one thread block to one query item's postings
    lists (:func:`repro.core.batch_scan.plan_batch_scan`'s ``block_sizes``,
    specified per query by :func:`repro.core.reference.plan_query_scan`); an item whose
    keywords miss the shard spawns no block. The per-shard block count is
    what the ``scan.hot`` feature divides by: the device spreads the
    launch's atomic work over ``min(blocks, num_sms)`` SMs, so a batch
    whose postings funnel into one block (a dense range predicate is ONE
    item, hence one block) pays them serially while an LSH batch (one
    block per hash function per query) amortizes them device-wide.
    """
    matrix = np.zeros((len(queries), len(shard_keywords)), dtype=np.float64)
    for s, (kw, counts) in enumerate(zip(shard_keywords, shard_postings)):
        touched = _keyword_postings(queries.keywords, kw, counts) > 0.0
        hit_items = np.unique(queries.keyword_item[touched])
        matrix[:, s] = np.bincount(queries.item_query[hit_items], minlength=len(queries))
    return matrix


def serial_share(postings, blocks, num_sms: int):
    """The ``scan.hot`` feature: *excess* serial share of a shard's postings.

    ``postings * (1/min(blocks, num_sms) - 1/num_sms)`` — how much of
    the match kernel's atomic counter work lands on one SM *beyond* the
    fully amortized share. The device charges that work at the block
    granularity (see :meth:`repro.gpu.device.Device.launch`: the
    conflict/gate penalty divides by *active* SMs, capped by the block
    count), so a batch whose postings funnel into one block (a dense
    range predicate is ONE item, hence one block) pays nearly all of
    them serially, while a saturated launch (``blocks >= num_sms``)
    has zero excess — the feature vanishes there by construction,
    leaving the amortized work entirely to ``scan.postings``. Without
    the subtraction the two features are collinear on every saturated
    row and the fit can only price their *sum*, driving
    ``scan.postings`` negative.
    """
    postings = np.asarray(postings, dtype=np.float64)
    blocks = np.asarray(blocks, dtype=np.float64)
    sms = float(max(1, num_sms))
    active = np.minimum(np.maximum(blocks, 1.0), sms)
    return postings * (1.0 / active - 1.0 / sms)


def batch_features(queries, shard_keywords, shard_postings, num_sms: int):
    """What the model prices a batch by, one lookup pass per shard table.

    Returns:
        ``(postings, hot, count_bound)``: per shard the postings the batch
        touches and their :func:`serial_share`, and the batch's largest
        per-query count bound.
    """
    postings = shard_postings_matrix(queries, shard_keywords, shard_postings).sum(axis=0)
    blocks = shard_block_matrix(queries, shard_keywords, shard_postings).sum(axis=0)
    hot = serial_share(postings, blocks, num_sms)
    return postings, hot, int(queries.keywords_per_query.max())


def concentration(shard_postings) -> float:
    """Max shard share of the batch's postings, in ``[1/S, 1]``.

    ``1.0`` means one shard holds all the work (band-local traffic on a
    sorted range partition — the two-round merge's worst case: the busy
    shard always tops up). ``1/S`` is a perfectly even spread (hashed
    corpora — the merge's home turf). Empty batches price as
    concentrated: with no postings there is nothing for a smaller
    round-one width to save.
    """
    totals = np.asarray(list(shard_postings), dtype=np.float64)
    grand = float(totals.sum())
    if grand <= 0.0 or totals.size == 0:
        return 1.0
    return float(totals.max()) / grand


# ----------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class PlanPrice:
    """Predicted cost of one candidate plan.

    Attributes:
        scan_seconds: Predicted device critical path of the scan
            round(s) — the slowest scanned shard (both rounds for TPUT,
            the top-up round weighted by the predicted fraction).
        merge_seconds: Predicted host merge seconds (threshold merge +
            final merge for TPUT).
        busy_seconds: Predicted *aggregate* device seconds across the
            scanned shards. Not on the critical path, but the tie-break:
            when candidates' critical paths are within tolerance, the
            one occupying fewer device-seconds wins (it frees shards for
            concurrent batches — exactly why routing beats broadcast on
            band traffic even though a single batch's latency ties).
        route_seconds: Predicted pre-dispatch host seconds the
            candidate's routing work costs (0 for broadcast); joins the
            tie-break on the same grounds.
    """

    scan_seconds: float
    merge_seconds: float
    busy_seconds: float
    route_seconds: float = 0.0

    @property
    def critical_path(self) -> float:
        """Predicted batch seconds: scan critical path + host merges."""
        return self.scan_seconds + self.merge_seconds


class CostModel:
    """Linear per-stage cost predictions over a coefficient dict.

    Missing coefficients read as ``0.0``, so any dict — including an
    adversarially wrong one — produces a usable (if useless) model;
    plan *choice* may degrade, plan *results* never can (every candidate
    is exact by construction).
    """

    def __init__(self, coefficients: dict):
        self.coefficients = dict(coefficients)

    def _c(self, name: str) -> float:
        return float(self.coefficients.get(name, 0.0))

    @property
    def calibrated(self) -> bool:
        """Whether every named coefficient is present."""
        return all(name in self.coefficients for name in COEFFICIENT_NAMES)

    def scan_seconds(
        self,
        n_queries: int,
        keywords: float,
        postings: float,
        width: int,
        hot: float = 0.0,
        count_bound: int = 1,
    ) -> float:
        """Predicted seconds of one shard's scan launch at fetch ``width``.

        ``hot`` is the shard's :func:`serial_share` — its postings
        divided by the match blocks available to spread them over
        (capped at the device's SM count). The device charges the match
        kernel's atomic counter work per *active* SM, so concentrated
        traffic (a dense range predicate = one block) pays its postings
        serially — the total-``postings`` term prices the amortized
        many-block regime, ``hot`` the serial one.

        ``count_bound`` is the batch's maximum per-query keyword count
        (:attr:`~repro.core.types.QueryBatch.keywords_per_query`): the select stage
        walks one c-PQ hash table of ``O(width * count_bound)`` slots per
        query (:func:`repro.core.cpq.hash_table_capacity`), so the fetch
        term is trilinear in ``n_queries * width * count_bound`` — at a
        fixed batch shape, select varies by an order of magnitude with
        query width alone, and a model without this factor cannot price
        an LSH batch (32 hash functions) and a band query (2 keywords)
        with one coefficient.

        The ``scan.gated`` term (``postings * sqrt(width)``) prices the
        match stage's *k-dependence*: with clustered posting counts the
        audit threshold is the k-th best count, so a smaller fetch width
        raises the threshold and shrinks the fraction of matched
        postings that pays the atomic gate. This is what makes a TPUT
        round one at ``first_round_k`` genuinely cheaper than a full
        scan — without it the model thinks round one saves only select
        work and would never choose the two-round merge.
        """
        return max(
            0.0,
            self._c("scan.const")
            + self._c("scan.queries") * float(n_queries)
            + self._c("scan.keywords") * float(keywords)
            + self._c("scan.postings") * float(postings)
            + self._c("scan.gated") * float(postings) * float(width) ** 0.5
            + self._c("scan.hot") * float(hot)
            + self._c("scan.width")
            * float(n_queries)
            * float(width)
            * float(max(1, count_bound)),
        )

    def merge_seconds(self, candidates: float, n_shards: int) -> float:
        """Predicted host seconds merging ``candidates`` over ``n_shards``.

        ``n_shards`` is the plan's shard count (pruned shards contribute
        empty lists but the executor's heap-merge charge still uses the
        full fan-in) — mirror of ``merge_shard_results``.
        """
        ops = float(candidates) * max(1.0, np.log2(max(int(n_shards), 2)))
        return max(0.0, self._c("merge.const") + self._c("merge.ops") * ops)

    def topup_fraction(self, chi: float) -> float:
        """Predicted fraction of the full-width round-two scan that runs."""
        frac = self._c("topup.const") + self._c("topup.concentration") * float(chi)
        return float(min(1.0, max(0.0, frac)))

    def price(
        self,
        *,
        n_queries: int,
        keywords: float,
        shard_postings,
        n_shards: int,
        retrieval_k: int,
        merge: str,
        first_round_k: int | None = None,
        route_seconds: float = 0.0,
        shard_hot=None,
        count_bound: int = 1,
    ) -> PlanPrice:
        """Price one candidate plan.

        Args:
            n_queries: Active queries in the batch.
            keywords: Total query keywords (every scanned shard pays the
                whole batch's query transfer — pruning is batch-granular).
            shard_postings: Per *scanned* shard, the batch's postings
                touched there.
            n_shards: The index's total shard count (merge fan-in).
            retrieval_k: Full fetch width.
            merge: ``"one-round"`` or ``"two-round-tput"``.
            first_round_k: TPUT round-one width (required for TPUT).
            route_seconds: Host seconds the candidate's routing pass costs.
            shard_hot: Per scanned shard, the largest single-query
                postings load (aligned with ``shard_postings``; zeros
                when unknown).
            count_bound: Batch maximum per-query count bound (sizes the
                select stage's c-PQ hash tables; see :meth:`scan_seconds`).
        """
        postings = [float(p) for p in shard_postings]
        hot = (
            [float(h) for h in shard_hot]
            if shard_hot is not None
            else [0.0] * len(postings)
        )
        scanned = max(len(postings), 1)

        def scan_round(width: int) -> tuple[float, float]:
            per = [
                self.scan_seconds(
                    n_queries, keywords, p, width, hot=h, count_bound=count_bound
                )
                for p, h in zip(postings, hot)
            ]
            return (max(per), sum(per)) if per else (0.0, 0.0)

        if merge == "two-round-tput":
            cp1, busy1 = scan_round(int(first_round_k))
            cp_full, busy_full = scan_round(int(retrieval_k))
            frac = self.topup_fraction(concentration(postings))
            round1_candidates = scanned * n_queries * int(first_round_k)
            full_candidates = scanned * n_queries * int(retrieval_k)
            merge_s = self.merge_seconds(round1_candidates, n_shards)
            merge_s += self.merge_seconds(
                round1_candidates + frac * full_candidates, n_shards
            )
            return PlanPrice(
                scan_seconds=cp1 + frac * cp_full,
                merge_seconds=merge_s,
                busy_seconds=busy1 + frac * busy_full,
                route_seconds=route_seconds,
            )
        cp, busy = scan_round(int(retrieval_k))
        merge_s = self.merge_seconds(scanned * n_queries * int(retrieval_k), n_shards)
        return PlanPrice(
            scan_seconds=cp,
            merge_seconds=merge_s,
            busy_seconds=busy,
            route_seconds=route_seconds,
        )


# ----------------------------------------------------------------------
# calibration: replay a seeded probe workload, least-squares the stages

#: Scan probes: (n_objects, kw_per_object, keyword_domain, n_queries,
#: kw_per_query, k). The grid spans both serving regimes the model must
#: price: dense-postings few-query small-k batches (band traffic) and
#: sparse-postings wide-batch large-k batches (ANN signatures).
_SCAN_PROBES = (
    (400, 4, 64, 1, 2, 5),
    (400, 4, 64, 4, 3, 10),
    (1500, 4, 256, 1, 3, 10),
    (1500, 4, 256, 8, 4, 20),
    (3000, 4, 256, 16, 4, 20),
    (3000, 5, 96, 32, 5, 50),
    (6000, 4, 512, 1, 4, 10),
    (6000, 6, 64, 64, 6, 50),
    (2000, 4, 512, 24, 16, 30),
    (1000, 3, 256, 2, 8, 5),
    (4000, 8, 128, 48, 3, 40),
    # NOTE: no sparse wide-query row (e.g. 64 queries x 32 uniform
    # keywords over a 1024 domain). That regime — uniform singleton
    # counts, audit threshold 1, every matched posting paying the full
    # atomic gate — has a per-posting cost ~5x the clustered regime the
    # LSH probes below measure, and no feature observable at planning
    # time separates the two. Calibration sides with the clustered
    # regime because that is what hash-sharded ANN traffic looks like.
    # Width-dominated rows, in k-varying pairs: corpora so sparse the
    # match stage is noise, leaving the select stage (nq * k *
    # count_bound c-PQ table slots) as the whole observation. Each pair
    # holds the query shape (same nq, same keywords) and moves only k,
    # so ``scan.width`` decorrelates from ``scan.keywords`` — without
    # the pairs, lstsq can push select cost into the keyword column
    # (width/keywords is near-constant at fixed k).
    (800, 2, 2048, 48, 32, 50),
    (800, 2, 2048, 48, 32, 5),
    (600, 2, 1024, 16, 16, 40),
    (600, 2, 1024, 16, 16, 4),
)

#: Banded probes: (n_objects, n_bands, n_queries, k) on a banded corpus
#: with every query hitting the same dense band — the concentrated
#: regime where one block's postings dominate the launch.
_BAND_PROBES = (
    (800, 4, 1, 10),
    (1600, 8, 1, 32),
    (1600, 8, 8, 32),
    (3200, 16, 4, 20),
    (6400, 16, 2, 50),
)

#: Serial-block probes: (n_objects, n_bands, n_queries, k), single-
#: keyword queries against a huge band so ONE match block carries
#: thousands of postings — the regime of a dense range predicate (one
#: item = one block), where the launch cost is the serial block, not the
#: batch totals. Without these rows the lstsq never sees ``scan.hot``
#: at the magnitude real band traffic has.
_HOT_PROBES = (
    (2000, 2, 1, 10),
    (6000, 2, 1, 10),
    (8000, 2, 2, 20),
    (12000, 4, 1, 20),
)

#: LSH probes: (n_points, dim, num_functions, n_queries, k, n_shards)
#: on a hash-sharded e2lsh index over Gaussian points, queried with
#: perturbed corpus points. Queries hit the heavy hash buckets their
#: neighbours live in, so scanned postings are large while per-object
#: counts cluster; hash sharding then splits each query's items across
#: shards, which lowers the per-shard audit threshold and raises the
#: gate fraction — the exact per-posting regime hash-sharded ANN
#: traffic pays. Probing these *sharded* (feature row = the critical
#: shard, like the planner prices) is deliberate: the serial variant
#: keeps whole count clusters together and runs ~3x cheaper per
#: posting, which would mis-anchor ``scan.postings``.
_ANN_PROBES = (
    (1500, 8, 16, 16, (20,), 4, 256),
    (8000, 16, 32, 64, (50, 13), 8, 1024),
)

#: Merge probes: (n_queries, k) over a dense 4-shard broadcast scan, so
#: every shard returns exactly k candidates per query.
_MERGE_PROBES = ((2, 5), (8, 10), (16, 25), (32, 50), (64, 50))


def _probe_corpus(rng, n_objects: int, kw_per_object: int, domain: int):
    return [
        np.unique(rng.integers(0, domain, size=kw_per_object)).tolist()
        for _ in range(n_objects)
    ]


def _probe_queries(rng, n_queries: int, kw_per_query: int, domain: int):
    return [
        np.sort(rng.choice(domain, size=kw_per_query, replace=False)).tolist()
        for _ in range(n_queries)
    ]


def _observed(profile, stages) -> float:
    return float(sum(profile.get(stage) for stage in stages))


def _relative_lstsq(rows, observed, weights=None) -> np.ndarray:
    """Least squares weighted by ``1/observed``: fit *relative* error.

    Unweighted lstsq lets the largest probes dominate, leaving small
    batches (band traffic: one query, a handful of keywords) with large
    relative misprediction — and relative error is both what the
    benchmark asserts and what plan *ranking* cares about. ``weights``
    optionally scales each row's influence on top of that (probe
    families representative of real traffic count more than synthetic
    regime-fillers).
    """
    rows = np.asarray(rows, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    scale = 1.0 / np.maximum(observed, 1e-18)
    if weights is not None:
        scale = scale * np.asarray(weights, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(rows * scale[:, None], observed * scale, rcond=None)
    return coef


def _fit_scan(scratch, seed: int) -> dict:
    rows, observed, weights = [], [], []

    def probe_handle(handle, raw_queries, k):
        result = handle.search(raw_queries, k=k)
        index = handle._parts[0].index
        counts = postings_per_keyword(index)
        queries = handle.encode_queries(raw_queries)
        postings, hot, bound = batch_features(
            queries, (index.keyword_array,), (counts,), scratch.device.spec.num_sms
        )
        total, hot = float(postings[0]), float(hot[0])
        keywords = float(queries.keywords.size)
        nq = len(queries)
        rows.append(
            [1.0, float(nq), keywords, total, total * float(k) ** 0.5,
             float(hot), float(nq * k * bound)]
        )
        observed.append(_observed(result.profile, SCAN_STAGES))
        weights.append(1.0)
        scratch.drop(handle.name)

    def probe(name, corpus, raw_queries, k):
        probe_handle(
            scratch.create_index(corpus, model="raw", name=name),
            raw_queries,
            k,
        )

    # Random probes: postings spread over many queries/blocks (the
    # amortized regime — total postings dominate).
    for i, (n_obj, kw_obj, domain, nq, kw_q, k) in enumerate(_SCAN_PROBES):
        rng = np.random.default_rng([seed, 1, i])
        probe(
            f"probe-scan-{i}",
            _probe_corpus(rng, n_obj, kw_obj, domain),
            _probe_queries(rng, nq, kw_q, domain),
            k,
        )
    # Banded probes: every query hammers the same dense band, so one
    # block's postings dominate the launch (the concentrated regime the
    # ``scan.hot`` feature prices — band traffic on sorted corpora).
    for i, (n_obj, n_bands, nq, k) in enumerate(_BAND_PROBES):
        rng = np.random.default_rng([seed, 4, i])
        probe(
            f"probe-band-{i}",
            _banded_corpus(rng, n_obj, n_bands),
            [[1, 2] for _ in range(nq)],
            k,
        )
    # Serial-block probes: one single-keyword query item owning a band of
    # thousands of postings — one block, no amortization.
    for i, (n_obj, n_bands, nq, k) in enumerate(_HOT_PROBES):
        rng = np.random.default_rng([seed, 5, i])
        probe(
            f"probe-hot-{i}",
            _banded_corpus(rng, n_obj, n_bands),
            [[0] for _ in range(nq)],
            k,
        )
    # LSH probes: clustered posting counts split across hash shards, the
    # amortized-gate regime of sharded ANN traffic. The observed scan is
    # the launch critical path, so the feature row is the heaviest
    # shard's — the same convention :meth:`CostModel.price` uses. Each
    # probe searches the same corpus at every k in its tuple: the
    # k-pair holds postings fixed and moves only the fetch width, which
    # is what identifies ``scan.gated`` (match work that shrinks with
    # k) separately from ``scan.postings`` (match work that does not).
    for i, (n_pts, dim, m, nq, ks, n_shards, domain) in enumerate(_ANN_PROBES):
        rng = np.random.default_rng([seed, 6, i])
        points = rng.normal(size=(n_pts, dim))
        picks = rng.choice(n_pts, size=nq, replace=False)
        handle = scratch.create_index(
            points, model="ann-e2lsh", num_functions=m, dim=dim,
            width=4.0, seed=0, domain=domain, name=f"probe-ann-{i}",
            shards=n_shards, shard_strategy="hash",
        )
        raw_queries = list(points[picks] + 0.01 * rng.normal(size=(nq, dim)))
        shards = handle._plan_shards()
        queries = handle.encode_queries(raw_queries)
        shard_posts, shard_hot, bound = batch_features(
            queries, shards.shard_keywords, shards.shard_postings, scratch.device.spec.num_sms
        )
        critical = int(np.argmax(shard_posts))
        keywords = float(queries.keywords.size)
        post = float(shard_posts[critical])
        for k in ks:
            result = handle.search(
                raw_queries, k=k, route="broadcast", plan="one-round"
            )
            rows.append(
                [1.0, float(len(queries)), keywords, post,
                 post * float(k) ** 0.5, float(shard_hot[critical]),
                 float(len(queries) * k * bound)]
            )
            observed.append(_observed(result.profile, SCAN_STAGES))
            # LSH rows carry extra weight: they are the regime the
            # costed auto decision actually arbitrates (one-round vs
            # TPUT on hash-sharded ANN traffic), while the synthetic
            # uniform rows above exist to keep coefficients bounded
            # across regimes no benchmark exercises.
            weights.append(3.0)
        scratch.drop(handle.name)
    coef = _relative_lstsq(rows, observed, weights)
    names = (
        "scan.const", "scan.queries", "scan.keywords",
        "scan.postings", "scan.gated", "scan.hot", "scan.width",
    )
    return dict(zip(names, (float(c) for c in coef)))


def _fit_merge(scratch, seed: int) -> dict:
    # One dense 4-shard corpus: every query matches well over k objects
    # in every shard, so each shard returns exactly k candidates and the
    # merge feature (candidates * log2 S) is exact, not an upper bound.
    rng = np.random.default_rng([seed, 2])
    handle = scratch.create_index(
        _probe_corpus(rng, 1600, 6, 24), model="raw", name="probe-merge",
        shards=4, shard_strategy="range",
    )
    rows, observed = [], []
    for i, (nq, k) in enumerate(_MERGE_PROBES):
        q_rng = np.random.default_rng([seed, 2, i])
        result = handle.search(
            _probe_queries(q_rng, nq, 4, 24), k=k, route="broadcast",
            plan="one-round",
        )
        rows.append([1.0, 4.0 * nq * k * np.log2(4)])
        observed.append(_observed(result.profile, ("result_merge",)))
    scratch.drop(handle.name)
    coef = _relative_lstsq(rows, observed)
    return {"merge.const": float(coef[0]), "merge.ops": float(coef[1])}


def _skewed_corpus(rng, n_objects: int):
    # First quarter: dense hot keywords (all landing in range shard 0);
    # the rest: wide sparse keywords spread over a large cold domain.
    hot = [
        np.unique(rng.integers(0, 16, size=6)).tolist()
        for _ in range(n_objects // 4)
    ]
    cold = [
        np.unique(rng.integers(1000, 5000, size=4)).tolist()
        for _ in range(n_objects - n_objects // 4)
    ]
    return hot + cold


def _banded_corpus(rng, n_objects: int, n_bands: int):
    # Object i carries its band id plus one cold filler keyword, so a
    # query for two adjacent bands straddles exactly two range shards.
    band = n_objects // n_bands
    return [
        [i // band, int(rng.integers(1000, 5000))] for i in range(n_objects)
    ]


def _fit_topup(scratch, seed: int) -> dict:
    # Each probe compares three *observed* timings — forced two-round,
    # forced one-round at the round-one width, forced one-round at the
    # full width — and recovers the *effective* top-up fraction
    #
    #     frac = (obs_two - obs_small) / obs_full
    #
    # i.e. how much of a full-width scan the two-round path paid on top
    # of its round one. This is exactly the quantity
    # :meth:`CostModel.price` multiplies the full-round critical path
    # by, so estimator and pricer agree by construction; and it is
    # observed-only, so scan-model residuals cannot pollute the fit.
    #
    # The probe set spans the two regimes that matter. Concentrated
    # range probes (chi >= 0.5): flat posting counts tie every shard's
    # round-one threshold to the global cutoff, so effectively the
    # whole batch tops up (frac -> 1, two-round loses). Hash-sharded
    # e2lsh probes (chi ~ 1/S): clustered counts make shard thresholds
    # discriminating, most pairs prove completeness in round one, and
    # the effective fraction drops to ~0.35 (two-round wins). Uniform
    # even-spread corpora are deliberately NOT probed: their flat
    # counts top up 70-100% despite low chi, which would poison the
    # low-chi end of the fit — the planner prices them optimistically
    # and the result stays bit-identical either way.
    probes = []
    rng = np.random.default_rng([seed, 3])
    probes.append((  # all mass in one range shard: chi = 1, frac -> 1
        scratch.create_index(
            _skewed_corpus(rng, 1600), model="raw", name="probe-topup-skew",
            shards=4, shard_strategy="range",
        ),
        _probe_queries(np.random.default_rng([seed, 3, 0]), 8, 3, 16),
        32, "pruned", 1.0,
    ))
    probes.append((  # two adjacent range shards: chi ~ 0.5
        scratch.create_index(
            _banded_corpus(rng, 1600, 8), model="raw", name="probe-topup-band",
            shards=4, shard_strategy="range",
        ),
        [[1, 2] for _ in range(8)], 32, "pruned", 1.0,
    ))
    for i, (n_pts, dim, m, nq, k, n_shards, weight) in enumerate((
        (800, 8, 16, 16, 20, 4, 1.0),      # chi ~ 0.25
        (1200, 16, 32, 24, 50, 8, 1.0),    # chi ~ 0.125
        (8000, 16, 32, 64, 50, 8, 3.0),    # chi ~ 0.125 at production
        # scale, weighted like the LSH scan rows: clusters deepen with
        # corpus size, thresholds sharpen, and the measured fraction
        # drops — small corpora alone would overprice the two-round
        # merge exactly where it wins
    )):
        p_rng = np.random.default_rng([seed, 3, 2 + i])
        points = p_rng.normal(size=(n_pts, dim))
        picks = p_rng.choice(n_pts, size=nq, replace=False)
        probes.append((
            scratch.create_index(
                points, model="ann-e2lsh", num_functions=m, dim=dim,
                width=4.0, seed=0, domain=256, name=f"probe-topup-ann-{i}",
                shards=n_shards, shard_strategy="hash",
            ),
            list(points[picks] + 0.01 * p_rng.normal(size=(nq, dim))),
            k, "broadcast", weight,
        ))

    from repro.plan.planner import first_round_k_for

    rows, observed_frac, row_weights = [], [], []
    for handle, raw_queries, k, route, weight in probes:
        shards = handle._plan_shards()
        first_k = first_round_k_for(k, shards.n_shards)
        queries = handle.encode_queries(raw_queries)
        matrix = shard_postings_matrix(
            queries, shards.shard_keywords, shards.shard_postings
        )
        totals = matrix.sum(axis=0)
        chi = concentration([t for t in totals if t > 0])
        two = handle.search(raw_queries, k=k, route=route, plan="two-round")
        small = handle.search(raw_queries, k=first_k, route=route, plan="one-round")
        full = handle.search(raw_queries, k=k, route=route, plan="one-round")
        # Scan stages only: the two-round profile's device time is
        # round one plus the topped-up share of a full-width round, so
        # the division isolates the scan fraction exactly. Folding the
        # merge stages in would double-count them — the pricer charges
        # the two-round merges separately.
        obs_two = _observed(two.profile, SCAN_STAGES)
        obs_small = _observed(small.profile, SCAN_STAGES)
        obs_full = _observed(full.profile, SCAN_STAGES)
        frac = (obs_two - obs_small) / max(obs_full, 1e-18)
        rows.append([1.0, chi])
        observed_frac.append(min(1.0, max(0.0, frac)))
        row_weights.append(weight)
        scratch.drop(handle.name)
    rows = np.asarray(rows)
    observed_frac = np.asarray(observed_frac)
    row_weights = np.asarray(row_weights)
    # :meth:`CostModel.topup_fraction` clips at 1.0, so saturated probes
    # (the concentrated regimes, where the whole batch tops up) are
    # censored observations: they pin the model to 1.0 wherever the
    # linear form exceeds it, but carry no gradient about the slope
    # below saturation. Fitting the line through them would tilt the
    # unsaturated (low-chi) end upward — exactly the regime where the
    # one-round/two-round decision and its price live — so the
    # regression uses only unsaturated points when enough exist.
    live = observed_frac < 0.9
    if live.sum() >= 2:
        rows, observed_frac = rows[live], observed_frac[live]
        row_weights = row_weights[live]
    w = row_weights[:, None]
    coef, *_ = np.linalg.lstsq(
        rows * w, observed_frac * row_weights, rcond=None
    )
    return {"topup.const": float(coef[0]), "topup.concentration": float(coef[1])}


def calibrate_coefficients(
    device_spec, device_costs, host_spec, host_cores: int = 1, seed: int = 0
) -> dict:
    """Fit every :data:`COEFFICIENT_NAMES` coefficient from probe replays.

    Builds a scratch :class:`~repro.api.session.GenieSession` on fresh
    device/host instances with the given specs (identical cost model,
    untouched timings), replays the seeded probe workloads, and
    least-squares-fits each stage. Deterministic for a given
    ``(specs, seed)``.
    """
    from repro.api.session import GenieSession
    from repro.gpu.device import Device
    from repro.gpu.host import HostCpu

    scratch = GenieSession(
        device=Device(spec=device_spec, costs=device_costs),
        host=HostCpu(spec=host_spec, cores=host_cores),
    )
    try:
        coefficients = _fit_scan(scratch, seed)
        coefficients.update(_fit_merge(scratch, seed))
        coefficients.update(_fit_topup(scratch, seed))
    finally:
        scratch.close()
    return coefficients


def calibrate_session(session, seed: int = 0) -> dict:
    """Calibrate against ``session``'s device/host and persist the result.

    The coefficients land on :attr:`session.cost_coefficients
    <repro.api.session.GenieSession.cost_coefficients>` (a plain dict;
    assignment bumps the session's cost epoch and flushes its plan
    cache), and the same dict is returned.
    """
    session._check_open()
    session.cost_coefficients = calibrate_coefficients(
        device_spec=session.device.spec,
        device_costs=session.device.costs,
        host_spec=session.host.spec,
        host_cores=session.host.cores,
        seed=seed,
    )
    return session.cost_coefficients
