"""System builders for the multi-dataset timing experiments (Figs. 9/10/13).

Every builder returns a dict ``{system_name: runner}`` where a runner is a
zero-setup callable ``runner(n_queries) -> simulated_seconds``. All systems
of one dataset share the query workload but get their own simulated device
or host clock, mirroring the paper's one-system-at-a-time measurements.
"""

from __future__ import annotations

import numpy as np

from paper.baselines.appgram import AppGram
from paper.baselines.cpu_idx import CpuIdx
from paper.baselines.cpu_lsh import CpuLsh
from paper.baselines.gen_spq import make_gen_spq
from paper.baselines.gpu_lsh import GpuLsh
from paper.baselines.gpu_spq import GpuSpq
from paper.experiments.common import DEFAULT_DOMAIN, DEFAULT_K, DEFAULT_M, fit_genie_ocr, fit_genie_sift
from repro.api.session import GenieSession
from repro.core.engine import GenieConfig
from repro.core.types import Corpus, Query
from repro.datasets import registry
from repro.datasets.documents import make_document_queries
from repro.datasets.relational import adult_schema, make_range_queries
from repro.datasets.sequences import make_query_set
from repro.errors import GpuOutOfMemoryError, UnknownNameError
from repro.gpu.device import Device
from repro.sa.document import WordVocabulary, tokenize


def _oom_guard(fn):
    """Run a batch; report NaN seconds when the device cannot hold it.

    The paper reports GPU-SPQ as unable to run batches beyond 256 queries —
    the same mechanism (per-query Count Tables exhausting device memory)
    produces NaN entries here.
    """
    try:
        return fn()
    except GpuOutOfMemoryError:
        return float("nan")


def point_systems(
    dataset_name: str,
    n: int | None = None,
    m: int = DEFAULT_M,
    domain: int = DEFAULT_DOMAIN,
    k: int = DEFAULT_K,
    systems: tuple[str, ...] = ("GENIE", "GPU-SPQ", "GPU-LSH", "CPU-Idx", "CPU-LSH"),
    gpu_lsh_tables: int = 60,
    gpu_lsh_functions: int = 3,
    seed: int = 0,
) -> dict:
    """Runners for a high-dimensional point dataset (OCR or SIFT).

    GENIE, GPU-SPQ and CPU-Idx operate on the same LSH-transformed keyword
    corpus; GPU-LSH and CPU-LSH consume the raw points, as in the paper.
    """
    dataset = registry.load(dataset_name, n=n, seed=seed)
    if dataset_name == "ocr":
        setup = fit_genie_ocr(dataset, m=m, k=k, seed=seed)
    else:
        setup = fit_genie_sift(dataset, m=m, domain=domain, k=k, seed=seed)
    transformer = setup.handle.model.transformer
    corpus = transformer.to_corpus(dataset.data)
    query_pool = dataset.queries

    def queries_for(n_queries: int) -> np.ndarray:
        reps = int(np.ceil(n_queries / len(query_pool)))
        return np.tile(query_pool, (reps, 1))[:n_queries]

    runners = {}

    if "GENIE" in systems:
        def run_genie(n_queries: int, _setup=setup) -> float:
            _setup.handle.search(queries_for(n_queries), k=k)
            return _setup.handle.engine.last_profile.query_total()

        runners["GENIE"] = run_genie

    if "GEN-SPQ" in systems:
        gen_spq = make_gen_spq(device=Device(), config=GenieConfig(k=k, count_bound=m))
        gen_spq.fit(corpus)

        def run_gen_spq(n_queries: int) -> float:
            genie_queries = transformer.to_queries(queries_for(n_queries))
            return _oom_guard(
                lambda: (gen_spq.query(genie_queries, k=k), gen_spq.last_profile.query_total())[1]
            )

        runners["GEN-SPQ"] = run_gen_spq

    if "GPU-SPQ" in systems:
        gpu_spq = GpuSpq(device=Device()).fit(corpus)

        def run_gpu_spq(n_queries: int) -> float:
            genie_queries = transformer.to_queries(queries_for(n_queries))
            return _oom_guard(
                lambda: (gpu_spq.query(genie_queries, k=k), gpu_spq.last_profile.query_total())[1]
            )

        runners["GPU-SPQ"] = run_gpu_spq

    if "GPU-LSH" in systems:
        gpu_lsh = GpuLsh(
            num_tables=gpu_lsh_tables,
            functions_per_table=gpu_lsh_functions,
            width=24.0,
            device=Device(),
            seed=seed,
            early_stop_factor=None,  # timing config: full short-list search
        ).fit(dataset.data)

        def run_gpu_lsh(n_queries: int) -> float:
            gpu_lsh.query(queries_for(n_queries), k=k)
            return gpu_lsh.last_profile.query_total()

        runners["GPU-LSH"] = run_gpu_lsh

    if "CPU-Idx" in systems:
        cpu_idx = CpuIdx().fit(corpus)

        def run_cpu_idx(n_queries: int) -> float:
            cpu_idx.query(transformer.to_queries(queries_for(n_queries)), k=k)
            return cpu_idx.last_profile.query_total()

        runners["CPU-Idx"] = run_cpu_idx

    if "CPU-LSH" in systems:
        cpu_lsh = CpuLsh(num_functions=m, width=4.0, seed=seed).fit(dataset.data)

        def run_cpu_lsh(n_queries: int) -> float:
            cpu_lsh.query(queries_for(n_queries), k=k)
            return cpu_lsh.last_profile.query_total()

        runners["CPU-LSH"] = run_cpu_lsh

    return runners


def sequence_systems(
    n: int | None = None,
    k: int = 1,
    n_candidates: int = 32,
    modify_fraction: float = 0.2,
    n_pool_queries: int = 64,
    ngram: int = 3,
    seed: int = 0,
) -> dict:
    """Runners for the DBLP sequence workload: GENIE, GPU-SPQ, AppGram."""
    titles = registry.load("dblp", n=n, seed=seed)
    query_pool, _ = make_query_set(titles, n_pool_queries, modify_fraction, seed=seed + 1)

    def queries_for(n_queries: int) -> list[str]:
        reps = int(np.ceil(n_queries / len(query_pool)))
        return (query_pool * reps)[:n_queries]

    session = GenieSession()
    genie = session.create_index(titles, model="sequence", n=ngram)
    runners = {}

    def run_genie(n_queries: int) -> float:
        before_dev = session.device.timings.copy()
        before_host = session.host.timings.copy()
        for q in queries_for(n_queries):
            genie.search([q], k=k, n_candidates=n_candidates)
        dev = session.device.timings.total - before_dev.total
        host = session.host.timings.total - before_host.total
        return dev + host

    runners["GENIE"] = run_genie

    vocab = genie.model.vocabulary
    corpus = Corpus([vocab.encode(s, grow=False) for s in titles])
    gpu_spq = GpuSpq(device=Device()).fit(corpus)

    def run_gpu_spq(n_queries: int) -> float:
        genie_queries = [Query.from_keywords(vocab.encode(q, grow=False)) for q in queries_for(n_queries)]
        genie_queries = [q for q in genie_queries if q.num_items]
        return _oom_guard(
            lambda: (gpu_spq.query(genie_queries, k=n_candidates), gpu_spq.last_profile.query_total())[1]
        )

    runners["GPU-SPQ"] = run_gpu_spq

    appgram = AppGram(n=ngram).fit(titles)

    def run_appgram(n_queries: int) -> float:
        appgram.search_batch(queries_for(n_queries), k=k)
        return appgram.last_profile.query_total()

    runners["AppGram"] = run_appgram

    return runners


def document_systems(
    n: int | None = None,
    k: int = DEFAULT_K,
    n_pool_queries: int = 64,
    seed: int = 0,
) -> dict:
    """Runners for the Tweets workload: GENIE, GPU-SPQ, CPU-Idx."""
    docs = registry.load("tweets", n=n, seed=seed)
    query_pool, _ = make_document_queries(docs, n_pool_queries, seed=seed + 1)

    def queries_for(n_queries: int) -> list[str]:
        reps = int(np.ceil(n_queries / len(query_pool)))
        return (query_pool * reps)[:n_queries]

    genie = GenieSession().create_index(docs, model="document")
    runners = {}

    def run_genie(n_queries: int) -> float:
        genie.search(queries_for(n_queries), k=k)
        return genie.engine.last_profile.query_total()

    runners["GENIE"] = run_genie

    vocab: WordVocabulary = genie.model.vocabulary
    corpus = Corpus([vocab.encode(tokenize(d), grow=False) for d in docs])

    def to_queries(texts: list[str]) -> list[Query]:
        queries = [Query.from_keywords(vocab.encode(tokenize(t), grow=False)) for t in texts]
        return [q for q in queries if q.num_items]

    gpu_spq = GpuSpq(device=Device()).fit(corpus)

    def run_gpu_spq(n_queries: int) -> float:
        return _oom_guard(
            lambda: (
                gpu_spq.query(to_queries(queries_for(n_queries)), k=k),
                gpu_spq.last_profile.query_total(),
            )[1]
        )

    runners["GPU-SPQ"] = run_gpu_spq

    gen_spq = make_gen_spq(device=Device(), config=GenieConfig(k=k)).fit(corpus)

    def run_gen_spq(n_queries: int) -> float:
        return _oom_guard(
            lambda: (
                gen_spq.query(to_queries(queries_for(n_queries)), k=k),
                gen_spq.last_profile.query_total(),
            )[1]
        )

    runners["GEN-SPQ"] = run_gen_spq

    cpu_idx = CpuIdx().fit(corpus)

    def run_cpu_idx(n_queries: int) -> float:
        cpu_idx.query(to_queries(queries_for(n_queries)), k=k)
        return cpu_idx.last_profile.query_total()

    runners["CPU-Idx"] = run_cpu_idx

    return runners


def relational_systems(
    n: int | None = None,
    k: int = DEFAULT_K,
    n_pool_queries: int = 64,
    numeric_bins: int = 64,
    seed: int = 0,
) -> dict:
    """Runners for the Adult workload: GENIE, GPU-SPQ, CPU-Idx."""
    columns = registry.load("adult", n=n, seed=seed)
    query_pool = make_range_queries(columns, n_pool_queries, seed=seed + 1)

    def queries_for(n_queries: int) -> list[dict]:
        reps = int(np.ceil(n_queries / len(query_pool)))
        return (query_pool * reps)[:n_queries]

    genie = GenieSession().create_index(
        columns, model="relational", schema=adult_schema(numeric_bins)
    )
    runners = {}

    def run_genie(n_queries: int) -> float:
        genie.search(queries_for(n_queries), k=k)
        return genie.engine.last_profile.query_total()

    runners["GENIE"] = run_genie

    corpus = genie.engine.corpus

    def to_queries(ranges_batch: list[dict]) -> list[Query]:
        return genie.model.encode_queries(ranges_batch)

    gpu_spq = GpuSpq(device=Device()).fit(corpus)

    def run_gpu_spq(n_queries: int) -> float:
        return _oom_guard(
            lambda: (
                gpu_spq.query(to_queries(queries_for(n_queries)), k=k),
                gpu_spq.last_profile.query_total(),
            )[1]
        )

    runners["GPU-SPQ"] = run_gpu_spq

    gen_spq = make_gen_spq(device=Device(), config=GenieConfig(k=k)).fit(corpus)

    def run_gen_spq(n_queries: int) -> float:
        return _oom_guard(
            lambda: (
                gen_spq.query(to_queries(queries_for(n_queries)), k=k),
                gen_spq.last_profile.query_total(),
            )[1]
        )

    runners["GEN-SPQ"] = run_gen_spq

    cpu_idx = CpuIdx().fit(corpus)

    def run_cpu_idx(n_queries: int) -> float:
        cpu_idx.query(to_queries(queries_for(n_queries)), k=k)
        return cpu_idx.last_profile.query_total()

    runners["CPU-Idx"] = run_cpu_idx

    return runners


#: Which systems Fig. 9 compares per dataset (paper's panel layout).
FIG9_SYSTEMS = {
    "ocr": ("GENIE", "GPU-SPQ", "GPU-LSH", "CPU-Idx", "CPU-LSH"),
    "sift": ("GENIE", "GPU-SPQ", "GPU-LSH", "CPU-Idx", "CPU-LSH"),
    "dblp": ("GENIE", "GPU-SPQ", "AppGram"),
    "tweets": ("GENIE", "GPU-SPQ", "CPU-Idx"),
    "adult": ("GENIE", "GPU-SPQ", "CPU-Idx"),
}


def systems_for(dataset_name: str, n: int | None = None, seed: int = 0, **kwargs) -> dict:
    """Build the Fig. 9 system set for any of the five datasets."""
    if dataset_name in ("ocr", "sift"):
        return point_systems(
            dataset_name, n=n, systems=FIG9_SYSTEMS[dataset_name], seed=seed, **kwargs
        )
    if dataset_name == "dblp":
        return sequence_systems(n=n, seed=seed, **kwargs)
    if dataset_name == "tweets":
        return document_systems(n=n, seed=seed, **kwargs)
    if dataset_name == "adult":
        return relational_systems(n=n, seed=seed, **kwargs)
    raise UnknownNameError(f"unknown dataset {dataset_name!r}")
