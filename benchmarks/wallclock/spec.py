"""The benchmark's fixed vocabulary: workloads, metrics, bounds, exact set.

Names, units, directions and bounds live in ``BENCHMARK.json`` and are
read from there (``compare`` must not carry a second copy).  What the
contract file cannot hold — which metrics must repeat bit-for-bit, which
phase a per-layer metric covers — is declared here.
"""

from __future__ import annotations

import json
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent.parent
SOURCE_DIR = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = ("ann_batch", "ocr_sharded", "serve_mix", "stream_ingest")

#: Table I's stages: the simulated seconds reported beside the wall-clock layers.
SIM_STAGES = ("index_build", "index_transfer", "query_transfer", "match", "select")

#: Seconds one run's timed phase measures when ``--seconds`` is omitted
#: (``BENCHMARK.json``'s ``run_seconds``).
DEFAULT_SECONDS = 15.0

#: Deterministic per (workload, seed, scale): two runs must agree to the
#: last bit.  Every run carries ``sim_s``, the two digests and its
#: ``exact`` dict (``runner.exact_channel``); the per-layer counts below
#: come from traced runs.
EXACT_LAYER_METRICS = (
    "import.module_count",
    "api.encode_queries_calls",
    "lsh.murmur_calls",
    "core.index_build_calls", "core.scan_calls", "core.scan_cells",
    "gpu.launch_calls",
    "gpu.sim.index_build_s", "gpu.sim.index_transfer_s", "gpu.sim.query_transfer_s",
    "gpu.sim.match_s", "gpu.sim.select_s",
    "plan.compile_calls", "plan.cache_hit_ratio",
    "cluster.merge_calls", "cluster.shard_imbalance",
    "replica.failovers", "replica.failover_sim_s",
    "stream.compactions", "stream.delta_postings_final",
    "serve.batches", "serve.mean_batch_size", "serve.cache_hit_ratio", "serve.rejected",
    "serve.sim_throughput_qps", "serve.sim_latency_p95_s",
    "bench.error_rate",
)


def load() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(BENCHMARK_JSON.read_text())


def end_to_end() -> dict[str, dict]:
    """``name -> {unit, better, bound}`` for the gated metrics."""
    return {m["name"]: m for m in load()["end_to_end"]}


def per_layer() -> dict[str, dict]:
    """``name -> {unit, better}`` for the per-layer metrics."""
    return {m["name"]: m for m in load()["per_layer"]}
