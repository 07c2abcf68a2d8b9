"""One run in this process, and fresh child processes for real runs.

A *run* is: generate inputs from the seed, set up (timed), two warm-up
calls, the timed phase, then the answers are checked.  ``run_once`` does
that in the current process (the smoke test uses it directly);
``spawn`` does it in a fresh single-threaded interpreter, which is the
only way ``import repro`` and peak RSS mean anything.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

from . import spec

#: How a child is launched: fresh interpreter, BLAS pinned to one thread
#: (on a 2-core box numpy's BLAS otherwise burns 2x CPU for the same wall
#: time and the numbers measure the scheduler), fixed hash seed.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
CHILD_TIMEOUT = 170  # seconds; the harness allows a run 180


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(name: str, seed: int, seconds: float, scale: str = "full",
             mode: str = "timed", import_s: float = 0.0, module_count: int = 0) -> dict:
    """One run of workload ``name`` in this process.

    ``mode``: ``"timed"`` (end-to-end metrics, tracing off), ``"setup"``
    (stop after set-up), ``"traced"`` (public callables wrapped, per-layer
    metrics) or ``"obs"`` (the program's own request tracing switched on).
    """
    from repro.serve import percentile_nearest_rank

    from . import oracle
    from .probe import BURST, SpeedProbe
    from .trace import IDLE, SETUP, Tracer
    from .workloads import WORKLOADS, Recorder

    workload = WORKLOADS[name](scale, obs=mode == "obs")
    started = perf_counter()
    workload.generate(seed)
    generate_s = perf_counter() - started
    probe = SpeedProbe()

    tracer = Tracer() if mode == "traced" else None
    try:
        with tracer or nullcontext():
            if tracer is not None:
                tracer.op = SETUP
            started = perf_counter()
            workload.setup()
            build_s = perf_counter() - started
            if tracer is not None:
                tracer.op = IDLE
            setup_speed = probe.burst(BURST[scale])
            result = {
                "workload": name, "seed": seed, "scale": scale, "mode": mode, "seconds": seconds,
                "phases": {"import_s": import_s, "generate_s": generate_s, "build_s": build_s},
                # Wall-clock metrics are reported at reference machine
                # speed (see probe.py); "raw" keeps them as measured.
                "metrics": {"setup_s": (import_s + build_s) / setup_speed},
                "raw": {"setup_s": import_s + build_s, "setup_speed_factor": setup_speed},
            }
            if mode == "setup":
                return result

            oracle.self_check()
            workload.warm_up()
            timed_from = len(probe.samples)
            rec = Recorder(tracer, workload.window, probe)
            exact: dict = {}
            loop_started = perf_counter()
            step = 0
            while step < workload.window or rec.busy < seconds:
                rec.begin(step)
                workload.step(step, rec)
                if step == workload.window - 1:
                    exact = workload.close_window(rec)
                step += 1
            rec.begin(step - 1)
            workload.finish(rec)
            elapsed = perf_counter() - loop_started
            if len(probe.samples) - timed_from < BURST[scale]:  # too short a run to have been sampled
                probe.burst(BURST[scale])
            speed = probe.factor(timed_from)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()

    checks = workload.checks(rec, exact)
    result["phases"].update(timed_busy_s=rec.busy, timed_elapsed_s=elapsed,
                            window_busy_s=rec.window_busy)
    raw = {
        "throughput_ops_s": rec.ops / rec.busy,
        "latency_p50_ms": percentile_nearest_rank(rec.latencies, 50) * 1e3,
        "latency_p90_ms": percentile_nearest_rank(rec.latencies, 90) * 1e3,
    }
    result["raw"].update(raw, speed_factor=speed, speed_samples=len(probe.samples) - timed_from)
    result["metrics"].update(
        throughput_ops_s=raw["throughput_ops_s"] * speed,
        latency_p50_ms=raw["latency_p50_ms"] / speed,
        latency_p90_ms=raw["latency_p90_ms"] / speed,
        sim_s=rec.sim,
        peak_rss_mb=peak_rss_mb,
    )
    result.update(
        attempted=rec.ops, failed=rec.failed, verified=rec.verified,
        error_rate=rec.failed / rec.ops,
        steps=step, latency_samples=len(rec.latencies),
        checks=checks, correct=rec.failed == 0 and all(checks.values()),
        answers_sha256=rec.answers.hexdigest(), inputs_sha256=workload.inputs_sha256,
    )
    exact.update({f"gpu.sim.{stage}_s": seconds_ for stage, seconds_ in rec.sim_stages.items()})
    exact.update({
        "cluster.shard_imbalance": rec.shard_imbalance(),
        "replica.failovers": len(rec.failovers),
        "replica.failover_sim_s": sum(penalty for _, penalty in rec.failovers),
        "bench.error_rate": rec.failed / rec.ops,
    })
    result["exact"] = exact
    if tracer is not None:
        result["layers"], result["stages"] = _layer_metrics(
            tracer, rec, workload.window, exact, result["phases"], module_count)
    return result


def _layer_metrics(tracer, rec, window: int, exact: dict, phases: dict, module_count: int):
    """Per-layer metrics of a traced run; ``_s`` inclusive, ``_self_s`` self time.

    Timed-phase rows cover the exact window only, so the counts repeat.
    Every declared metric is emitted by every workload: 0 where the
    workload never enters the layer.
    """
    from repro.serve import percentile_nearest_rank

    from .trace import SETUP

    setup = tracer.stages(SETUP, SETUP)
    timed = tracer.stages(0, window - 1)

    def get(table, name, field):
        return table.get(name, {}).get(field, 0)

    def median_of(name, scale):
        durations = tracer.durations(name, 0, window - 1)
        return statistics.median(durations) * scale if durations else 0.0

    layers = dict.fromkeys(spec.per_layer(), 0)
    layers.update({
        "import.repro_s": phases["import_s"],
        "import.module_count": module_count,
        "datasets.generate_s": phases["generate_s"],
        "api.create_index_s": get(setup, "api.create_index", "total_s"),
        "api.encode_corpus_s": get(setup, "api.encode_corpus", "total_s"),
        "api.encode_queries_s": get(timed, "api.encode_queries", "total_s"),
        "api.encode_queries_calls": get(timed, "api.encode_queries", "calls"),
        "api.search_self_s": get(timed, "api.search", "self_s"),
        "lsh.keyword_matrix_s": get(timed, "lsh.keyword_matrix", "total_s"),
        "lsh.keyword_matrix_setup_s": get(setup, "lsh.keyword_matrix", "total_s"),
        "lsh.murmur_calls": tracer.counts["lsh.murmur_calls"],
        "sa.encode_s": get(timed, "sa.encode", "total_s"),
        "core.corpus_init_s": get(setup, "core.corpus_init", "total_s"),
        "core.index_build_s": get(timed, "core.index_build", "total_s"),
        "core.index_build_setup_s": get(setup, "core.index_build", "total_s"),
        "core.index_build_calls": get(timed, "core.index_build", "calls"),
        "core.scan_s": get(timed, "core.scan", "total_s"),
        "core.scan_calls": get(timed, "core.scan", "calls"),
        "core.scan_cells": tracer.counts["core.scan_cells"],
        "core.engine_self_s": get(timed, "core.engine", "self_s"),
        "gpu.launch_s": get(timed, "gpu.launch", "total_s"),
        "gpu.launch_calls": get(timed, "gpu.launch", "calls"),
        "plan.compile_s": get(timed, "plan.compile", "total_s"),
        "plan.compile_calls": get(timed, "plan.compile", "calls"),
        "plan.execute_self_s": get(timed, "plan.execute", "self_s"),
        "cluster.partition_s": get(setup, "cluster.partition", "total_s"),
        "cluster.merge_s": get(timed, "cluster.merge", "total_s"),
        "cluster.merge_calls": get(timed, "cluster.merge", "calls"),
        "stream.insert_s": get(timed, "stream.insert", "total_s"),
        "stream.insert_call_p50_ms": median_of("stream.insert", 1e3),
        "stream.delete_s": get(timed, "stream.delete", "total_s"),
        "stream.update_s": get(timed, "stream.update", "total_s"),
        "stream.compact_s": get(timed, "stream.compact", "total_s"),
        # The mutation call a compaction ran inside: the foreground stall
        # a median hides.
        "stream.compact_stall_max_ms": max(
            tracer.parent_durations("stream.compact", 0, window - 1), default=0.0) * 1e3,
        "serve.submit_self_s": get(timed, "serve.submit", "self_s"),
        "serve.submit_p50_us": median_of("serve.submit", 1e6),
        "serve.dispatch_self_s": sum(
            get(timed, name, "self_s") for name in ("serve.pump", "serve.advance_to", "serve.drain")),
        "serve.request_p99_ms": (percentile_nearest_rank(rec.latencies, 99) * 1e3
                                 if "serve.batches" in exact else 0.0),
        "bench.window_wall_s": rec.window_busy,
        "bench.unattributed_s": rec.window_busy - sum(row["root_s"] for row in timed.values()),
    })
    layers.update(exact)
    return layers, {"setup": setup, "timed": timed}


def exact_channel(run: dict) -> dict:
    """Everything of one run that must repeat bit-for-bit for its seed and scale."""
    return dict(run["exact"], sim_s=run["metrics"]["sim_s"],
                answers_sha256=run["answers_sha256"], inputs_sha256=run["inputs_sha256"])


def overhead_pct(baseline_ops_s: float, slowed_ops_s: float) -> float:
    """How much slower ``slowed`` ran than ``baseline``, in percent of baseline speed."""
    return (baseline_ops_s / slowed_ops_s - 1.0) * 100.0


# ----------------------------------------------------------------------
# child processes


def child_main(args) -> int:
    """Entry point of a run's own process: time the import, run, print JSON."""
    modules_before = len(sys.modules)
    started = perf_counter()
    import repro  # noqa: F401  (timed: every user pays it)
    import repro.api  # noqa: F401
    import repro.serve  # noqa: F401
    import_s = perf_counter() - started
    module_count = len(sys.modules) - modules_before
    result = run_once(args.workload, args.seed, args.seconds, args.scale, args.mode,
                      import_s=import_s, module_count=module_count)
    print(json.dumps(result))
    return 0


def spawn(name: str, seed: int, seconds: float, scale: str, mode: str) -> dict:
    """One run in a fresh interpreter; returns the child's result dict."""
    command = [
        sys.executable, str(spec.PACKAGE_DIR / "bench.py"), "child",
        "--workload", name, "--seed", str(seed), "--seconds", repr(float(seconds)),
        "--scale", scale, "--mode", mode,
    ]
    done = subprocess.run(
        command, env={**os.environ, **CHILD_ENV}, cwd=spec.ROOT,
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name} {mode} run exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def warm_import() -> None:
    """Import the program once, untimed: writes the bytecode cache a fresh
    checkout lacks and pages the files in, so no timed import compiles."""
    subprocess.run(
        [sys.executable, "-c", "import repro, repro.api, repro.serve"],
        env={**os.environ, **CHILD_ENV, "PYTHONPATH": str(spec.SOURCE_DIR)},
        cwd=spec.ROOT, check=True, timeout=CHILD_TIMEOUT,
    )


def baseline_of(run: dict) -> dict:
    """What a traced run is held against, read off one untraced run."""
    return dict(run["metrics"], latency_samples=run["latency_samples"],
                speed_factor=run["raw"]["speed_factor"])


def complete_layers(traced: dict, baseline: dict, sampled: dict | None = None) -> dict:
    """A traced run's per-layer values plus those only untraced runs can give.

    ``baseline`` holds ``throughput_ops_s``, ``latency_p90_ms``,
    ``latency_samples`` and ``speed_factor`` of untraced running (one
    run, or a set's medians);
    ``sampled`` is a run with the program's own request tracing on.
    """
    layers = dict(traced["layers"])
    layers["bench.trace_overhead_pct"] = overhead_pct(
        baseline["throughput_ops_s"], traced["metrics"]["throughput_ops_s"])
    layers["bench.latency_p90_ms"] = baseline["latency_p90_ms"]
    layers["bench.latency_samples"] = baseline["latency_samples"]
    layers["bench.speed_factor"] = baseline["speed_factor"]
    if sampled is not None:
        layers["obs.trace_sample_overhead_pct"] = overhead_pct(
            baseline["throughput_ops_s"], sampled["metrics"]["throughput_ops_s"])
    return layers


def traced_layers(name: str, seed: int, seconds: float, scale: str, baseline: dict) -> dict:
    """The traced run of one workload, its ``layers`` completed against ``baseline``."""
    traced = spawn(name, seed, seconds, scale, "traced")
    sampled = None
    if name == "serve_mix":
        # The program's own request tracing (GenieServer(trace_sample=1)),
        # wrappers off: the wall-clock counterpart of obs_overhead.txt.
        sampled = spawn(name, seed, seconds, scale, "obs")
        traced["correct"] = traced["correct"] and sampled["correct"]
    traced["layers"] = complete_layers(traced, baseline, sampled)
    return traced
