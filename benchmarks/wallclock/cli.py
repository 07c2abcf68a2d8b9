"""Command line: the harness contract, ``run``, ``trace``, ``compare``, ``report``.

Called with ``--workload ... --seed ... --seconds ... --trace 0|1`` and no
subcommand it is the harness contract: one run of one workload, every
metric printed by name, then one JSON line.  The subcommands are for
people: ``run`` measures interleaved sets and writes a result file,
``trace`` prints one workload's per-stage table, ``compare`` judges two
result files against the bounds in ``BENCHMARK.json``, ``report`` renders
one as markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from . import spec
from .compare import compare_files
from .report import render_file, stage_table
from .runner import (baseline_of, child_main, exact_channel, quartiles, spawn,
                     traced_layers, warm_import)

SETUP_REPEATS = 3   # set-ups per contract run; ``setup_s`` is their median
#: Measured and summarised by ``run`` like an end-to-end metric, but not gated.
UNGATED = ("latency_p90_ms",)


def _require_program() -> None:
    if not (spec.SOURCE_DIR / "repro" / "__init__.py").is_file() or not spec.BENCHMARK_JSON.is_file():
        raise SystemExit(f"wallclock: no program to measure under {spec.SOURCE_DIR} "
                         f"(or no {spec.BENCHMARK_JSON.name})")


def _print_metrics(workload: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{workload} {name} {units[name]['unit']} {value!r}")


# ----------------------------------------------------------------------
# the harness contract: one run, one JSON line


def contract_payload(verdict: dict, values: dict, units: dict) -> dict:
    """The contract's JSON object: exactly the declared metrics, with their units."""
    return {
        "correct": bool(verdict["correct"]),
        "attempted": int(verdict["attempted"]),
        "failed": int(verdict["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]["unit"]} for name in units},
    }


def _fresh(args) -> dict:
    """One untraced run of ``args.workload`` in a fresh process."""
    return spawn(args.workload, args.seed, args.seconds, args.scale, "timed")


def _traced(args) -> dict:
    """A traced run held against its own fresh untraced baseline."""
    baseline = _fresh(args)
    traced = traced_layers(args.workload, args.seed, args.seconds, args.scale, baseline_of(baseline))
    traced["correct"] = traced["correct"] and baseline["correct"]
    return traced


def contract(args) -> int:
    _require_program()
    warm_import()
    if args.trace:
        units = spec.per_layer()
        verdict = _traced(args)
        values = verdict["layers"]
    else:
        units = spec.end_to_end()
        verdict = _fresh(args)
        setups = [verdict["metrics"]["setup_s"]] + [
            spawn(args.workload, args.seed, 0.0, args.scale, "setup")["metrics"]["setup_s"]
            for _ in range(SETUP_REPEATS - 1)
        ]
        values = dict(verdict["metrics"], setup_s=statistics.median(setups))
        # As measured, before scaling to reference machine speed (probe.py).
        for name, value in verdict["raw"].items():
            print(f"{args.workload} raw.{name} {value!r}")
    payload = contract_payload(verdict, values, units)
    _print_metrics(args.workload, {name: entry["value"] for name, entry in payload["metrics"].items()}, units)
    if not payload["correct"]:
        print(f"{args.workload}: failed={verdict['failed']} checks={verdict['checks']}", file=sys.stderr)
    print(json.dumps(payload))
    return 0


# ----------------------------------------------------------------------
# run: interleaved sets, medians, one result file


def _environment(args) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=spec.ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "system": f"{platform.system()} {platform.release()}",
        "nproc": os.cpu_count(), "blas_threads": 1,
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds, "scale": args.scale,
        "load1_start": os.getloadavg()[0], "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_sets(args) -> int:
    _require_program()
    warm_import()
    environment = _environment(args)
    units, layer_units = spec.end_to_end(), spec.per_layer()
    # Summarised like the gated metrics, but not gated (see README: demoted).
    summarised = {**units, **{name: {"unit": "ms"} for name in UNGATED}}
    runs: dict[str, list[dict]] = {name: [] for name in args.workloads}
    # A B C D A B C D: a noisy stretch hits every workload alike.
    for repeat in range(args.runs):
        for name in args.workloads:
            runs[name].append(spawn(name, args.seed, args.seconds, args.scale, "timed"))
            print(f"# run {repeat + 1}/{args.runs} {name} done", file=sys.stderr)

    status = 0
    workloads = {}
    for name in args.workloads:
        series = runs[name]
        summary = {}
        for metric, declared in summarised.items():
            values = [run["metrics"][metric] for run in series]
            q1, median, q3 = quartiles(values)
            summary[metric] = {"unit": declared["unit"], "median": median, "q1": q1, "q3": q3,
                               "n": len(values), "values": values}
            print(f"{name} {metric} {declared['unit']} {median!r} {q1!r} {q3!r} {len(values)}")
        exact = exact_channel(series[0])
        exact_repeats = all(exact_channel(run) == exact for run in series)
        # The traced run is held against the set's medians, not one run.
        baseline = {metric: row["median"] for metric, row in summary.items()}
        baseline["latency_samples"] = statistics.median(run["latency_samples"] for run in series)
        baseline["speed_factor"] = statistics.median(run["raw"]["speed_factor"] for run in series)
        traced = traced_layers(name, args.seed, args.seconds, args.scale, baseline)
        layers = {metric: {"unit": layer_units[metric]["unit"], "value": traced["layers"][metric]}
                  for metric in layer_units}
        for metric, row in layers.items():
            print(f"{name} {metric} {row['unit']} {row['value']!r}")
        attempted = sum(run["attempted"] for run in series)
        failed = sum(run["failed"] for run in series)
        verified = sum(run["verified"] for run in series)
        print(f"{name} error_rate ratio {failed / attempted!r} attempted={attempted} "
              f"failed={failed} oracle_checked={verified}")
        correct = all(run["correct"] for run in series) and traced["correct"]
        if not correct or not exact_repeats:
            status = 1
            print(f"{name}: correct={correct} exact_repeats={exact_repeats} "
                  f"checks={[run['checks'] for run in series]}", file=sys.stderr)
        workloads[name] = {
            "end_to_end": summary,
            "error": {"attempted": attempted, "failed": failed,
                      "error_rate": failed / attempted, "verified": verified},
            "exact": exact, "exact_repeats": exact_repeats, "correct": correct,
            "checks": series[0]["checks"],
            "latency_samples": [run["latency_samples"] for run in series],
            "raw": [run["raw"] for run in series],
            "per_layer": layers, "stages": traced["stages"],
        }
    environment["load1_end"] = os.getloadavg()[0]
    out = args.out or str(spec.PACKAGE_DIR / "results" / f"wallclock-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"environment": environment, "workloads": workloads}, handle, indent=1)
    print(f"# wrote {out}", file=sys.stderr)
    return status


def trace_one(args) -> int:
    """One workload's traced run, rendered as its per-stage table."""
    _require_program()
    warm_import()
    traced = _traced(args)
    units = spec.per_layer()
    _print_metrics(args.workload, {name: traced["layers"][name] for name in units}, units)
    print()
    print(stage_table(traced["stages"], traced["layers"]))
    return 0 if traced["correct"] else 1


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="benchmarks.wallclock", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command")

    def run_options(sub, workload_required=True):
        if workload_required:
            sub.add_argument("--workload", required=True, choices=spec.WORKLOADS)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--seconds", type=float, default=spec.DEFAULT_SECONDS,
                         help="timed-phase length of one run (the exact window always completes)")
        sub.add_argument("--scale", choices=("full", "tiny"), default="full")

    once = commands.add_parser("once", help="one run of one workload (the harness contract)")
    run_options(once)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)

    child = commands.add_parser("child", help="internal: one run in this process")
    run_options(child)
    child.add_argument("--mode", choices=("timed", "setup", "traced", "obs"), default="timed")

    sets = commands.add_parser("run", help="R interleaved runs per workload plus a traced run")
    run_options(sets, workload_required=False)
    sets.add_argument("--runs", type=int, default=5, help="R, runs per workload (>= 3)")
    sets.add_argument("--workloads", nargs="+", default=list(spec.WORKLOADS), choices=spec.WORKLOADS)
    sets.add_argument("--out", default=None)

    tracing = commands.add_parser("trace", help="traced run of one workload, per-stage table")
    run_options(tracing)

    comparing = commands.add_parser("compare", help="judge result B against result A")
    comparing.add_argument("a")
    comparing.add_argument("b")

    reporting = commands.add_parser("report", help="render a result file as markdown")
    reporting.add_argument("result")

    if argv and argv[0].startswith("--") and argv[0] not in ("--help",):
        argv.insert(0, "once")  # the harness passes no subcommand
    args = parser.parse_args(argv)
    handlers = {
        "once": contract, "child": child_main, "run": run_sets, "trace": trace_one,
        "compare": lambda args: compare_files(args.a, args.b),
        "report": lambda args: print(render_file(args.result)) or 0,
    }
    if args.command is None:
        parser.print_help()
        return 2
    return handlers[args.command](args)
