"""Markdown rendering of a result file.

Machine table first, then per workload the end-to-end medians and a
Table-I-shaped per-stage table: wall-clock self seconds per wrapped
public call next to the simulated seconds of the paper's stages, so
"simulated says match dominates, wall says encode dominates" is one
glance.
"""

from __future__ import annotations

import json

from .spec import SIM_STAGES


def _table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def _value(layers: dict, name: str) -> float:
    entry = layers.get(name, 0.0)
    return entry["value"] if isinstance(entry, dict) else entry


def stage_table(stages: dict, layers: dict) -> str:
    """Wall-clock self time per stage of the timed window, then Table I's simulated stages."""
    wall = _value(layers, "bench.window_wall_s") or 1.0
    timed = sorted(stages["timed"].items(), key=lambda item: -item[1]["self_s"])
    rows = [
        (name, name.split(".")[0], row["calls"], f"{row['self_s']:.4f}",
         f"{100 * row['self_s'] / wall:.1f} %", f"{row['total_s']:.4f}")
        for name, row in timed
    ]
    rows.append(("(not in any span)", "bench", "", f"{_value(layers, 'bench.unattributed_s'):.4f}",
                 f"{100 * _value(layers, 'bench.unattributed_s') / wall:.1f} %", ""))
    sim = {stage: _value(layers, f"gpu.sim.{stage}_s") for stage in SIM_STAGES}
    sim_total = sum(sim.values()) or 1.0
    parts = [
        f"Timed window: {wall:.3f} s of wall clock inside timed calls (traced run).",
        _table(("wrapped call", "layer", "calls", "self s", "share of timed wall", "inclusive s"), rows),
        "Simulated seconds of the same window, by Table-I stage:",
        _table(("stage", "simulated s", "share of simulated"),
               [(stage, f"{seconds:.6g}", f"{100 * seconds / sim_total:.1f} %")
                for stage, seconds in sim.items()]),
    ]
    if stages.get("setup"):
        setup = sorted(stages["setup"].items(), key=lambda item: -item[1]["self_s"])
        parts += ["Set-up phase:", _table(
            ("wrapped call", "calls", "self s", "inclusive s"),
            [(name, row["calls"], f"{row['self_s']:.4f}", f"{row['total_s']:.4f}") for name, row in setup])]
    return "\n\n".join(parts)


def render(result: dict) -> str:
    env = result["environment"]
    parts = ["# Wall-clock benchmark report", "## Environment", _table(
        ("git sha", "python", "numpy", "BLAS threads", "cores", "load (start → end)", "seed", "runs x seconds", "scale"),
        [(env["git_sha"][:12], env["python"], env["numpy"], env["blas_threads"], env["nproc"],
          f"{env['load1_start']:.2f} → {env.get('load1_end', float('nan')):.2f}", env["seed"],
          f"{env['runs']} x {env['seconds']:g}", env["scale"])])]
    parts.append("Closed loop of one caller; `serve_mix` additionally replays an open-loop Poisson "
                 "schedule on the server's *virtual* clock. Medians over the set's runs, quartiles beside.")
    for name, workload in result["workloads"].items():
        parts.append(f"## {name}")
        rows = [(metric, row["unit"], f"{row['median']:.6g}", f"{row['q1']:.6g}", f"{row['q3']:.6g}", row["n"])
                for metric, row in workload["end_to_end"].items()]
        error = workload["error"]
        rows.append(("error_rate", "ratio", f"{error['error_rate']:.6g}", "", "",
                     f"{error['failed']}/{error['attempted']} failed, {error['verified']} oracle-checked"))
        parts.append(_table(("metric", "unit", "median", "q1", "q3", "n"), rows))
        parts.append(f"answers_sha256 `{workload['exact']['answers_sha256'][:16]}…`, exact metrics "
                     f"{'repeat' if workload['exact_repeats'] else 'DO NOT repeat'} across the set; "
                     f"latency samples per run: {workload['latency_samples']}.")
        parts.append(stage_table(workload["stages"], workload["per_layer"]))
    return "\n\n".join(parts)


def render_file(path: str) -> str:
    with open(path) as handle:
        return render(json.load(handle))
