"""``compare A.json B.json``: is B no worse than A, metric by metric?

One row per (end-to-end metric, workload) with both medians and
quartiles, the ratio B/A with its base, and a verdict.  Bounds come from
``BENCHMARK.json`` — this file holds no second copy.  A combined score is
never computed: every pairing stands in its own row.
"""

from __future__ import annotations

import json

from . import spec

#: Verdicts that make ``compare`` exit non-zero.
FAILING = ("worse",)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``better`` / ``within-bound`` / ``worse`` / ``unresolved`` for one row.

    ``unresolved``: the run-to-run spread of either side (quartile
    distance over A's median) is wider than the bound *and* the two sets
    of runs overlap — such a row says nothing, and calling it unchanged
    would be a claim.  ``better`` mirrors ``worse`` — B's median beats
    A's by more than the bound — or every run of B beats every run of A.
    Two sets measured at different times differ by the machine's drift
    alone, so neither verdict is a claim of a gain: that takes
    alternating pairs (README, noise protocol).
    """
    base = a["median"]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - base) / base
    a_runs = [sign * v for v in a["values"]]
    b_runs = [sign * v for v in b["values"]]
    separated = max(b_runs) < min(a_runs) or min(b_runs) > max(a_runs)
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / abs(base)
    if spread > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound or max(b_runs) < min(a_runs):
        return "better"
    return "within-bound"


def _cell(row: dict) -> str:
    return f"{row['median']:.5g} ({row['q1']:.5g}..{row['q3']:.5g})"


def compare(a: dict, b: dict) -> tuple[list[str], int]:
    """Rows of the comparison and the exit status."""
    metrics = spec.end_to_end()
    env_a, env_b = a["environment"], b["environment"]
    same_inputs = (env_a["seed"], env_a["scale"]) == (env_b["seed"], env_b["scale"])
    row = "{:14s} {:18s} {:>34s} {:>34s} {:>8s} {:>6s}  {}"
    lines = [
        f"A: {env_a['git_sha'][:12]} seed={env_a['seed']} runs={env_a['runs']}   "
        f"B: {env_b['git_sha'][:12]} seed={env_b['seed']} runs={env_b['runs']}",
        row.format("workload", "metric", "A median (q1..q3)", "B median (q1..q3)", "B/A", "bound", "verdict"),
    ]
    status = 0
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            lines.append(f"{name:14s} missing from B")
            status = 1
            continue
        for metric, ra in wa["end_to_end"].items():
            rb = wb["end_to_end"][metric]
            declared = metrics.get(metric)
            if declared is None:  # summarised by `run`, not gated (README: demoted)
                bound, outcome = "-", "not gated"
            else:
                bound = f"{declared['bound']:.2f}"
                outcome = verdict(ra, rb, declared["better"], declared["bound"])
                if outcome in FAILING:
                    status = 1
            lines.append(row.format(
                name, metric, _cell(ra), _cell(rb), f"{rb['median'] / ra['median']:.4f}", bound,
                f"{outcome}  (base A = {ra['median']:.5g} {ra['unit']})"))
        ea, eb = wa["error"], wb["error"]
        rose = eb["error_rate"] > ea["error_rate"]
        if rose:
            status = 1
        lines.append(f"{name:14s} {'error_rate':18s} {ea['error_rate']!r} ({ea['failed']}/{ea['attempted']}) -> "
                     f"{eb['error_rate']!r} ({eb['failed']}/{eb['attempted']})  {'ROSE' if rose else 'ok'}")
        if not same_inputs:
            lines.append(f"{name:14s} exact metrics not compared: seed or scale differs")
            continue
        exact_a = dict(wa["exact"], **{m: wa["per_layer"][m]["value"] for m in spec.EXACT_LAYER_METRICS})
        exact_b = dict(wb["exact"], **{m: wb["per_layer"][m]["value"] for m in spec.EXACT_LAYER_METRICS})
        differing = sorted(key for key in exact_a if exact_a[key] != exact_b.get(key))
        lines.append(f"{name:14s} exact: {len(exact_a) - len(differing)} of {len(exact_a)} bit-equal"
                     + (f"; DIFFER: {', '.join(differing)}" if differing else ""))
    return lines, status


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        lines, status = compare(json.load(handle_a), json.load(handle_b))
    print("\n".join(lines))
    return status
