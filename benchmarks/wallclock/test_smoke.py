"""Tier-1 smoke test of the wall-clock benchmark (tiny scale, in-process).

Deliberately collected by the repository's ``pytest`` run: the benchmark
drives public entry points, so an API change that breaks it should fail
here, in seconds, not in the first real measurement.  Package-relative
imports only — the module is ``wallclock.test_smoke`` under pytest and
part of ``benchmarks.wallclock`` under ``python -m``.
"""

import math
import re

import pytest

from . import spec
from .cli import contract_payload
from .runner import baseline_of, complete_layers, exact_channel, run_once

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def runs():
    """Per workload: two traced runs and one timed run of seed 0, one timed run of seed 1."""
    return {
        name: {
            "timed": run_once(name, 0, 0.0, "tiny", "timed"),
            "traced": run_once(name, 0, 0.0, "tiny", "traced"),
            "traced_again": run_once(name, 0, 0.0, "tiny", "traced"),
            "other_seed": run_once(name, 1, 0.0, "tiny", "timed"),
        }
        for name in spec.WORKLOADS
    }


def test_benchmark_json_names_the_workloads_and_metrics():
    declared = spec.load()
    assert [w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS)
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names + list(spec.WORKLOADS))
    assert "setup_s" in spec.end_to_end()
    assert set(spec.EXACT_LAYER_METRICS) <= set(spec.per_layer())


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_every_declared_metric_is_emitted_once_and_finite(runs, name):
    for mode, declared in (("timed", spec.end_to_end()), ("traced", spec.per_layer())):
        run = runs[name][mode]
        values = run["metrics"] if mode == "timed" else complete_layers(run, baseline_of(runs[name]["timed"]))
        payload = contract_payload(run, values, declared)
        assert set(payload) == {"correct", "attempted", "failed", "metrics"}
        assert list(payload["metrics"]) == list(declared)
        for metric, entry in payload["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"]
            assert math.isfinite(entry["value"]), metric
        assert payload["correct"] is True and payload["attempted"] >= 1 and payload["failed"] == 0
    # End-to-end metrics are ratios' denominators downstream: never zero.
    assert all(value > 0 for value in runs[name]["timed"]["metrics"].values())


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_answers_pass_the_oracle(runs, name):
    for run in runs[name].values():
        assert run["error_rate"] == 0 and run["failed"] == 0
        assert run["verified"] >= 8
        assert all(run["checks"].values()), run["checks"]


@pytest.mark.parametrize("name", spec.WORKLOADS)
def test_exact_channel_repeats_per_seed_and_moves_with_the_seed(runs, name):
    timed, traced, again, other = (runs[name][key] for key in ("timed", "traced", "traced_again", "other_seed"))
    assert exact_channel(timed) == exact_channel(traced) == exact_channel(again)
    assert (timed["attempted"], timed["failed"]) == (traced["attempted"], traced["failed"])
    for metric in spec.EXACT_LAYER_METRICS:
        assert traced["layers"][metric] == again["layers"][metric], metric
    assert other["inputs_sha256"] != timed["inputs_sha256"]
    assert other["answers_sha256"] != timed["answers_sha256"]


def test_each_workload_stresses_its_own_layers(runs):
    layers = {name: runs[name]["traced"]["layers"] for name in spec.WORKLOADS}
    assert layers["stream_ingest"]["lsh.murmur_calls"] == 0
    assert layers["ocr_sharded"]["lsh.murmur_calls"] > layers["ann_batch"]["lsh.murmur_calls"] > 0
    assert layers["ocr_sharded"]["replica.failovers"] > 0 == layers["ann_batch"]["replica.failovers"]
    assert layers["stream_ingest"]["stream.compactions"] >= 1
    assert 0 < layers["serve_mix"]["serve.cache_hit_ratio"] < 1
    assert layers["ann_batch"]["cluster.merge_calls"] == 0 < layers["ocr_sharded"]["cluster.merge_calls"]


def test_tracing_leaves_the_program_unpatched(runs):
    from repro.core import batch_scan, engine
    from repro.serve import GenieServer

    assert engine.plan_batch_scan is batch_scan.plan_batch_scan
    assert not hasattr(batch_scan.plan_batch_scan, "__wrapped__")
    assert not hasattr(GenieServer.submit, "__wrapped__")
