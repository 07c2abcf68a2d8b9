"""Tests for Span trees and the Tracer: structure, export, sampling."""

import json

import pytest

from repro.api import GenieSession
from repro.errors import ConfigError
from repro.obs import Span, Tracer
from repro.serve import GenieServer


def _sample_tree():
    root = Span("request", start=1.0, duration=0.5, seq=7, index="docs")
    root.child("admit", start=1.0)
    batch = root.child("batch", start=1.2, duration=0.3, batch_size=2)
    batch.child("scan", start=1.2, duration=0.2, shard=1)
    return root


class TestSpan:
    def test_end_and_child_attachment(self):
        root = _sample_tree()
        assert root.end == pytest.approx(1.5)
        assert [child.name for child in root.children] == ["admit", "batch"]

    def test_walk_is_preorder_with_depths(self):
        walked = [(depth, span.name) for depth, span in _sample_tree().walk()]
        assert walked == [(0, "request"), (1, "admit"), (1, "batch"), (2, "scan")]

    def test_find(self):
        root = _sample_tree()
        assert root.find("scan").attrs["shard"] == 1
        assert root.find("nope") is None

    def test_shift_moves_the_whole_subtree(self):
        root = _sample_tree()
        root.shift(10.0)
        assert root.start == pytest.approx(11.0)
        assert root.find("scan").start == pytest.approx(11.2)

    def test_copy_is_deep(self):
        root = _sample_tree()
        dup = root.copy()
        dup.find("scan").attrs["shard"] = 99
        dup.find("batch").child("extra")
        assert root.find("scan").attrs["shard"] == 1
        assert len(root.find("batch").children) == 1

    def test_to_dict_round_trips_structure(self):
        tree = _sample_tree().to_dict()
        assert tree["name"] == "request"
        assert tree["attrs"] == {"seq": 7, "index": "docs"}
        assert tree["children"][1]["children"][0]["name"] == "scan"

    def test_render_connectors_and_attrs(self):
        text = _sample_tree().render()
        lines = text.splitlines()
        assert lines[0].startswith("request [")
        assert "seq=7" in lines[0]
        assert lines[1].startswith("├─ admit")
        assert lines[2].startswith("└─ batch")
        assert lines[3].startswith("   └─ scan")

    def test_render_keeps_microsecond_durations_visible(self):
        # A fixed ms decimal format would print 2 µs as "0.000 ms".
        span = Span("tiny", start=0.0, duration=2e-6)
        assert "+ 0.002 ms" in span.render()


class TestTracerSampling:
    def test_sample_every_one_traces_all(self):
        tracer = Tracer(sample_every=1)
        assert all(tracer.sampled(seq) for seq in range(5))

    def test_one_in_n_is_deterministic_on_seq(self):
        tracer = Tracer(sample_every=3)
        picks = [tracer.sampled(seq) for seq in range(7)]
        assert picks == [True, False, False, True, False, False, True]

    def test_rejects_bad_config(self):
        for bad in (0, float("nan"), 1.5):
            with pytest.raises(ConfigError, match="sample_every"):
                Tracer(sample_every=bad)
            with pytest.raises(ConfigError, match="keep"):
                Tracer(keep=bad)
            with pytest.raises(ConfigError, match="sample_every"):
                GenieServer(GenieSession(), trace_sample=bad)


class TestTracerStore:
    def test_keep_bounds_retained_traces(self):
        tracer = Tracer(keep=2)
        for seq in range(5):
            tracer.record(Span("request", seq=seq))
        assert tracer.total_traces == 5
        assert [span.attrs["seq"] for span in tracer.traces] == [3, 4]


class TestChromeExport:
    def test_events_carry_pid_tid_micros_and_depth(self):
        tracer = Tracer()
        tracer.record(_sample_tree())
        events = tracer.chrome_trace_events()
        assert [event["name"] for event in events] == [
            "request", "admit", "batch", "scan"]
        root_event = events[0]
        assert root_event["ph"] == "X"
        assert root_event["pid"] == 7          # request seq
        assert root_event["ts"] == pytest.approx(1.0e6)   # µs
        assert root_event["dur"] == pytest.approx(0.5e6)
        assert root_event["args"]["depth"] == 0
        scan_event = events[-1]
        assert scan_event["tid"] == 1          # shard lane
        assert scan_event["args"]["depth"] == 2

    def test_export_writes_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.record(_sample_tree())
        path = tmp_path / "trace.json"
        text = tracer.export_chrome_trace(path)
        payload = json.loads(path.read_text())
        assert json.loads(text) == payload
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 4

    def test_export_is_deterministic(self):
        def build():
            tracer = Tracer()
            tracer.record(_sample_tree())
            return tracer.export_chrome_trace()
        assert build() == build()
