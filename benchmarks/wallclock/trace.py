"""Span tracing from outside the program.

The program under ``src/`` may not read a wall clock (lint rule REPRO001),
so per-layer attribution wraps its *public callables* from here: each
target is replaced — in its defining module or class and in every
``repro`` module that imported the name — by a wrapper that records an
in-memory span ``(name, start, end, parent, op)``.  ``op`` is the index of
the timed call the benchmark was driving (``SETUP`` during set-up), so one
request's spans share an identifier.  Spans are only aggregated after the
run; a name's *self* time is its spans minus the part their child spans
cover.  ``uninstall`` restores every patched name, which matters because
the smoke test traces in-process.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

SETUP = -1   # spans recorded while the workload builds its indexes
IDLE = -2    # warm-up, verification, anything outside set-up and timed calls

#: span name -> [(module, attribute path)].  Every target is a public name.
SPAN_TARGETS = {
    "api.create_index": [("repro.api.session", "GenieSession.create_index")],
    "api.encode_corpus": [
        ("repro.api.models", "AnnModel.encode_corpus"),
        ("repro.api.models", "DocumentModel.encode_corpus"),
        ("repro.api.models", "RelationalModel.encode_corpus"),
        ("repro.api.models", "RawModel.encode_corpus"),
    ],
    "api.encode_queries": [("repro.api.session", "IndexHandle.encode_queries")],
    "api.search": [("repro.api.session", "IndexHandle.search_encoded")],
    "lsh.keyword_matrix": [("repro.lsh.transform", "LshTransformer.keyword_matrix")],
    "sa.encode": [
        ("repro.api.models", "DocumentModel.encode_queries"),
        ("repro.api.models", "RelationalModel.encode_queries"),
    ],
    "core.corpus_init": [("repro.core.types", "Corpus.__init__")],
    "core.index_build": [("repro.core.inverted_index", "InvertedIndex.build")],
    "core.scan": [("repro.core.batch_scan", "plan_batch_scan")],
    "core.engine": [("repro.core.engine", "GenieEngine.query")],
    "gpu.launch": [("repro.gpu.device", "Device.launch")],
    "plan.compile": [
        ("repro.plan.planner", "compile_search"),
        ("repro.plan.planner", "reprice_plan"),
    ],
    "plan.execute": [("repro.plan.executor", "execute_plan")],
    "cluster.partition": [("repro.cluster.plan", "ShardPlan.build")],
    "cluster.merge": [("repro.cluster.executor", "merge_shard_results")],
    "stream.insert": [("repro.api.session", "IndexHandle.insert")],
    "stream.delete": [("repro.api.session", "IndexHandle.delete")],
    "stream.update": [("repro.api.session", "IndexHandle.update")],
    "stream.compact": [("repro.stream.state", "StreamState.compact")],
    "serve.submit": [("repro.serve.server", "GenieServer.submit")],
    "serve.pump": [("repro.serve.server", "GenieServer.pump")],
    "serve.advance_to": [("repro.serve.server", "GenieServer.advance_to")],
    "serve.drain": [("repro.serve.server", "GenieServer.drain")],
    "serve.snapshot": [("repro.serve.server", "GenieServer.snapshot")],
}

#: Called thousands of times per batch: counted, never spanned.
COUNT_TARGETS = {"lsh.murmur_calls": [("repro.lsh.murmur", "murmur3_int64")]}


def _scan_cells(args, kwargs) -> int:
    index = kwargs["index"] if "index" in kwargs else args[0]
    queries = kwargs["queries"] if "queries" in kwargs else args[1]
    return len(queries) * int(index.n_objects)


#: Extra counters read off a span target's arguments.
ARG_COUNTERS = {"core.scan": ("core.scan_cells", _scan_cells)}


class Tracer:
    """Records spans and counts for the timed calls of one run.

    ``op`` is set by the runner around every timed call; counts are only
    kept while ``counting`` (the exact window), spans always.
    """

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index, op)
        self.counts: dict[str, int] = {name: 0 for name in COUNT_TARGETS}
        self.counts.update({name: 0 for name, _ in ARG_COUNTERS.values()})
        self.op = IDLE
        self.counting = False
        self._stack: list[int] = []
        self._patched: list = []       # (owner, attribute, original)

    # -- wrapping ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, arg_counter = self.spans, self._stack, ARG_COUNTERS.get(name)

        def traced(*args, **kwargs):
            if arg_counter is not None and self.counting:
                self.counts[arg_counter[0]] += arg_counter[1](args, kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[slot] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.counting:
                counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, module_name: str, path: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(make_wrapper(original.__func__))
            else:
                replacement = make_wrapper(original)
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
            return
        original = getattr(module, path)
        replacement = make_wrapper(original)
        # `from x import f` copied the function into other namespaces:
        # replace it wherever the program can look it up.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").split(".")[0] != "repro":
                continue
            if other.__dict__.get(path) is original:
                self._patched.append((other, path, original))
                setattr(other, path, replacement)

    def install(self) -> "Tracer":
        """Wrap every target; idempotence is the caller's business."""
        for name, targets in SPAN_TARGETS.items():
            for module_name, path in targets:
                self._patch(module_name, path, lambda fn, name=name: self._span_wrapper(name, fn))
        for name, targets in COUNT_TARGETS.items():
            for module_name, path in targets:
                self._patch(module_name, path, lambda fn, name=name: self._count_wrapper(name, fn))
        return self

    def uninstall(self) -> None:
        """Restore every patched name (reverse order, so nesting unwinds)."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ---------------------------------------------------

    def durations(self, name: str, first_op: int, last_op: int) -> list[float]:
        """Inclusive seconds of each ``name`` span with ``first_op <= op <= last_op``."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and first_op <= s[4] <= last_op]

    def parent_durations(self, name: str, first_op: int, last_op: int) -> list[float]:
        """Inclusive seconds of the span enclosing each ``name`` span."""
        spans = self.spans
        return [
            spans[s[3]][2] - spans[s[3]][1]
            for s in spans
            if s[0] == name and s[3] >= 0 and first_op <= s[4] <= last_op
        ]

    def stages(self, first_op: int, last_op: int) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, root seconds.

        ``root_s`` sums only spans with no enclosing span — together they
        cover the traced part of the timed calls exactly once.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for slot, (name, start, end, parent, op) in enumerate(spans):
            if not first_op <= op <= last_op:
                continue
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "root_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[slot]
            if parent < 0:
                row["root_s"] += end - start
        return table
