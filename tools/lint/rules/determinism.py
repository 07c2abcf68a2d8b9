"""REPRO001 — determinism: no wall clocks, no unseeded or global RNG.

Everything this reproduction reports runs on a simulated clock
(``Device``/``HostCpu`` stage seconds, the serve layer's
``VirtualClock``) and every random draw threads an explicit seed, which
is what makes results bit-identical across plan strategies and traces
byte-identical across runs. One ``time.time()`` in a costed path or one
``np.random.rand()`` silently un-reproduces all of it. This rule flags:

* wall-clock reads (``time.time``/``monotonic``/``perf_counter``/...,
  ``datetime.now``/``utcnow``/``today``) and ``time.sleep``,
* any use of the stdlib ``random`` module (global, process-wide state),
* numpy's legacy module-level RNG (``np.random.rand``, ``np.random.seed``,
  ``np.random.shuffle``, ... and the legacy ``RandomState``),
* unseeded ``np.random.default_rng()`` — seedable APIs must be *given*
  a seed.

Seeded ``default_rng(seed)`` / ``Generator`` / ``SeedSequence`` /
explicit bit generators are the sanctioned spellings. There is no
allowlist: wall-clock measurement belongs to the benchmark harness,
outside the package.
"""

from __future__ import annotations

import ast

from tools.lint.astutil import call_path, import_map
from tools.lint.registry import Rule, register

#: Canonical dotted paths that read (or block on) the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "time.sleep",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: ``numpy.random`` attributes that are seedable construction APIs (fine)
#: rather than draws from the hidden module-level generator (flagged).
SEEDABLE_NUMPY = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "PCG64DXSM", "Philox", "SFC64"}
)


@register
class DeterminismRule(Rule):
    rule_id = "REPRO001"
    title = "determinism"
    rationale = (
        "simulated paths must stay on the virtual clock and seeded RNG; "
        "one wall-clock read or global random draw breaks bit-identical replay"
    )

    def check(self, ctx):
        aliases = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = call_path(node, aliases)
            if path is None:
                continue
            if path in WALL_CLOCK_CALLS:
                yield ctx.finding(
                    self,
                    node,
                    f"wall-clock call {path}() in a simulated path; time must come "
                    "from the virtual clock / simulated stage seconds",
                )
            elif path == "random" or path.startswith("random."):
                yield ctx.finding(
                    self,
                    node,
                    f"stdlib random ({path}) draws from hidden process-global state; "
                    "use numpy.random.default_rng(seed)",
                )
            elif path.startswith("numpy.random."):
                attr = path.split(".", 2)[2]
                if attr == "default_rng":
                    if not node.args and not node.keywords:
                        yield ctx.finding(
                            self,
                            node,
                            "unseeded numpy.random.default_rng(); thread an explicit "
                            "seed so replays are bit-identical",
                        )
                elif attr.split(".")[0] not in SEEDABLE_NUMPY:
                    yield ctx.finding(
                        self,
                        node,
                        f"module-level numpy RNG {path}() uses hidden global state; "
                        "use numpy.random.default_rng(seed)",
                    )
