"""REPRO004 — metrics discipline: register once, keys only ever grow.

PR 8's back-compat contract is that :meth:`ServeMetrics.snapshot` keys
never disappear or change meaning — dashboards and the benchmark
harness key off them. Two statically visible ways to break that:

* registering the same literal metric name twice in one scope —
  :class:`~repro.obs.registry.MetricsRegistry` raises at runtime, but
  only on the code path that actually double-registers; the lint catches
  it at commit time.
* reaching into ``MetricsRegistry._metrics`` from outside the registry
  module — the only way to *remove* or rebind a registered metric, which
  is exactly what the grow-only snapshot contract forbids. The typed
  ``counter()``/``gauge()``/``histogram()`` constructors and the public
  read surface are the whole sanctioned API.
"""

from __future__ import annotations

import ast

from tools.lint.registry import Rule, register

#: MetricsRegistry constructor methods whose first argument names a metric.
REGISTRATION_METHODS = frozenset({"counter", "gauge", "histogram"})

#: The one module allowed to touch the registry's private storage.
REGISTRY_MODULE_SUFFIX = "obs/registry.py"


@register
class MetricsRule(Rule):
    rule_id = "REPRO004"
    title = "metrics-discipline"
    rationale = (
        "snapshot keys are a public contract: metric names register exactly "
        "once and the key set only ever grows"
    )

    def check(self, ctx):
        seen: dict[tuple[int, str], int] = {}
        in_registry_module = ctx.path.endswith(REGISTRY_MODULE_SUFFIX)
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REGISTRATION_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value
                key = (id(ctx.enclosing_scope(node)), name)
                if key in seen:
                    yield ctx.finding(
                        self,
                        node,
                        f"metric {name!r} registered more than once in this scope "
                        f"(first at line {seen[key]}); each snapshot key has exactly "
                        "one owner",
                    )
                else:
                    seen[key] = node.lineno
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "_metrics"
                and not in_registry_module
            ):
                yield ctx.finding(
                    self,
                    node,
                    "touches MetricsRegistry._metrics private state; the snapshot "
                    "key set must only grow through counter()/gauge()/histogram()",
                )
