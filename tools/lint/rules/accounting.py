"""REPRO003 — stage accounting: every charge lands in a *named* stage.

All simulated work flows through seven charging calls (``Device.launch``,
``Device.charge_seconds``, ``Device.to_device``/``to_host``,
``HostCpu.charge_ops``/``charge_bytes``/``charge_seconds``), each of which
requires a ``stage=`` keyword. An ambient fallback stage is how the
``plan_route`` bug class happened: host work performed outside any scope got
charged to whatever stage was last active, and the per-stage profile
(Table I, the per-stage traces and serve metrics) silently lied.
The calls raise ``TypeError`` without ``stage=``; this rule catches the
omission (and an explicit ``stage=None``) before anything runs, so the
reader — and the profile — always knows which stage pays.
"""

from __future__ import annotations

import ast

from tools.lint.registry import Rule, register

#: Method names that charge simulated seconds against a stage.
CHARGING_METHODS = frozenset(
    {"launch", "charge_ops", "charge_bytes", "charge_seconds", "to_device", "to_host"}
)


def _has_explicit_stage(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "stage":
            return not (
                isinstance(keyword.value, ast.Constant) and keyword.value.value is None
            )
    return False


@register
class AccountingRule(Rule):
    rule_id = "REPRO003"
    title = "stage-accounting"
    rationale = (
        "a charge without a named stage gets misattributed "
        "(the plan_route bug class); every charge names its stage"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CHARGING_METHODS
            ):
                continue
            if _has_explicit_stage(node):
                continue
            yield ctx.finding(
                self,
                node,
                f"{node.func.attr}() without an explicit stage=; unattributed work "
                "corrupts the per-stage profile (Table I)",
            )
