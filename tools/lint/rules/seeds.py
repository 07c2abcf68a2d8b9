"""REPRO006 — seeded-API hygiene: a ``seed=`` parameter must be threaded.

The repo's reproducibility story is "same seed in, same bytes out",
which only works if every function that *accepts* a seed actually
*uses* it — and uses it for all of its randomness. Two shapes of
violation:

* a public function (or constructor) takes ``seed``/``*_seed`` and its
  body never references it: the caller believes the run is pinned, the
  function quietly isn't. (Trivial protocol stubs — docstring / pass /
  raise — are exempt.)
* a function that takes a seed parameter builds a generator whose
  arguments don't reference it (``default_rng(0)``, ``default_rng(42)``):
  the seed is re-derived instead of threaded, so two calls with
  different seeds return identical "random" draws.

Derived streams like ``default_rng([seed, client])`` (the traffic
generator's per-client substreams) reference the parameter and pass.
"""

from __future__ import annotations

import ast

from tools.lint.astutil import call_path, import_map, names_in
from tools.lint.registry import Rule, register


def _seed_params(node) -> list[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [p for p in params if p == "seed" or p.endswith("_seed")]


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _is_stub(node) -> bool:
    """Docstring/pass/ellipsis/raise-only bodies are declarations, not code."""
    for stmt in node.body:
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        return False
    return True


def _nearest_def(ctx, node):
    """The innermost function definition lexically containing ``node``."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


@register
class SeedHygieneRule(Rule):
    rule_id = "REPRO006"
    title = "seed-hygiene"
    rationale = (
        "an accepted-but-ignored or re-derived seed silently breaks "
        "same-seed-same-bytes reproducibility"
    )

    def check(self, ctx):
        aliases = import_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            seed_params = _seed_params(node)
            if not seed_params:
                continue
            body_names = set()
            for stmt in node.body:
                body_names |= names_in(stmt)
            if _is_public(node.name) and not _is_stub(node):
                for param in seed_params:
                    if param not in body_names:
                        yield ctx.finding(
                            self,
                            node,
                            f"{node.name}() accepts {param}= but never threads it; "
                            "the caller's pinned seed has no effect",
                        )
            for stmt in node.body:
                for call in ast.walk(stmt):
                    if not isinstance(call, ast.Call):
                        continue
                    path = call_path(call, aliases)
                    if path != "numpy.random.default_rng":
                        continue
                    # A nested def with its own seed params owns its calls;
                    # don't judge them against the outer signature.
                    if _nearest_def(ctx, call) is not node:
                        continue
                    if not call.args and not call.keywords:
                        continue  # unseeded — REPRO001's finding, not ours
                    referenced = set()
                    for arg in list(call.args) + [kw.value for kw in call.keywords]:
                        referenced |= names_in(arg)
                    if not referenced & set(seed_params):
                        yield ctx.finding(
                            self,
                            call,
                            f"{node.name}() takes {seed_params[0]}= but re-derives its "
                            "generator from other state; thread the seed parameter "
                            "into default_rng(...)",
                        )
