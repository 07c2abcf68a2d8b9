"""REPRO007 — retry hygiene: bounded attempts, seeded jitter.

Failover and eviction paths retry by design (re-dispatch a scan to the
next replica, evict-and-reattach under memory pressure), and a retry
loop is exactly where an "it can't happen twice" assumption becomes an
infinite loop in production. Two checks on any *retry loop* — a
``while``/``for`` whose body contains a ``try`` with an except handler
that resumes the loop instead of propagating:

* **bounded attempts** — the loop must iterate something finite. A
  constant-true ``while True:`` / ``while 1:`` retry loop has no
  attempt bound; spell the bound explicitly
  (``for attempt in range(max_attempts):``) so exhaustion is a code
  path that raises a taxonomy error, not a hang. Loops whose handlers
  all end in ``raise``/``return``/``break`` are not retry loops — they
  escape on failure.
* **seeded jitter** — backoff jitter drawn inside a retry loop must
  come from an explicitly seeded generator. Stdlib ``random`` (hidden
  process-global state) and unseeded ``numpy.random.default_rng()``
  make the retry schedule — and therefore every latency this simulation
  charges for a failover — unreproducible. REPRO001 flags these calls
  anywhere; this rule re-flags them in retry position because there the
  fix is specific: derive the jitter stream from the failure context,
  e.g. ``default_rng([seed, shard, attempt])`` as
  :meth:`FaultInjector.retry_penalty_for
  <repro.replica.faults.FaultInjector.retry_penalty_for>` does.
"""

from __future__ import annotations

import ast

from tools.lint.astutil import call_path, import_map
from tools.lint.registry import Rule, register

#: Handler-terminating statements that escape the loop rather than
#: resume it — a handler ending in one of these is not a retry.
_ESCAPES = (ast.Raise, ast.Return, ast.Break)


def _is_constant_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value)


def _handler_resumes(handler: ast.ExceptHandler) -> bool:
    """Whether the handler falls back into the loop (continue/pass/...)."""
    if not handler.body:
        return True
    return not isinstance(handler.body[-1], _ESCAPES)


def _loop_body_nodes(loop: ast.While | ast.For):
    """Walk the loop body without descending into nested defs/lambdas.

    Nested loops stay in scope (a retry loop may wrap its try in an
    inner structure), but a function defined inside the loop runs on its
    own schedule and is judged on its own.
    """
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_retry_loop(loop: ast.While | ast.For) -> bool:
    for node in _loop_body_nodes(loop):
        if isinstance(node, ast.Try):
            if any(_handler_resumes(h) for h in node.handlers):
                return True
    return False


@register
class RetryRule(Rule):
    rule_id = "REPRO007"
    title = "retry-hygiene"
    rationale = (
        "retry loops must bound their attempts and seed their jitter; an "
        "unbounded retry hangs on repeated failure and unseeded backoff "
        "un-reproduces every failover latency"
    )

    def check(self, ctx):
        aliases = import_map(ctx.tree)
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.While, ast.For)):
                continue
            if not _is_retry_loop(loop):
                continue
            if isinstance(loop, ast.While) and _is_constant_true(loop.test):
                yield ctx.finding(
                    self,
                    loop,
                    "unbounded retry loop (while True: with a resuming except "
                    "handler); bound the attempts explicitly, e.g. "
                    "for attempt in range(max_attempts):",
                )
            for node in _loop_body_nodes(loop):
                if not isinstance(node, ast.Call):
                    continue
                path = call_path(node, aliases)
                if path is None:
                    continue
                if path == "random" or path.startswith("random."):
                    yield ctx.finding(
                        self,
                        node,
                        f"retry jitter from stdlib random ({path}) is "
                        "process-global and unseeded; derive it from the "
                        "failure context, e.g. "
                        "numpy.random.default_rng([seed, shard, attempt])",
                    )
                elif (
                    path == "numpy.random.default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "unseeded default_rng() inside a retry loop; seed the "
                        "jitter from the failure context, e.g. "
                        "default_rng([seed, shard, attempt])",
                    )
