"""REPRO005 — no mutable default arguments.

A mutable default (``def f(x=[])``) is evaluated once at definition
time and shared across every call — in a codebase where one session
serves many indexes and one server serves many requests, a shared
hidden list is a cross-request state leak waiting to happen. Flags
list/dict/set displays and comprehensions, plus calls to the obvious
mutable constructors, used as parameter defaults. Default to ``None``
and build inside the body instead.
"""

from __future__ import annotations

import ast

from tools.lint.registry import Rule, register

_MUTABLE_DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_DISPLAYS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _defaults_with_params(args: ast.arguments):
    """Pair every default expression with the parameter it belongs to."""
    positional = args.posonlyargs + args.args
    for param, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        yield param, default
    for param, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield param, default


@register
class MutableDefaultsRule(Rule):
    rule_id = "REPRO005"
    title = "mutable-defaults"
    rationale = (
        "a mutable default is one shared object across every call — "
        "hidden cross-request state in a serving system"
    )

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            fn_name = getattr(node, "name", "<lambda>")
            for param, default in _defaults_with_params(node.args):
                if _is_mutable_default(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default for parameter {param.arg!r} of {fn_name}() "
                        "is shared across calls; default to None and build inside",
                    )
