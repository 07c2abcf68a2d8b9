"""REPRO002 — error taxonomy: raise ReproError subclasses, swallow nothing.

The public contract since the seed has been "catch :class:`ReproError`
and you have caught everything this package throws". That only holds if
no code path raises a builtin ``ValueError`` where a caller expects
``ConfigError``, no handler silently eats an error class it did not
mean to, and no runtime validation hides behind ``assert`` (which
vanishes under ``python -O``, turning a guarded invariant into silent
corruption). Three checks:

* ``raise`` of a builtin exception type (``ValueError``, ``KeyError``,
  ``IndexError``, ``AssertionError``, ...). Control-flow builtins
  (``StopIteration``, ``SystemExit``, ``KeyboardInterrupt``, ...) and
  the abstract-method marker ``NotImplementedError`` are allowed, as is
  re-raising a caught variable and raising any known ``ReproError``
  subclass — including subclasses defined in the linted files.
  ``AttributeError`` raised inside a ``__getattr__``/``__getattribute__``
  body is the attribute protocol itself (``hasattr`` and lazy module
  exports depend on exactly that type) and is likewise allowed.
* bare ``except:`` / ``except Exception:`` / ``except BaseException:``
  whose body never re-raises — the swallow shape that turns taxonomy
  violations (and everything else) into silence.
* any ``assert`` statement — simulated-path invariants must raise a
  taxonomy error (``InvariantError`` exists for exactly this).
"""

from __future__ import annotations

import ast
import builtins

from tools.lint.registry import Rule, register

_BUILTIN_EXCEPTIONS = frozenset(
    name
    for name in dir(builtins)
    if isinstance(getattr(builtins, name), type)
    and issubclass(getattr(builtins, name), BaseException)
)

#: Builtin raises that are not taxonomy violations: interpreter control
#: flow, process exit, and the abstract-method convention.
_ALLOWED_BUILTINS = frozenset(
    {
        "NotImplementedError",
        "StopIteration",
        "StopAsyncIteration",
        "GeneratorExit",
        "KeyboardInterrupt",
        "SystemExit",
    }
)

_SWALLOWERS = frozenset({"Exception", "BaseException"})

#: Functions whose contract *is* raising AttributeError: the attribute
#: protocol (module-level ``__getattr__`` included) signals "no such
#: attribute" with exactly that builtin type.
_ATTR_PROTOCOL_FUNCS = frozenset({"__getattr__", "__getattribute__"})


def _raised_name(exc: ast.AST) -> str | None:
    """The class name a raise statement targets, when statically visible."""
    target = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _handler_catches_everything(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in caught:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name in _SWALLOWERS:
            return True
    return False


@register
class TaxonomyRule(Rule):
    rule_id = "REPRO002"
    title = "error-taxonomy"
    rationale = (
        "catching ReproError must catch everything this package throws; "
        "builtin raises, swallowing handlers and -O-stripped asserts all break that"
    )

    def check(self, ctx):
        protocol_raises = set()
        for fn in ast.walk(ctx.tree):
            if (
                isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and fn.name in _ATTR_PROTOCOL_FUNCS
            ):
                for sub in ast.walk(fn):
                    if isinstance(sub, ast.Raise):
                        protocol_raises.add(sub)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _raised_name(node.exc)
                if name == "AttributeError" and node in protocol_raises:
                    continue
                if (
                    name is not None
                    and name in _BUILTIN_EXCEPTIONS
                    and name not in _ALLOWED_BUILTINS
                    and name not in ctx.taxonomy
                ):
                    yield ctx.finding(
                        self,
                        node,
                        f"raises builtin {name}; the public surface raises only "
                        "ReproError subclasses (ConfigError/QueryError/...)",
                    )
            elif isinstance(node, ast.ExceptHandler):
                if _handler_catches_everything(node) and not any(
                    isinstance(sub, ast.Raise) for sub in ast.walk(node)
                ):
                    caught = "bare except:" if node.type is None else "except Exception"
                    yield ctx.finding(
                        self,
                        node,
                        f"{caught} swallows every error class; catch ReproError (or "
                        "a specific type) or re-raise",
                    )
            elif isinstance(node, ast.Assert):
                yield ctx.finding(
                    self,
                    node,
                    "assert used for runtime validation vanishes under python -O; "
                    "raise a ReproError subclass (e.g. InvariantError) instead",
                )
