"""Rule base class and the stable-ID rule registry.

Every rule is a singleton registered under a stable ``REPRO0XX`` id via
the :func:`register` decorator; :func:`all_rules` returns them in id
order. Ids are what reports, docs and tests cite, so they must never be
renumbered — retire a rule by deleting it and leaving its id unused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigError
from tools.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from tools.lint.context import FileContext

_RULES: dict[str, "Rule"] = {}


class Rule:
    """One statically checkable invariant.

    Subclasses set the class attributes and implement :meth:`check`;
    instances are stateless (one instance lints many files, possibly
    interleaved), so any per-file bookkeeping lives in local variables.

    Attributes:
        rule_id: Stable identifier, ``REPRO`` + 3 digits.
        title: Short kebab-ish name for tables (``determinism``).
        rationale: One paragraph on why the invariant matters here.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: "FileContext") -> Iterable[Finding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rule_id} {self.title})"


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and register a :class:`Rule`."""
    rule = rule_cls()
    if not rule.rule_id or not rule.title:
        raise ConfigError(f"rule {rule_cls.__name__} must define rule_id and title")
    if rule.rule_id in _RULES:
        raise ConfigError(f"duplicate rule id {rule.rule_id}")
    _RULES[rule.rule_id] = rule
    return rule_cls


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in stable id order."""
    import tools.lint.rules  # noqa: F401  (importing registers the rules)

    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def get_rule(rule_id: str) -> Rule:
    """The rule registered under ``rule_id`` (ConfigError when unknown)."""
    for rule in all_rules():
        if rule.rule_id == rule_id:
            return rule
    raise ConfigError(f"unknown rule id {rule_id!r}")
