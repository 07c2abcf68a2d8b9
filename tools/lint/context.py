"""Per-file analysis context shared by every rule.

One :class:`FileContext` wraps one parsed module: its display path, the
AST, a parent map (rules ask "which function encloses this call?"), and
the error-taxonomy name set computed for the whole lint
run (``ReproError`` and everything that transitively subclasses it,
including subclasses defined in the linted files themselves).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.lint.findings import Finding
from tools.lint.registry import Rule


class FileContext:
    """Everything a rule needs to check one file.

    Attributes:
        path: Display path (``repro/core/engine.py`` style).
        source: Raw source text.
        tree: Parsed :class:`ast.Module`.
        taxonomy: Names of every known ``ReproError`` subclass (plus the
            base itself) visible to this lint run.
    """

    def __init__(self, path: str, source: str, tree: ast.Module, taxonomy: frozenset):
        self.path = path
        self.source = source
        self.tree = tree
        self.taxonomy = taxonomy
        self._parents: dict = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST):
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """Nearest enclosing function/class/module for scoping checks."""
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                return ancestor
        return self.tree

    def finding(self, rule: Rule, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.rule_id,
            message=message,
        )
