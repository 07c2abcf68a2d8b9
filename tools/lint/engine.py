"""The lint engine: collect files, run every rule, render the report.

Determinism is the design constraint everything else hangs off: files
are walked in sorted display-path order, findings sort by (path, line,
col, rule, message), the rendered report carries no timestamps or
absolute paths, and two consecutive runs over the same tree emit
byte-identical text (a tier-1 test asserts exactly that).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from tools.lint.context import FileContext
from tools.lint.findings import Finding, PARSE_RULE_ID
from tools.lint.registry import Rule, all_rules

#: The checkout this tool lives in (``tools/lint`` is two levels down).
REPO_ROOT = Path(__file__).resolve().parents[2]

#: What a run with no paths lints: the package, the paper's evaluation code
#: (reference structures, baselines, figure runners) and this tool.
DEFAULT_PATHS = (REPO_ROOT / "src" / "repro", REPO_ROOT / "paper", REPO_ROOT / "tools" / "lint")


def display_path(path: Path) -> str:
    """Stable display path: ``repro/...`` for files under the package.

    Anchoring on the last ``/repro/`` component makes the same file
    render identically whether the linter was handed ``src``,
    ``src/repro`` or the file itself, from any working directory. Files
    of this checkout outside ``src/`` (the tool itself) render relative
    to the repository root, ``tools/lint/...``.
    """
    resolved = path.resolve()
    if resolved.is_relative_to(REPO_ROOT) and not resolved.is_relative_to(REPO_ROOT / "src"):
        return resolved.relative_to(REPO_ROOT).as_posix()
    posix = resolved.as_posix()
    marker = "/repro/"
    idx = posix.rfind(marker)
    if idx >= 0:
        return "repro/" + posix[idx + len(marker):]
    return path.as_posix()


def collect_files(paths) -> list[Path]:
    """Expand files/directories into a deterministically ordered file list."""
    seen: dict[str, Path] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            seen.setdefault(display_path(candidate), candidate)
    return [seen[key] for key in sorted(seen)]


def _base_taxonomy() -> set[str]:
    """Names of ``ReproError`` and every subclass importable right now."""
    import repro.errors as errors_module

    names: set[str] = set()

    def add(cls: type) -> None:
        names.add(cls.__name__)
        for sub in cls.__subclasses__():
            add(sub)

    add(errors_module.ReproError)
    return names


def _extend_taxonomy(trees: dict[str, ast.Module], base: set[str]) -> frozenset[str]:
    """Close the taxonomy over class definitions in the linted files.

    A fixture (or a future module) defining ``class FooError(QueryError)``
    makes ``FooError`` a legitimate raise target, transitively.
    """
    names = set(base)
    class_bases: list[tuple[str, set[str]]] = []
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                basenames: set[str] = set()
                for base_node in node.bases:
                    if isinstance(base_node, ast.Name):
                        basenames.add(base_node.id)
                    elif isinstance(base_node, ast.Attribute):
                        basenames.add(base_node.attr)
                class_bases.append((node.name, basenames))
    changed = True
    while changed:
        changed = False
        for name, basenames in class_bases:
            if name not in names and basenames & names:
                names.add(name)
                changed = True
    return frozenset(names)


@dataclass
class Report:
    """Outcome of one lint run.

    Attributes:
        findings: Every finding, deterministically sorted.
        files: Number of files checked.
        rules: The rules that ran.
    """

    findings: list[Finding]
    files: int
    rules: tuple[Rule, ...] = field(default_factory=tuple)

    def exit_code(self) -> int:
        """0 when clean; 1 on any finding."""
        return 1 if self.findings else 0

    def render(self) -> str:
        """The full deterministic report text."""
        lines = [
            "tools.lint report",
            f"files checked: {self.files}",
            "rules: " + " ".join(rule.rule_id for rule in self.rules),
            "",
        ]
        if self.findings:
            lines.append(f"findings ({len(self.findings)}):")
            lines.extend(f"  {finding.render()}" for finding in self.findings)
        else:
            lines.append("findings (0): none")
        lines.append("")
        lines.append("result: " + ("FAIL" if self.exit_code() else "PASS"))
        return "\n".join(lines)


def lint_sources(sources: dict[str, str]) -> Report:
    """Lint in-memory sources keyed by display path."""
    trees: dict[str, ast.Module] = {}
    findings: list[Finding] = []
    for path in sorted(sources):
        try:
            trees[path] = ast.parse(sources[path])
        except SyntaxError as exc:
            findings.append(
                Finding(path, exc.lineno or 0, 0, PARSE_RULE_ID, f"syntax error: {exc.msg}")
            )
    rules = all_rules()
    taxonomy = _extend_taxonomy(trees, _base_taxonomy())
    for path in sorted(trees):
        ctx = FileContext(path, sources[path], trees[path], taxonomy)
        for rule in rules:
            findings.extend(rule.check(ctx))
    return Report(findings=sorted(findings, key=Finding.sort_key), files=len(sources), rules=rules)


def lint_paths(paths) -> Report:
    """Lint files and/or directory trees on disk (CLI and tier-1 entry)."""
    return lint_sources(
        {display_path(path): path.read_text(encoding="utf-8") for path in collect_files(paths)}
    )
